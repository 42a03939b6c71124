"""Answer checks computed apart from the package under test.

Nothing here calls into `maxminalloc`: instances are read through the
fields of the `Instance` type (`n`, `m`, `items[j].kind`, `interests`,
`epsilon`) and every value is an exact `Fraction`.  The LP threshold T* is
found by this module's own column generation, with its own two-class
pricing and `scipy.optimize.linprog(method="highs")` as the master solver.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

# lambda* >= 1 - FEASIBLE_TOL counts as CLP(T) feasible.  Wider than the
# program's 1e-9 because HiGHS stops at its own 1e-7 feasibility tolerance.
FEASIBLE_TOL = 1e-6
PRICE_TOL = 1e-9
MAX_ROUNDS = 500


def eps_of(inst) -> Fraction:
    return Fraction(inst.epsilon.numerator, inst.epsilon.denominator)


def is_heavy(inst, j: int) -> bool:
    return inst.items[j].kind == "heavy"


def item_weight(inst, j: int) -> Fraction:
    return Fraction(1) if is_heavy(inst, j) else eps_of(inst)


def check_allocation(inst, alloc: Dict[int, Iterable[int]]) -> List[str]:
    """Violations of an allocation; empty iff every agent id is known, every
    item is known, wanted by its agent and given out at most once."""
    problems = []
    holder: Dict[int, int] = {}
    for agent, items in alloc.items():
        if not (isinstance(agent, int) and 0 <= agent < inst.n):
            problems.append(f"unknown agent {agent!r}")
            continue
        for j in items:
            if not (isinstance(j, int) and 0 <= j < inst.m):
                problems.append(f"unknown item {j!r}")
            elif j not in inst.interests[agent]:
                problems.append(f"agent {agent} does not want item {j}")
            elif j in holder:
                problems.append(f"item {j} given to {holder[j]} and {agent}")
            else:
                holder[j] = agent
    return problems


def allocation_value(inst, alloc: Dict[int, Iterable[int]]) -> Fraction:
    """Minimum bundle weight over all n agents (absent agents hold nothing).
    Raises ValueError on an invalid allocation."""
    problems = check_allocation(inst, alloc)
    if problems:
        raise ValueError("; ".join(problems))
    return min(
        sum((item_weight(inst, j) for j in alloc.get(i, ())), Fraction(0))
        for i in range(inst.n)
    )


# ---------------------------------------------------------------------------
# brute-force optimum
# ---------------------------------------------------------------------------

class TooLarge(Exception):
    """The enumeration exceeded its node limit."""


def brute_force_opt(inst, known: Fraction = Fraction(0),
                    node_limit: int = 2_000_000) -> Fraction:
    """Max over all assignments of the minimum agent weight.

    Enumerates every way to give each item to one agent that wants it
    (giving an item away never lowers the minimum, so leaving it out is
    not branched on), pruning a branch once no completion can beat the
    best minimum found so far.  `known` is a value the caller has already
    seen reached, by an allocation checked with `allocation_value`; the
    search then only has to rule out anything better.  Raises TooLarge
    past `node_limit` search nodes.
    """
    q = inst.epsilon.denominator
    p = inst.epsilon.numerator
    w = [q if is_heavy(inst, j) else p for j in range(inst.m)]  # weights * q
    wanted_by = [[i for i in range(inst.n) if j in inst.interests[i]]
                 for j in range(inst.m)]
    order = sorted((j for j in range(inst.m) if wanted_by[j]),
                   key=lambda j: (len(wanted_by[j]), -w[j], j))
    have = [0] * inst.n
    left = [sum(w[j] for j in inst.interests[i]) for i in range(inst.n)]
    rest = sum(w[j] for j in order)  # weight of the items not yet given out
    best = known * q
    if best.denominator != 1:
        raise ValueError(f"{known} is not a bundle value")
    best = int(best) if known > 0 else -1
    nodes = 0

    def go(pos: int):
        nonlocal best, nodes, rest
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"more than {node_limit} nodes")
        # to beat `best` every agent needs best + 1: from what it still
        # wants, and all agents together from what is left
        if min(h + r for h, r in zip(have, left)) <= best:
            return
        if sum(max(0, best + 1 - h) for h in have) > rest:
            return
        if pos == len(order):
            best = min(have)
            return
        j = order[pos]
        rest -= w[j]
        for i in wanted_by[j]:
            left[i] -= w[j]
        for i in wanted_by[j]:
            have[i] += w[j]
            go(pos + 1)
            have[i] -= w[j]
        for i in wanted_by[j]:
            left[i] += w[j]
        rest += w[j]

    go(0)
    return Fraction(max(best, 0), q)


# ---------------------------------------------------------------------------
# configuration LP threshold T*, by column generation over HiGHS
# ---------------------------------------------------------------------------

def lattice(inst) -> List[Fraction]:
    """Every value h + l*eps a bundle can have, ascending."""
    eps = eps_of(inst)
    heavy = sum(1 for j in range(inst.m) if is_heavy(inst, j))
    light = inst.m - heavy
    return sorted({h + l * eps for h in range(heavy + 1) for l in range(light + 1)})


def _lights_needed(T: Fraction, eps: Fraction, h: int) -> int:
    return max(0, math.ceil((T - h) / eps))


def cheapest_config(inst, agent: int, T: Fraction,
                    price) -> Optional[Tuple[float, FrozenSet[int]]]:
    """Cheapest bundle of weight >= T for `agent` under item prices, or None.

    Two-class pricing: for each heavy count h take the h cheapest heavies
    and the fewest cheapest lights that reach T.
    """
    eps = eps_of(inst)
    heavy = sorted((j for j in inst.interests[agent] if is_heavy(inst, j)),
                   key=lambda j: (price[j], j))
    light = sorted((j for j in inst.interests[agent] if not is_heavy(inst, j)),
                   key=lambda j: (price[j], j))
    best = None
    for h in range(len(heavy) + 1):
        need = _lights_needed(T, eps, h)
        if need > len(light):
            continue
        cost = sum(price[j] for j in heavy[:h]) + sum(price[j] for j in light[:need])
        if best is None or cost < best[0]:
            best = (cost, frozenset(heavy[:h] + light[:need]))
        if need == 0:
            break
    return best


def clp_level(inst, T: Fraction, pool: set) -> float:
    """Optimal lambda of  max lambda  s.t. each agent is covered lambda times
    by its configurations at T and every item is used at most once;
    lambda is capped at 1, which is all a feasibility decision needs.
    `pool` holds the columns generated so far on this instance; those
    worth at least T start the master, and the new ones are added to it."""
    from scipy.optimize import linprog  # imported here: only the checks need it

    if T <= 0:
        return 1.0
    n, m = inst.n, inst.m
    zero = [0.0] * m
    cols: List[Tuple[int, FrozenSet[int]]] = []
    for i in range(n):
        found = cheapest_config(inst, i, T, zero)
        if found is None:
            return 0.0
        cols.append((i, found[1]))
    seen = set(cols)
    for col in pool:
        if col not in seen and sum(item_weight(inst, j) for j in col[1]) >= T:
            cols.append(col)
            seen.add(col)
    level = 0.0
    for _ in range(MAX_ROUNDS):
        A = np.zeros((n + m, 1 + len(cols)))
        A[:n, 0] = 1.0
        for c, (i, items) in enumerate(cols, start=1):
            A[i, c] = -1.0
            for j in items:
                A[n + j, c] = 1.0
        b = np.concatenate([np.zeros(n), np.ones(m)])
        cost = np.zeros(1 + len(cols))
        cost[0] = -1.0
        res = linprog(cost, A_ub=A, b_ub=b, bounds=[(0, 1)] + [(0, None)] * len(cols),
                      method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS master failed: {res.message}")
        level = float(res.x[0])
        duals = -np.asarray(res.ineqlin.marginals)
        y, z = duals[:n], duals[n:]
        added = False
        for i in range(n):
            cost_i, items = cheapest_config(inst, i, T, z)
            if y[i] - cost_i > PRICE_TOL and (i, items) not in seen:
                cols.append((i, items))
                seen.add((i, items))
                added = True
        if not added:
            break
    else:
        raise RuntimeError("column generation did not converge")
    pool.update(seen)
    return level


def clp_feasible(inst, T: Fraction, pool: set) -> bool:
    return clp_level(inst, T, pool) >= 1.0 - FEASIBLE_TOL


def is_tstar(inst, T: Fraction) -> bool:
    """True iff T is the largest lattice value with a feasible CLP: CLP(T) is
    feasible and CLP at the next lattice value is not (feasibility only
    falls as T grows).  Two LP decisions instead of a binary search."""
    values = lattice(inst)
    if T not in values:
        return False
    pool: set = set()
    above = values.index(T) + 1
    if above < len(values) and clp_feasible(inst, values[above], pool):
        return False
    return clp_feasible(inst, T, pool)


def tstar(inst) -> Fraction:
    """Largest lattice value T whose configuration LP is feasible."""
    values = lattice(inst)
    pool: set = set()
    lo, hi, best = 0, len(values) - 1, Fraction(0)
    while lo <= hi:
        mid = (lo + hi) // 2
        if clp_feasible(inst, values[mid], pool):
            best, lo = values[mid], mid + 1
        else:
            hi = mid - 1
    return best
