"""Configuration-LP feasibility via column generation.

The master maximizes the fractional coverage level lambda subject to the
per-agent covering and per-item packing constraints; new bundle columns
are priced in by an exact two-class knapsack separation oracle.  Also
contains the lattice binary search for the feasibility threshold, the
minimal-solution transform and the support hypergraph used by the
integrality-gap certification matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import flowkit, simplex
from .model import (
    Instance,
    LatticeValue,
    capped_values,
    k_of,
    last_feasible,
    minimal_count_pairs,
)

DEFAULT_TOL = 1e-9
PRICE_TOL = 1e-7
MAX_ROUNDS = 300


class NoConfiguration(ValueError):
    """Agent cannot reach T even when given every item it likes."""


class MasterNotConverged(simplex.SimplexError):
    """Column generation hit MAX_ROUNDS below lambda = 1, so CLP(T) is
    neither shown feasible nor shown infeasible."""


@dataclass(frozen=True)
class Column:
    agent: int
    items: FrozenSet[int]


@dataclass
class ClpResult:
    lambda_star: float
    feasible: bool
    converged: bool
    columns: List[Tuple[Column, float]]  # positive-mass primal columns


@dataclass
class SupportSolution:
    """Per-agent heavy-only / light-only configurations with fractional mass."""

    k: int
    heavy: Dict[int, Dict[FrozenSet[int], float]]
    light: Dict[int, Dict[FrozenSet[int], float]]


@dataclass
class SupportHypergraph:
    """The per-agent items a tree search draws addable edges from.

    heavy[i] lists agent i's heavy items and light[i] its light pools,
    each ascending; an agent without an entry has none.
    """

    heavy: Dict[int, Tuple[int, ...]]
    light: Dict[int, List[Tuple[int, ...]]]

    @classmethod
    def of_interests(cls, inst: Instance) -> "SupportHypergraph":
        """Every interest: each agent's heavy items and one pool of its lights."""
        return cls({i: inst.b1(i) for i in range(inst.n)},
                   {i: [inst.beps(i)] for i in range(inst.n)})


def separate(
    inst: Instance,
    agent: int,
    T: LatticeValue,
    z: Sequence[float],
) -> Tuple[float, FrozenSet[int]]:
    """Cheapest configuration of agent under item prices z, exactly.

    For each minimal (heavy, light) count pair (`minimal_count_pairs`),
    the optimum takes that many of the cheapest heavy and light prices
    (prices are non-negative, so extra items never help).  Raises
    NoConfiguration when C(agent, T) is empty.
    """
    # b1 and beps ascend and sorted is stable, so equal prices stay by index
    heavies = sorted(inst.b1(agent), key=z.__getitem__)
    lights = sorted(inst.beps(agent), key=z.__getitem__)
    pairs = minimal_count_pairs(T, inst.epsilon, len(heavies), len(lights))
    if not pairs:
        raise NoConfiguration(f"agent {agent} cannot reach T")
    hcost = list(accumulate(map(z.__getitem__, heavies), initial=0.0))
    lcost = list(accumulate(map(z.__getitem__, lights), initial=0.0))
    best = None
    for h, l in pairs:
        cost = hcost[h] + lcost[l]
        if best is None or cost < best[0] - 1e-15:
            best = (cost, h, l)
    cost, h, l = best
    return float(cost), frozenset(heavies[:h] + lights[:l])


def _starting_columns(inst: Instance, T: LatticeValue) -> List[Column]:
    """Congestion-priced seed columns: the multiplicative-weights step of
    Garg-Koenemann for fractional packing, used only to pick columns.

    Every item's price starts at 1.  A pass takes each agent in turn, in
    ascending order, keeps its cheapest configuration under the prices
    when it is new, and doubles the price of every item in it, so later
    agents steer around the items already taken; after each pass the
    prices are divided by their maximum, which changes no comparison in
    `separate` (it compares sums only) and keeps them finite.  Doubling,
    the Garg-Koenemann update 1 + step with step 1, makes an item already
    taken cost as much as two free ones, so later agents turn to free
    items where they have them.  The passes stop after one that adds no
    new column, or once the seed holds at least n + m columns, one per
    master row: more columns than rows only lengthen every pricing step
    of the simplex, and without the cap a large sparse instance keeps
    finding new columns for thousands of passes.

    Every seed column is a configuration in C(i, T), so the full master
    and its optimum lambda* are the same for any seed; a seed that spreads
    the agents out only lets the restricted master reach that optimum in
    fewer rounds.  Raises NoConfiguration when some C(i, T) is empty.
    """
    n, m = inst.n, inst.m
    price = [1.0] * m
    cols: List[Column] = []
    seen: Set[Column] = set()
    while len(cols) < n + m:
        before = len(cols)
        for i in range(n):
            _, s = separate(inst, i, T, price)
            col = Column(i, s)
            if col not in seen:
                seen.add(col)
                cols.append(col)
            for j in s:
                price[j] *= 2.0
        if len(cols) == before:
            break
        top = max(price)
        price = [p / top for p in price]
    return cols


def solve_clp(
    inst: Instance,
    T: LatticeValue,
    pool: Optional[Set[Column]] = None,
) -> ClpResult:
    """Column generation on the max-lambda master; feasible iff lambda* >= 1-DEFAULT_TOL.

    The first master holds the congestion-priced seed of
    `_starting_columns` and the valid columns of `pool`.  Each is a
    configuration in some C(i, T), and pricing adds every column the
    duals ask for, so which columns the master starts from changes only
    the number of rounds, never the optimum lambda* it converges to.
    Pricing stops at the first restricted master that reaches 1-DEFAULT_TOL,
    which already shows CLP(T) feasible: the result is reported converged
    and feasible, and `lambda_star` is then a lower bound on the optimum.
    """
    eps = inst.epsilon
    if T.key(eps) <= 0:
        return ClpResult(1.0, True, True, [])
    try:
        columns: List[Column] = _starting_columns(inst, T)
    except NoConfiguration:
        return ClpResult(0.0, False, True, [])
    seen: Set[Column] = set(columns)
    tkey = T.key(eps)
    if pool:
        for col in pool:
            if col in seen:
                continue
            if inst.bundle_value(col.items).key(eps) >= tkey and col.items <= inst.interests[col.agent]:
                columns.append(col)
                seen.add(col)

    n, m = inst.n, inst.m
    # rows: lambda - sum_S x_{i,S} <= 0 per agent, then packing per item;
    # variables: lambda, then one per column, appended as they are priced in
    master = simplex.Master(np.concatenate([np.zeros(n), np.ones(m)]))
    lam_col = np.zeros((n + m, 1))
    lam_col[:n] = 1.0
    master.add(lam_col, np.ones(1))
    lam = 0.0
    x = np.zeros(0)
    converged = False
    new = columns
    for _ in range(MAX_ROUNDS):
        block = np.zeros((n + m, len(new)))
        for idx, col in enumerate(new):
            block[col.agent, idx] = -1.0
            block[[n + j for j in col.items], idx] = 1.0
        master.add(block, np.zeros(len(new)))
        sol, _, duals = simplex.solve(master)
        lam, x = sol[0], sol[1:]
        if lam >= 1.0 - DEFAULT_TOL:
            converged = True
            break
        y = duals[:n].tolist()
        z = duals[n:].tolist()
        new = []
        for i in range(n):
            cost, s = separate(inst, i, T, z)
            if y[i] - cost > PRICE_TOL:
                col = Column(i, s)
                if col not in seen:
                    new.append(col)
                    seen.add(col)
        if not new:
            converged = True
            break
        columns.extend(new)
    if pool is not None:
        pool.update(seen)

    positive = [
        (columns[idx], float(x[idx]))
        for idx in range(len(columns))
        if idx < len(x) and x[idx] > 1e-12
    ]
    return ClpResult(float(lam), lam >= 1.0 - DEFAULT_TOL, converged, positive)


def feasible_at(
    inst: Instance, T: LatticeValue, pool: Optional[Set[Column]] = None
) -> bool:
    """Whether CLP(T) is feasible: lambda* >= 1-DEFAULT_TOL, as `solve_clp`
    decides it.  `pool` warm-starts the master and collects its columns.
    A probe whose column generation hits MAX_ROUNDS below that bound shows
    nothing, and raises MasterNotConverged."""
    if T.is_zero():
        return True
    res = solve_clp(inst, T, pool)
    if not res.converged:
        raise MasterNotConverged(
            f"column generation did not converge in {MAX_ROUNDS} rounds "
            f"at T = {T.as_fraction(inst.epsilon)}"
        )
    return res.feasible


def estimate_Tstar(inst: Instance, above: Optional[int] = None) -> Optional[LatticeValue]:
    """Largest lattice value T with CLP(T) feasible.

    C(i,T) only changes at lattice points, so the threshold is a lattice
    value.  It is at most `model.packing_cap`: a CLP(T) point at coverage
    lambda has n*T*lambda <= W, the weight the agents want, and above the
    cap that holds only with lambda <= 1 - 1/(key(W) + 1), which fails
    the 1 - DEFAULT_TOL test whenever key(W) < 10**9 - 1.

    It is also at most the flow cap, the largest value whose allocation
    network saturates (`flowkit.weight_feasible`).  Where the network at
    T does not saturate, lambda* <= 1 - 1/(n*key(T)), which fails the
    same test whenever n*key(T) < 10**9, so such a T is ruled out exactly
    as an LP probe would rule it out, and saturation is monotone in T, so
    the flow cap is found by binary search.

    The top value up to the packing cap is probed first, since T* often
    equals it.  When that probe fails, the search finds the flow cap below
    it, probes it, and when it fails too, binary-searches the (monotone)
    `feasible_at` predicate below it.  A column pool is warm-started
    across probes.

    `above`, a lattice key, asks only whether key(T*) > above: the lowest
    value up to the cap above it is checked first, by its network and
    then by an LP probe, and None is returned when there is no such value
    or either check fails.  Otherwise the search goes on from that value,
    and no value with a key up to `above` is probed.
    """
    values = capped_values(inst)
    pool: Set[Column] = set()
    if above is not None:
        values = [T for T in values if T.key(inst.epsilon) > above]
        if (not values or not flowkit.weight_feasible(inst, values[0])
                or not feasible_at(inst, values[0], pool)):
            return None
    low = values[0]  # zero, or found feasible

    def probe(T: LatticeValue) -> Optional[bool]:
        return T is low or feasible_at(inst, T, pool) or None

    if probe(values[-1]):
        return values[-1]
    top, _ = last_feasible(values[:-1],
                           lambda T: T is low or flowkit.weight_feasible(inst, T) or None)
    if probe(values[top]):
        return values[top]
    return values[last_feasible(values[:top], probe)[0]]


def minimalize(inst: Instance, res: ClpResult, T: LatticeValue) -> SupportSolution:
    """Split every positive column into its heavy restriction or keep the
    all-light column, then assert the covering/packing/shape properties."""
    if not res.feasible:
        raise ValueError("minimalize requires a feasible CLP result")
    eps = inst.epsilon
    k = k_of(T, eps)
    heavy: Dict[int, Dict[FrozenSet[int], float]] = {}
    light: Dict[int, Dict[FrozenSet[int], float]] = {}
    for col, mass in res.columns:
        hs = col.items & inst.heavy_ids
        if hs:
            bucket = heavy.setdefault(col.agent, {})
            bucket[hs] = bucket.get(hs, 0.0) + mass
        else:
            bucket = light.setdefault(col.agent, {})
            bucket[col.items] = bucket.get(col.items, 0.0) + mass
    sol = SupportSolution(k, heavy, light)
    _check_support(inst, sol)
    return sol


def _check_support(inst: Instance, sol: SupportSolution, tol: float = 1e-6):
    load = [0.0] * inst.m
    for i in range(inst.n):
        cover = 0.0
        for s, mass in sol.heavy.get(i, {}).items():
            if not (s <= inst.heavy_ids and len(s) >= 1 and s <= inst.interests[i]):
                raise AssertionError(f"bad heavy configuration {sorted(s)} for {i}")
            cover += mass
            for j in s:
                load[j] += mass
        for s, mass in sol.light.get(i, {}).items():
            if not (s <= inst.light_ids and len(s) >= sol.k and s <= inst.interests[i]):
                raise AssertionError(f"bad light configuration {sorted(s)} for {i}")
            cover += mass
            for j in s:
                load[j] += mass
        if cover < 1.0 - tol:
            raise AssertionError(f"covering constraint violated for agent {i}: {cover}")
    for j in range(inst.m):
        if load[j] > 1.0 + tol:
            raise AssertionError(f"packing constraint violated for item {j}: {load[j]}")


def build_support_hypergraph(sol: SupportSolution, r: int) -> SupportHypergraph:
    """Each agent's support heavy items; its light configurations, whose
    r-subsets the tree search enumerates lazily, become its light pools."""
    heavy = {i: tuple(sorted(set().union(*bucket))) for i, bucket in sol.heavy.items()}
    light: Dict[int, List[Tuple[int, ...]]] = {}
    for i, bucket in sol.light.items():
        for s in bucket:
            if len(s) < r:
                raise ValueError(f"light configuration smaller than r={r}")
            light.setdefault(i, []).append(tuple(sorted(s)))
    if not heavy and not light:
        raise AssertionError("empty support (covering constraint violated)")
    return SupportHypergraph(heavy, light)
