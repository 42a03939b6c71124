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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, TypeVar

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
    pivots: int = 0  # simplex pivots over the call's restricted masters


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


Shape = Tuple[Tuple[int, ...], Tuple[int, ...], List[Tuple[int, int]]]
Price = TypeVar("Price")  # float, or an exact type such as Fraction


def _shape(inst: Instance, agent: int, T: LatticeValue) -> Shape:
    """Agent's heavy and light interests, ascending, and the minimal count
    pairs (`minimal_count_pairs`) between them; raises NoConfiguration
    when C(agent, T) is empty."""
    heavies, lights = inst.b1(agent), inst.beps(agent)
    pairs = minimal_count_pairs(T, inst.epsilon, len(heavies), len(lights))
    if not pairs:
        raise NoConfiguration(f"agent {agent} cannot reach T")
    return heavies, lights, pairs


def _shapes(inst: Instance, T: LatticeValue) -> List[Shape]:
    """`_shape` of every agent, built once for all of a master's pricing."""
    return [_shape(inst, i, T) for i in range(inst.n)]


def _cheapest(shape: Shape, z: Sequence[Price]) -> Tuple[Price, FrozenSet[int]]:
    """Cheapest configuration of the agent with this `_shape` under item
    prices z, in the prices' own arithmetic.

    For each minimal count pair, the optimum takes that many of the
    cheapest heavy and light prices (prices are non-negative, so extra
    items never help).  On a tie the pair with fewer heavies wins, and
    equal prices go by item id.  Float sums within 1e-15 of each other
    count as tied, since they may differ by rounding only; exact prices
    (`Fraction`) compare exactly.
    """
    heavies, lights, pairs = shape
    # b1 and beps ascend and sorted is stable, so equal prices stay by index
    heavies = sorted(heavies, key=z.__getitem__)
    lights = sorted(lights, key=z.__getitem__)
    zero = z[0] * 0 if len(z) else 0.0
    slack = 1e-15 if isinstance(zero, float) else 0
    hcost = list(accumulate(map(z.__getitem__, heavies), initial=zero))
    lcost = list(accumulate(map(z.__getitem__, lights), initial=zero))
    best = None
    for h, l in pairs:
        cost = hcost[h] + lcost[l]
        if best is None or cost < best[0] - slack:
            best = (cost, h, l)
    cost, h, l = best
    return cost, frozenset(heavies[:h] + lights[:l])


def separate(
    inst: Instance,
    agent: int,
    T: LatticeValue,
    z: Sequence[Price],
) -> Tuple[Price, FrozenSet[int]]:
    """Cheapest configuration of agent under item prices z, exactly, and
    its cost in the prices' own type (see `_cheapest`).  Raises
    NoConfiguration when C(agent, T) is empty."""
    return _cheapest(_shape(inst, agent, T), z)


def _starting_columns(inst: Instance, shapes: List[Shape]) -> List[Column]:
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
    fewer rounds.  The first pass gives one column per agent, in agent
    order, and these n columns open the list; `_crash_basis` starts the
    master from them.  `shapes` is `_shapes(inst, T)`.
    """
    n, m = inst.n, inst.m
    price = [1.0] * m
    cols: List[Column] = []
    seen: Set[Column] = set()
    while len(cols) < n + m:
        before = len(cols)
        for i in range(n):
            _, s = _cheapest(shapes[i], price)
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


def _crash_basis(hold: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The master's start basis from the seed's first pass, one column per
    agent, and its matrix [B^-1 | x_B ; y | z] for `simplex.Master.start`.

    `hold` is the item rows of those n columns, m x n: hold[j, i] is 1
    when agent i's column holds item j.  The basic variables are lambda
    (label 0), column i + 1 of agent i in agent row i, and the slack of
    every item row but that of the most-loaded item r (the most
    first-pass columns hold it, lowest id on a tie), where lambda sits.
    With L = load(r) and l the vector that is 1/L on item row r and on
    the agent rows whose column holds r, the inverse has a closed form:
    the lambda row is l, the row of agent i's column is l - e_i, and the
    row of item j's slack is e_(n+j) + sum_{i: j in S_i} e_i - load(j) l.
    Then every column takes lambda = 1/L, item j's slack is
    1 - load(j)/L >= 0, so the basis is primal feasible, and y = l,
    z = 1/L.  Every column holds an item, as T > 0, so L >= 1.
    """
    m, n = hold.shape
    load = hold.sum(axis=1)
    r = int(load.argmax())
    ell = np.zeros(n + m)
    ell[:n] = hold[r] / load[r]
    ell[n + r] = 1.0 / load[r]
    inv = np.empty((n + m + 1, n + m + 1))
    inv[:n, : n + m] = ell
    np.multiply.outer(-load, ell, out=inv[n : n + m, : n + m])
    inv[n : n + m, :n] += hold
    diag = np.arange(n + m)
    inv[diag, diag] += np.where(diag < n, -1.0, 1.0)  # - e_i, + e_(n+j)
    inv[:n, n + m] = ell[n + r]
    inv[n : n + m, n + m] = 1.0 - load * ell[n + r]
    inv[n + r, : n + m] = ell
    inv[n + r, n + m] = ell[n + r]
    inv[n + m, : n + m] = ell
    inv[n + m, n + m] = ell[n + r]
    basis = np.concatenate([np.arange(1, n + 1), -1 - np.arange(n, n + m)])
    basis[n + r] = 0
    return basis, inv


def _block(n: int, m: int, cols: Sequence[Column]) -> np.ndarray:
    """Master columns of `cols`: -1 in the agent's row, 1 in each item's."""
    block = np.zeros((n + m, len(cols)))
    block[[col.agent for col in cols], range(len(cols))] = -1.0
    block[[n + j for col in cols for j in col.items],
          [idx for idx, col in enumerate(cols) for _ in col.items]] = 1.0
    return block


def solve_clp(
    inst: Instance,
    T: LatticeValue,
    pool: Optional[Set[Column]] = None,
) -> ClpResult:
    """Column generation on the max-lambda master; feasible iff lambda* >= 1-DEFAULT_TOL.

    The first master holds the congestion-priced seed of
    `_starting_columns` and the valid columns of `pool`, and starts from
    the crash basis of `_crash_basis`, not from the slack basis.  Each
    column is a configuration in some C(i, T), and pricing adds every
    column the duals ask for, so which columns and basis the master starts
    from changes only the number of rounds and pivots, never the optimum
    lambda* it converges to.  Pricing stops at the first restricted master
    that reaches 1-DEFAULT_TOL, which already shows CLP(T) feasible: the
    result is reported converged and feasible, and `lambda_star` is then a
    lower bound on the optimum.
    """
    eps = inst.epsilon
    if T.key(eps) <= 0:
        return ClpResult(1.0, True, True, [])
    try:
        shapes = _shapes(inst, T)
    except NoConfiguration:
        return ClpResult(0.0, False, True, [])
    columns = _starting_columns(inst, shapes)
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
    block = _block(n, m, columns)
    master.add(block, np.zeros(len(columns)))
    master.start(*_crash_basis(block[n:, :n]))
    lam = 0.0
    x = np.zeros(0)
    converged = False
    for _ in range(MAX_ROUNDS):
        sol, _, duals = simplex.solve(master)
        lam, x = sol[0], sol[1:]
        if lam >= 1.0 - DEFAULT_TOL:
            converged = True
            break
        y = duals[:n].tolist()
        z = duals[n:].tolist()
        new = []
        for i in range(n):
            cost, s = _cheapest(shapes[i], z)
            if y[i] - cost > PRICE_TOL:
                col = Column(i, s)
                if col not in seen:
                    new.append(col)
                    seen.add(col)
        if not new:
            converged = True
            break
        columns.extend(new)
        master.add(_block(n, m, new), np.zeros(len(new)))
    if pool is not None:
        pool.update(seen)

    positive = [
        (columns[idx], float(x[idx]))
        for idx in range(len(columns))
        if idx < len(x) and x[idx] > 1e-12
    ]
    return ClpResult(float(lam), lam >= 1.0 - DEFAULT_TOL, converged, positive,
                     master.pivots)


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
