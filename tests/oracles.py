"""Independent oracles used to pin down solver results.

Everything here is deliberately naive: plain enumeration over Fractions,
or for milp_opt an integer program handed to an off-the-shelf solver,
sharing no code paths with the package under test.
"""

from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from maxminalloc import flowkit
from maxminalloc.model import HEAVY, Instance, ZERO, last_feasible, min_value
from maxminalloc.treesearch import HEAVY_KIND, LIGHT_KIND


def item_weight(inst: Instance, j: int) -> Fraction:
    if inst.items[j].kind == HEAVY:
        return Fraction(1)
    return Fraction(inst.epsilon.numerator, inst.epsilon.denominator)


def bundle_weight(inst: Instance, items) -> Fraction:
    return sum((item_weight(inst, j) for j in items), Fraction(0))


def naive_opt(inst: Instance) -> Fraction:
    """Max over all assignments (item -> agent or unassigned) of the min
    agent value.  Exponential; keep n*m tiny."""
    best = Fraction(0)
    values = [Fraction(0)] * inst.n

    def go(j: int):
        nonlocal best
        if j == inst.m:
            best = max(best, min(values))
            return
        go(j + 1)  # leave item j unassigned
        for i in range(inst.n):
            if j in inst.interests[i]:
                values[i] += item_weight(inst, j)
                go(j + 1)
                values[i] -= item_weight(inst, j)

    go(0)
    return best


def milp_opt(inst: Instance) -> Fraction:
    """OPT for instances too large for naive_opt (n up to about 16, m up
    to about 22), by an integer program that HiGHS solves through
    scipy.optimize.milp: maximize t with every agent's bundle worth at
    least t and every item given at most once.  Weights are in units of
    1/q (heavy q, light p, eps = p/q), so t is an integer; the allocation
    read back from the solution must be worth exactly t."""
    from scipy.optimize import LinearConstraint, milp

    p, q = inst.epsilon.numerator, inst.epsilon.denominator
    pairs = [(i, j) for i in range(inst.n) for j in sorted(inst.interests[i])]
    weight = [q if inst.items[j].kind == HEAVY else p for _, j in pairs]
    agent_rows = np.zeros((inst.n, len(pairs) + 1))
    item_rows = np.zeros((inst.m, len(pairs) + 1))
    for col, (i, j) in enumerate(pairs):
        agent_rows[i, col] = weight[col]
        item_rows[j, col] = 1
    agent_rows[:, -1] = -1  # the bundle of agent i minus t
    cost = np.zeros(len(pairs) + 1)
    cost[-1] = -1
    res = milp(cost, integrality=np.ones(len(pairs) + 1),
               bounds=(0, [1] * len(pairs) + [np.inf]),
               constraints=[LinearConstraint(agent_rows, 0, np.inf),
                            LinearConstraint(item_rows, 0, 1)],
               options={"mip_rel_gap": 0})
    assert res.success, res.message
    t = round(res.x[-1])
    got = [0] * inst.n
    for col, (i, j) in enumerate(pairs):
        got[i] += weight[col] * round(res.x[col])
    assert min(got) == t, (got, t)
    return Fraction(t, q)


def brute_heavy_matching(inst: Instance) -> int:
    """Max agent/heavy-item matching size by exhaustive search."""
    heavy = sorted(inst.heavy_ids)

    def go(i: int, used: Set[int]) -> int:
        if i == inst.n:
            return 0
        best = go(i + 1, used)
        for j in heavy:
            if j not in used and j in inst.interests[i]:
                used.add(j)
                best = max(best, 1 + go(i + 1, used))
                used.remove(j)
        return best

    return go(0, set())


def brute_count_feasible(inst: Instance, t: int) -> bool:
    """Can every agent receive t interested items, all disjoint?"""

    def go(i: int, used: Set[int]) -> bool:
        if i == inst.n:
            return True
        pool = sorted(inst.interests[i] - used)
        for combo in combinations(pool, t):
            used.update(combo)
            if go(i + 1, used):
                used.difference_update(combo)
                return True
            used.difference_update(combo)
        return False

    return go(0, set())


def cold_count_baseline(inst: Instance, counts: Optional[Sequence[int]] = None):
    """The count baseline by a cold binary search: (value, allocation).

    Unlike the oracles above it runs the package's own count network, as
    flowkit.baseline_solve once did: last_feasible over `counts` (by
    default 1..min(min_i |I_i|, |wanted items| // n)), one fresh
    allocation_flow per probe, and the allocation read from the last
    passing probe's flow.  Which maximum flow a network yields depends on
    how it is solved, so only this search pins the allocation itself.
    """
    n = inst.n
    if counts is None:
        wanted = frozenset().union(*inst.interests)
        counts = range(1, min(min(map(len, inst.interests)), len(wanted) // n) + 1)

    def probe(t: int):
        fl, value = flowkit.allocation_flow(inst, t, [1] * inst.m)
        return fl if value == n * t else None

    _, fl = last_feasible(counts, probe)
    if fl is None:
        return ZERO, {i: frozenset() for i in range(n)}
    alloc = {i: frozenset(v - n for v in fl.carrying(i)) for i in range(n)}
    return min_value(inst, alloc), alloc


def allocation_digraph(inst: Instance, supply: int, caps: Sequence[int]):
    """The allocation network as a networkx digraph: "s" -> ("a", i) with
    capacity `supply`, ("a", i) -> ("b", j) for every item i wants and
    ("b", j) -> "t" with capacity caps[j]."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for i in range(inst.n):
        g.add_edge("s", ("a", i), capacity=supply)
        for j in inst.interests[i]:
            g.add_edge(("a", i), ("b", j), capacity=caps[j])
    for j in range(inst.m):
        g.add_edge(("b", j), "t", capacity=caps[j])
    return g


def networkx_weight_feasible(inst: Instance, key: int) -> bool:
    """Whether the allocation network at T = key / eps.denominator saturates,
    by networkx max-flow: supply key, item j capped at min(its weight, key),
    all in units of 1 / eps.denominator."""
    import networkx as nx

    p, q = inst.epsilon.numerator, inst.epsilon.denominator
    caps = [min(q if it.kind == HEAVY else p, key) for it in inst.items]
    return nx.maximum_flow_value(allocation_digraph(inst, key, caps), "s", "t") == inst.n * key


def residual_arcs(inst: Instance, matching: Dict[int, int]) -> List[Tuple[tuple, tuple]]:
    """Arcs of the residual digraph of a heavy matching, on labelled nodes
    ("agent", i) and ("item", j): item -> agent along a matched pair, agent
    -> heavy item for every other heavy item the agent likes."""
    arcs = []
    for i in range(inst.n):
        for j in sorted(inst.interests[i]):
            if inst.items[j].kind != HEAVY:
                continue
            if matching.get(i) == j:
                arcs.append((("item", j), ("agent", i)))
            else:
                arcs.append((("agent", i), ("item", j)))
    return arcs


def brute_disjoint_paths(
    inst: Instance,
    matching: Dict[int, int],
    sources: Sequence[int],
    sinks: Sequence[int],
) -> int:
    """Max number of node-disjoint paths from agent sources to agent sinks
    in the residual digraph of `matching`."""
    succ: Dict[tuple, List[tuple]] = {}
    for u, v in residual_arcs(inst, matching):
        succ.setdefault(u, []).append(v)
    sink_set = {("agent", t) for t in sinks}

    def paths_from(start, banned: Set[object]):
        # all simple paths from start avoiding banned nodes
        out = []
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            if node in sink_set:
                out.append(path)
                # a sink may also continue, but stopping here is enough:
                # longer paths only ban more nodes
            for nxt in succ.get(node, ()):
                if nxt not in banned and nxt not in path:
                    stack.append((nxt, path + [nxt]))
        return out

    srcs = sorted(set(sources))

    def go(idx: int, banned: Set[object]) -> int:
        if idx == len(srcs):
            return 0
        best = go(idx + 1, banned)  # skip this source
        start = ("agent", srcs[idx])
        if start not in banned:
            for path in paths_from(start, banned):
                best = max(best, 1 + go(idx + 1, banned | set(path)))
        return best

    return go(0, set())


def brute_min_knapsack(
    inst: Instance, agent: int, T: Fraction, z: Sequence[float]
) -> Optional[float]:
    """Min sum of z over all bundles of weight >= T; None if no bundle."""
    pool = sorted(inst.interests[agent])
    best = None
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            if bundle_weight(inst, combo) >= T:
                cost = sum(z[j] for j in combo)
                if best is None or cost < best:
                    best = cost
    return best


def brute_candidates(state) -> List[Tuple[int, Tuple[int, ...], str, int]]:
    """Every tree agent's candidates as (agent, ascending items, kind,
    dist), agents ascending and heavy first, recomputed from the tree's
    table, items and owners: the lowest free heavy item that M does not
    hold, else the lowest free one, and over the light pools with r free
    items, of the r-sets of them with the fewest items M holds, the
    lexicographically smallest."""
    out = []
    for i in sorted({state.i0} | set(state.blockers)):
        dist = 0 if i == state.i0 else state.blockers[i].dist
        heavy = sorted(set(state.table.heavy.get(i, ())) - state.tree_items,
                       key=lambda j: (j in state.owner, j))
        if heavy:
            out.append((i, tuple(heavy[:1]), HEAVY_KIND, dist))
        picks = []
        for pool in state.table.light.get(i, ()):
            free = sorted(set(pool) - state.tree_items)
            if len(free) >= state.r:
                unowned = [j for j in free if j not in state.owner]
                owned = [j for j in free if j in state.owner]
                short = max(state.r - len(unowned), 0)
                picks.append((short, tuple(sorted(unowned[:state.r] + owned[:short]))))
        if picks:
            out.append((i, min(picks)[1], LIGHT_KIND, dist + 1))
    return out


def brute_signature(state) -> tuple:
    """The tree's signature from its definition: for every distance d up
    to the largest that an edge or a blocker's layer reaches, minus the
    addable edges at d, then the blockers in layer d: the heavy blockers
    at d (d even) or the light blockers at d+1 (d odd).  It ends in
    infinity, so a longer tree compares lower."""
    dists = [e.dist for e in state.edges] + [
        b.dist if b.kind == HEAVY_KIND else b.dist - 1 for b in state.blockers.values()]
    coords = []
    for d in range(max(dists, default=0) + 1):
        coords.append(-sum(1 for e in state.edges if e.dist == d))
        if d % 2 == 0:
            coords.append(sum(1 for b in state.blockers.values()
                              if b.dist == d and b.kind == HEAVY_KIND))
        else:
            coords.append(sum(1 for b in state.blockers.values()
                              if b.dist == d + 1 and b.kind == LIGHT_KIND))
    return tuple(coords) + (float("inf"),)


def midpoint_first(values: Sequence, probe) -> Tuple[int, Optional[object]]:
    """The last value a probe passes, by a search that asks the midpoint, then the top.

    Asks values[(len - 1) // 2] first and binary-searches below it if it
    fails.  If it passes, asks the last value and answers with it if that
    passes too; otherwise binary-searches the values above the midpoint
    (mid = (lo + hi) // 2, the top included and answered from the first
    ask).  No value is asked twice.  Returns (index, payload), or
    (-1, None) when nothing passes.
    """
    answers: Dict[int, Optional[object]] = {}

    def ask(i: int) -> Optional[object]:
        if i not in answers:
            answers[i] = probe(values[i])
        return answers[i]

    def search(lo: int, hi: int, found: Tuple[int, Optional[object]]):
        while lo <= hi:
            mid = (lo + hi) // 2
            if ask(mid) is not None:
                found, lo = (mid, answers[mid]), mid + 1
            else:
                hi = mid - 1
        return found

    top = len(values) - 1
    mid = top // 2
    if not values or ask(mid) is None:
        return search(0, mid - 1, (-1, None))
    if ask(top) is not None:
        return top, answers[top]
    return search(mid + 1, top, (mid, answers[mid]))
