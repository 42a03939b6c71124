"""Layered local search with lazy updates; the step budget bounds the
running time.

Heavy edges never enter the layered structure; they live in the residual
digraph over heavy items and connect blocking light edges to addable
light edges via node-disjoint paths.  Layers hold blocked size-p addable
edges (X_i) and the size-r matching edges blocking them (Y_i); unblocked
addable edges collect in I.  The lowest layer with a blocker that reaches
an unblocked edge collapses, and collapsing layer 0 matches the root
agent.  All arithmetic is on integers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union

from .model import Allocation, Instance, lowest_free
from .flowkit import (
    HeavyMatching, PathFlow, ResidualDigraph, disjoint_paths, max_heavy_matching,
)
from .treesearch import (
    Baseline,
    Bundle,
    HEAVY_KIND,
    LIGHT_KIND,
    MATCHED,
    STALLED,
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    ProbeResult,
    SolveReport,
    matching_allocation,
    search_solve,
)


class LazyInvariantError(AssertionError):
    """A structural invariant of the layered search was violated."""


@dataclass(frozen=True)
class Params:
    r: int
    p: int

    def validate(self, k: int):
        if not 0 < self.r < self.p < k:
            raise ValueError(f"need 0 < r < p < k, got r={self.r} p={self.p} k={k}")


@dataclass(frozen=True)
class LightEdge:
    agent: int
    items: FrozenSet[int]


@dataclass
class LazyStats:
    iterations: int = 0
    collapses: int = 0
    layers_peak: int = 0


class LazyState:
    """Layers, the unblocked set I and the matching, for one root agent.

    `digraph` is the residual digraph of M's heavy matching, built over
    every agent and heavy item where none is given; its `agents` and
    `items` are the ones the search works on (after preprocess, the
    residue).  It is updated in place: _reverse_path, the only writer of
    heavy bundles, flips the arcs of the path it reverses, so one digraph
    serves every root of a probe (see _probe), and check_invariants
    compares it with a fresh build over the same agents and items.
    `flow` is the PathFlow that holds the digraph's network, or None:
    compute_W sets it, build_layer continues it, and it is released
    before any flip or comparison.
    """

    def __init__(self, inst: Instance, M: Dict[int, Bundle], i0: int,
                 params: Params, digraph: Optional[ResidualDigraph] = None):
        self.inst = inst
        self.M = M
        self.i0 = i0
        self.params = params
        # layer 0 holds the dummy blocking edge (i0, {}) and no X edges
        self.X: List[List[LightEdge]] = [[]]
        self.Y: List[Set[int]] = [{i0}]
        self.I: List[LightEdge] = []
        if digraph is None:
            digraph = ResidualDigraph(inst, self.heavy_matching())
        self.digraph = digraph
        self.flow: Optional[PathFlow] = None

    def release_flow(self):
        """Give the digraph's network back from the flow holding it."""
        if self.flow is not None:
            self.flow.release()
            self.flow = None

    # -- derived views ------------------------------------------------------

    def heavy_matching(self) -> HeavyMatching:
        """M's heavy bundles; a digraph reads only its own agents' ones."""
        return {
            a: next(iter(items)) for a, (kind, items) in self.M.items() if kind == HEAVY_KIND
        }

    def owner_light(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for a, (kind, items) in self.M.items():
            if kind == LIGHT_KIND:
                for j in items:
                    out[j] = a
        return out

    def tree_lights(self) -> Set[int]:
        items: Set[int] = set()
        for layer in self.X:
            for e in layer:
                items |= e.items
        for e in self.I:
            items |= e.items
        for yi in self.Y:
            for a in yi:
                if a in self.M:  # the layer-0 dummy carries no items
                    items |= self.M[a][1]
        return items

    def free_items_of(self, e: LightEdge, owner: Dict[int, int]) -> List[int]:
        return sorted(j for j in e.items if j not in owner)

    # -- invariants ---------------------------------------------------------

    def signature(self):
        """(|Y_1|, ..., |Y_l|, inf): a new layer or a smaller Y_i lowers it."""
        return tuple(len(yi) for yi in self.Y[1:]) + (math.inf,)

    def check_invariants(self):
        r, p = self.params.r, self.params.p
        owner = self.owner_light()
        # layers partition: Y_i is exactly the blocker set of X_i
        for i in range(1, len(self.Y)):
            blockers = {
                owner[j] for e in self.X[i] for j in e.items if j in owner
            }
            if blockers != self.Y[i]:
                raise LazyInvariantError(f"Y_{i} is not blocking(X_{i})")
        # counting bound: every blocked edge has >= p-r+1 blocked items
        x_total = y_total = 0
        for i in range(1, len(self.Y)):
            x_total += len(self.X[i])
            y_total += len(self.Y[i]) + (1 if i == 1 else 0)  # dummy in Y_<=t
            if (p - r + 1) * x_total > r * y_total:
                raise LazyInvariantError(f"counting bound fails at layer {i}")
        for e in self.I:
            if len(self.free_items_of(e, owner)) < r:
                raise LazyInvariantError("blocked edge in I")
        # Fact 1, from scratch: f(Y_<=t-1, X_<=t u I) >= |X_<=t|
        d = self.digraph
        g = ResidualDigraph(self.inst, self.heavy_matching(), d.agents, d.items)
        self.release_flow()
        if ((d.arcs, d.flow.head, d.flow.cap, d.flow.adj)
                != (g.arcs, g.flow.head, g.flow.cap, g.flow.adj)):
            raise LazyInvariantError("residual digraph is stale")
        for t in range(1, len(self.Y)):
            sources = set()
            for i in range(t):
                sources |= self.Y[i]
            sinks = {e.agent for i in range(1, t + 1) for e in self.X[i]}
            sinks |= {e.agent for e in self.I}
            pf = disjoint_paths(g, sources, sinks)
            pf.release()
            need = sum(len(self.X[i]) for i in range(1, t + 1))
            if pf.value < need:
                raise LazyInvariantError(
                    f"flow invariant fails at layer {t}: {pf.value} < {need}"
                )


# (remaining agents, remaining heavy items, forced agent -> heavy item,
# max heavy matching on the residue), all read-only
Preprocessed = Tuple[FrozenSet[int], FrozenSet[int], Mapping[int, int], Mapping[int, int]]


def preprocess(inst: Instance) -> Preprocessed:
    """Assign degree-1 heavy items to their unique agent, the smallest
    item first, cascading, then match the residue.  Returns (remaining
    agents, remaining heavy items, forced assignments, max heavy matching
    on the residue) as frozensets and read-only mappings, so poly_solve
    hands one result to all its probes and none can change it for the
    next.  A forced pick costs the degree of its agent."""
    forced: Dict[int, int] = {}
    wanted_by: Dict[int, Set[int]] = {j: set() for j in inst.heavy_ids}
    for i in range(inst.n):
        for j in inst.b1(i):
            wanted_by[j].add(i)
    # a heap of every item that has had degree 1; a degree only falls,
    # and a forced item's falls to 0
    ones = sorted(j for j, wanting in wanted_by.items() if len(wanting) == 1)
    while ones:
        j = heapq.heappop(ones)
        if len(wanted_by[j]) == 1:
            (i,) = wanted_by[j]
            forced[i] = j
            for j2 in inst.b1(i):
                wanted_by[j2].discard(i)
                if len(wanted_by[j2]) == 1:
                    heapq.heappush(ones, j2)
    agents = set(range(inst.n)).difference(forced)
    heavy = inst.heavy_ids.difference(forced.values())
    matching = max_heavy_matching(inst, agents, heavy)
    return (frozenset(agents), frozenset(heavy), MappingProxyType(forced),
            MappingProxyType(matching))


def build_layer(state: LazyState) -> Tuple[int, int]:
    """Scan for addable edges; returns (#added to I, #added to X_{l+1}).

    The scan continues state.flow, compute_W's flow from every blocker to
    I on the current matching: with the X agents added as sinks it is the
    flow the scan extends, and it stays held for the next compute_W.  The
    scan reads it only through would_increase and augment, which depend
    on the maximum-flow value, not on which maximum flow is held.  A new
    layer is appended only when some addable edge is blocked.

    One ascending pass over the agents suffices.  During the scan M and
    `owner` are fixed while the tree's items and the sink set only grow,
    so an agent with no p free lights keeps none.  The flow is maximum at
    every turn, and an augmenting path lies inside the set reachable from
    the sources, so the arcs it reverses add nothing to that set: the set
    only shrinks, and an agent that could not raise the flow at its turn
    cannot later.
    """
    r, p = state.params.r, state.params.p
    pf = state.flow
    for layer in state.X:
        for e in layer:
            pf.add_sink(e.agent)
    pf.augment_to_max()
    owner = state.owner_light()
    tree = state.tree_lights()
    new_x: List[LightEdge] = []
    added_i = 0
    for i in state.digraph.agents:
        if not pf.would_increase(i):
            continue
        fresh = lowest_free(state.inst.beps(i), tree, p)
        if fresh is None:
            continue
        e = LightEdge(i, frozenset(fresh))
        if len(state.free_items_of(e, owner)) >= r:
            state.I.append(e)
            added_i += 1
        else:
            new_x.append(e)
        pf.add_sink(i)
        if not pf.augment():
            raise LazyInvariantError("addable edge did not raise the flow")
        tree |= e.items
    if new_x:
        blockers = {owner[j] for e in new_x for j in e.items if j in owner}
        if not blockers:
            raise LazyInvariantError("blocked edges without blockers")
        state.X.append(new_x)
        state.Y.append(blockers)
    return added_i, len(new_x)


def compute_W(state: LazyState) -> Tuple[List[List[List[int]]], List[List[LightEdge]]]:
    """Layer-ordered flow F(Y_<=l, I), held as state.flow for build_layer
    to continue; returns per-layer paths W_i and the unblocked edges I_i
    they reach.  Each layer's sources join the maximum flow of the layers
    below it, so a path found for layer i starts in Y_i.

    A flow held where there is no X layer is the one build_layer leaves
    where it grew only I: its one source is i0 and its sinks are I's
    agents.  It is the maximum flow this call would build, path for path,
    and is read as it is.  Both networks have the same terminal edges,
    added in another order, but each node holds at most one of them, at
    the end of its adjacency list, so every node's list but T's, which no
    search expands, is the same.  S -> i0 is a single unit edge, so each
    flow is at most one path.  build_layer's path is the first it found,
    by a breadth-first search from S, with nothing pushed, to which the
    old I sinks were unreachable: the search this call makes first,
    labelling the same nodes in the same order and reaching T through
    the same sink.  Any other held flow is released and a fresh one built.
    """
    pf = state.flow
    if pf is None or len(state.Y) > 1:
        state.release_flow()
        pf = state.flow = PathFlow(state.digraph)
        for e in state.I:
            pf.add_sink(e.agent)
        prefix = []
        for yi in state.Y:
            for a in sorted(yi):
                pf.add_source(a)
            pf.augment_to_max()
            prefix.append(pf.value)
    else:
        prefix = [pf.value]
    layer_of = {a: i for i, yi in enumerate(state.Y) for a in yi}
    W: List[List[List[int]]] = [[] for _ in state.Y]
    for path in pf.paths():
        W[layer_of[path[0]]].append(path)
    total = 0
    for i, wi in enumerate(W):
        total += len(wi)
        if total != prefix[i]:
            raise LazyInvariantError("layered flow does not match prefix values")
    by_agent = {e.agent: e for e in state.I}
    I_layers = [[by_agent[path[-1]] for path in wi] for wi in W]
    return W, I_layers


def _reverse_path(state: LazyState, path: List[int]):
    """Reverse every heavy arc on the path [a0, j1, a1, ..., ak]: agent
    a_{t-1} takes heavy item j_t from agent a_t.  The digraph's arcs flip
    with M."""
    g = state.digraph
    for j, i in zip(path[1::2], path[2::2]):  # matched arcs j_t -> a_t
        if state.M.get(i) != (HEAVY_KIND, frozenset([j])):
            raise LazyInvariantError("path does not follow the matching")
        del state.M[i]
        g.flip(i, j)
    for i, j in zip(path[::2], path[1::2]):  # free arcs a_{t-1} -> j_t
        state.M[i] = (HEAVY_KIND, frozenset([j]))
        g.flip(i, j)


def collapse(state: LazyState, t: int, W: List[List[List[int]]],
             I_layers: List[List[LightEdge]]) -> bool:
    """Collapse layer t; True iff the root agent got matched (t = 0).

    Swaps each reached blocker for a fresh r-light edge carved out of the
    unblocked edge at the other end of its path, reversing the heavy arcs
    in between, then truncates the layers above t and re-admits any X_t
    edge the swaps unblocked.
    """
    r = state.params.r
    state.release_flow()
    owner_before = state.owner_light()
    heavy_before = sum(1 for kind, _ in state.M.values() if kind == HEAVY_KIND)
    swapped: Set[int] = set()
    for path, e2 in zip(W[t], I_layers[t]):
        u, v = path[0], path[-1]
        if e2.agent != v:
            raise LazyInvariantError("path endpoint does not own the I edge")
        free = state.free_items_of(e2, owner_before)
        if len(free) < r:
            raise LazyInvariantError("consumed edge is not unblocked")
        if t == 0:
            if u != state.i0 or u in state.M:
                raise LazyInvariantError("layer-0 source is not the root")
        else:
            del state.M[u]
            swapped.add(u)
        _reverse_path(state, path)
        state.M[v] = (LIGHT_KIND, frozenset(free[:r]))
    heavy_after = sum(1 for kind, _ in state.M.values() if kind == HEAVY_KIND)
    if heavy_after != heavy_before:
        raise LazyInvariantError("collapse changed the heavy-matching size")
    if t == 0:
        return True
    state.Y[t] -= swapped
    # Step-(2): keep only the unblocked edges reached below layer t
    kept = {e.agent for i in range(t) for e in I_layers[i]}
    state.I = [e for e in state.I if e.agent in kept]
    # Step-(3): drop the layers above, release newly unblocked X_t edges
    del state.X[t + 1 :]
    del state.Y[t + 1 :]
    owner = state.owner_light()
    released = [
        e for e in state.X[t] if len(state.free_items_of(e, owner)) >= r
    ]
    state.X[t] = [
        e for e in state.X[t] if len(state.free_items_of(e, owner)) < r
    ]
    state.Y[t] &= {owner[j] for e in state.X[t] for j in e.items if j in owner}
    # the swaps reversed heavy arcs, so the flow is built on the new matching
    sinks = [e.agent for layer in state.X for e in layer] + [e.agent for e in state.I]
    pf = disjoint_paths(state.digraph, [a for yi in state.Y for a in yi], sinks)
    for e in sorted(released, key=lambda e: e.agent):
        if pf.would_increase(e.agent):
            state.I.append(e)
            pf.add_sink(e.agent)
            if not pf.augment():
                raise LazyInvariantError("released edge did not raise the flow")
    pf.release()
    return False


def extend_matching_poly(
    inst: Instance,
    M: Dict[int, Bundle],
    i0: int,
    params: Params,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[LazyStats] = None,
    digraph: Optional[ResidualDigraph] = None,
) -> str:
    """Grow M so that i0 gets a heavy item or r light items.

    Alternates collapse and layer building; returns MATCHED, STALLED or
    BUDGET_EXCEEDED, the last after `budget` steps of this call (`stats`
    only adds up the calls it is passed to).  `digraph` is the residual
    digraph of M's heavy matching over the agents and heavy items the
    search may use (see LazyState), which the search updates in place and
    hands back with its network released.  The collapse rule is the analysis's with mu -> 0:
    collapse the lowest layer that reaches any unblocked edge.  The
    analysis collapses layer i once ceil(mu |Y_i|) of its blockers do,
    which is 1 for every |Y_i| < 1/mu.
    """
    if i0 in M:
        raise ValueError("root already matched")
    state = LazyState(inst, M, i0, params, digraph)
    stats = stats if stats is not None else LazyStats()
    matched_before = set(M)
    last_sig = None
    try:
        for _ in range(budget):
            stats.iterations += 1
            while True:
                W, I_layers = compute_W(state)
                t = next((i for i, reached in enumerate(I_layers) if reached), None)
                if t is not None:
                    stats.collapses += 1
                    if collapse(state, t, W, I_layers):
                        if not matched_before <= set(state.M):
                            raise LazyInvariantError("a matched agent lost its bundle")
                        return MATCHED
                    break
                added_i, added_x = build_layer(state)
                if added_x:
                    stats.layers_peak = max(stats.layers_peak, len(state.Y) - 1)
                    break
                if not added_i:
                    return STALLED
                # only I grew: no signature movement yet, retry the collapse
            state.check_invariants()
            sig = state.signature()
            if last_sig is not None and not sig < last_sig:
                raise LazyInvariantError(
                    f"signature did not decrease: {last_sig} -> {sig}"
                )
            last_sig = sig
        return BUDGET_EXCEEDED
    finally:
        state.release_flow()


def _poly_r(k: int) -> int:
    """max(ceil(k/9), ceil((k-10)/(3+2 sqrt 2)), 1) over integers.

    (k-10)/(3+2 sqrt 2) = (3 - sqrt 8) x for x = k-10, and sqrt(8x^2) is
    irrational for x > 0, so its ceiling is 3x - isqrt(8x^2); for k <= 10
    the term is at most 0 and the 1 wins.
    """
    x = max(k - 10, 0)
    return max(-(-k // 9), 3 * x - math.isqrt(8 * x * x), 1)


def _p_candidates(r: int, k: int) -> List[int]:
    """The two analyzed addable-edge sizes, 3r-1 and ceil((2+sqrt 2)r)-1,
    where they lie in (r, k).  For r >= 1, sqrt(2r^2) is irrational, so
    ceil((2+sqrt 2)r)-1 = 2r + isqrt(2r^2)."""
    out = []
    for p in (3 * r - 1, 2 * r + math.isqrt(2 * r * r)):
        if r < p < k and p not in out:
            out.append(p)
    return out


def _probe(inst: Instance, params: Params, budget: int,
           pre: Preprocessed) -> Tuple[str, Optional[Allocation], LazyStats]:
    """Match every agent at (r, p), starting from `pre`, preprocess(inst)."""
    agents, heavy, forced, matching = pre
    M: Dict[int, Bundle] = {
        i: (HEAVY_KIND, frozenset([j])) for i, j in matching.items()
    }
    stats = LazyStats()
    digraph = None  # one for every root, built for the first
    for i0 in sorted(agents):
        if i0 in M:
            continue
        if digraph is None:
            digraph = ResidualDigraph(inst, matching, agents, heavy)
        outcome = extend_matching_poly(inst, M, i0, params, budget, stats, digraph)
        if outcome != MATCHED:
            return outcome, None, stats
    for i, j in forced.items():
        M[i] = (HEAVY_KIND, frozenset([j]))
    return MATCHED, matching_allocation(M), stats


def poly_solve(
    inst: Instance,
    budget: int = DEFAULT_BUDGET,
    baseline: Optional[Baseline] = None,
) -> SolveReport:
    """Search on r = _poly_r(k) with the layered matcher, the top r asked
    first (search_solve, top_first); falls back to the 1/eps count
    baseline, which covers the k <= 9 regime.

    A k with no size p in (r, k) (k <= 2) has no r and is not searched.
    The probe at r tries the sizes p that are valid at its largest k, in
    _p_candidates' order, and fails as BUDGET_EXCEEDED where some size
    ran out of budget and none passed.  preprocess depends on the
    instance alone: it runs once per call, and every probe starts from
    its read-only result.
    """
    pre = preprocess(inst)

    def key(k: int) -> Optional[int]:
        r = _poly_r(k)
        return r if _p_candidates(r, k) else None

    def probe(r: int, k: int) -> Union[ProbeResult, str]:
        failed = STALLED  # BUDGET_EXCEEDED where some size ran out of budget
        for p in _p_candidates(r, k):
            params = Params(r, p)
            params.validate(k)
            outcome, alloc, stats = _probe(inst, params, budget, pre)
            if outcome == MATCHED:
                meta = {
                    "p": p,
                    "layers_peak": stats.layers_peak,
                    "collapses": stats.collapses,
                }
                return alloc, stats.iterations, meta
            if outcome == BUDGET_EXCEEDED:
                failed = outcome
        return failed

    return search_solve(inst, "poly", key, probe, baseline)
