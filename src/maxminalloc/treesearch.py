"""Alternating-tree local search over heavy edges and r-light edges.

Grows a tree of addable edges and the matching edges that block them,
rooted at an unmatched agent; an unblocked addable edge triggers a
contraction that swaps it into the matching.  Each step takes an
unblocked edge of any tree agent when there is one (collapse early, as
Polacek-Svensson do), and otherwise grows the tree by an edge closest to
the root (least light-edge distance), which bounds how many layers the
tree holds and so the search quasi-polynomially.  A contraction cuts the
tree by layer (see contract), which makes the layered signature fall on
every step whatever the pick.  quasi_solve and gap3_certify run this one
search; addable edges are drawn from one per-agent table of ascending
item lists: the full interest sets, or a CLP support hypergraph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .model import (
    Allocation,
    Epsilon,
    Instance,
    LatticeValue,
    k_of,
    last_feasible,
    lattice_values,
    min_value,
)
from . import flowkit
from .clp import ClpResult, SupportHypergraph, build_support_hypergraph, minimalize

MATCHED = "matched"
STALLED = "stalled"
BUDGET_EXCEEDED = "budget"

DEFAULT_BUDGET = 10**6

HEAVY_KIND = "H"
LIGHT_KIND = "L"

Bundle = Tuple[str, FrozenSet[int]]


class Matching:
    """The matching M both local searches extend: `bundles` maps an agent
    to its (kind, items), `owner` an item to the agent holding it.

    give and drop are the only writers of either dict, so `owner` is
    always the inverse of `bundles`."""

    def __init__(self, bundles: Optional[Dict[int, Bundle]] = None):
        self.bundles: Dict[int, Bundle] = {}
        self.owner: Dict[int, int] = {}
        for agent, (kind, items) in (bundles or {}).items():
            self.give(agent, kind, items)

    def give(self, agent: int, kind: str, items: Iterable[int]):
        """Set agent's bundle, replacing any it held; raises ValueError,
        changing nothing, if another agent holds one of the items."""
        items = frozenset(items)
        owner = self.owner
        for j in items:
            if owner.get(j, agent) != agent:
                raise ValueError(f"item {j} of agent {agent}'s bundle is held by {owner[j]}")
        if agent in self.bundles:
            self.drop(agent)
        self.bundles[agent] = (kind, items)
        for j in items:
            owner[j] = agent

    def drop(self, agent: int):
        """Unmatch agent; KeyError if it holds no bundle."""
        for j in self.bundles.pop(agent)[1]:
            del self.owner[j]

    def holders(self, items: Iterable[int]) -> Set[int]:
        """The agents that hold some of the items."""
        owner = self.owner
        return {owner[j] for j in items if j in owner}

    def free(self, items: Iterable[int]) -> List[int]:
        """The items no agent holds, ascending."""
        return sorted(j for j in items if j not in self.owner)

    def heavy(self) -> Dict[int, int]:
        """agent -> heavy item, over the heavy bundles."""
        return {a: next(iter(items))
                for a, (kind, items) in self.bundles.items() if kind == HEAVY_KIND}

    def allocation(self) -> Allocation:
        return {a: items for a, (kind, items) in self.bundles.items()}


class TreeInvariantError(AssertionError):
    """A structural invariant of the alternating tree was violated."""


class CertificationError(RuntimeError):
    """The support matcher stalled despite a feasible CLP point."""


@dataclass
class AddEdge:
    agent: int
    items: FrozenSet[int]
    kind: str
    dist: int
    blockers: Set[int] = field(default_factory=set)  # live blocking-edge owners


@dataclass
class BlockEdge:
    agent: int  # owner of the blocking matching edge
    kind: str
    dist: int
    layer: int  # dist of the addable edge it blocks: dist if heavy, dist - 1 if light


@dataclass
class Candidate:
    agent: int
    items: Tuple[int, ...]  # ascending, so find_addable compares them as they are
    kind: str
    dist: int


class TreeState:
    """The alternating tree of one extend_matching call.

    Keeps each tree agent's candidates between steps: a free heavy item,
    and over its light pools the best r free lights.  A bundle is filled
    with the lowest free items M does not hold first, then with the
    lowest held ones, so an agent that has an unblocked edge has an
    unblocked candidate; a light pool's pick is ranked by (number of held
    items, items).  The candidates sit in one heap keyed (blocked, dist,
    agent, items), the order find_addable picks by, with blocked true
    where M holds one of the items.  M changes only in contract,
    which calls rebuild_items, so a candidate stays unblocked or blocked
    while it is cached.  The cache is exact:
    - between contractions tree_items only grows, so a pool's free items
      only go; its pick keeps its answer while the items taken miss it
      (None stays None);
    - taking items can only raise a pool's pick under its ranking: the
      held count can only rise, and at an equal count each of the sorted
      items can only rise.  So the best light pick stays best until one
      of its own items is taken.  (Under plain lexicographic order it
      would not: pool [1 (held), 5, 6] at r = 2 picks (5, 6), and after
      6 is taken it falls to (1, 5).)
    - an agent's dist is fixed while it stays in the tree.
    take() grows tree_items and drops the candidates that use an item it
    adds, found through an item -> agents index; rebuild_items, the only
    other writer of tree_items, clears the whole cache and the heap.
    An agent whose candidates were dropped, and a new tree agent, is
    marked stale; the next pick finds its candidates and pushes them.  A
    heap entry whose candidate is no longer cached is popped when it
    surfaces.

    It also keeps the signature's coordinates (see signature), which
    add_edge and contract update; check_structure recounts them.
    """

    def __init__(self, M: Matching, i0: int, r: int, table: SupportHypergraph):
        self.M = M
        self.i0 = i0
        self.r = r
        self.table = table
        self.edges: List[AddEdge] = []       # addable edges, in the order added
        self.blockers: Dict[int, BlockEdge] = {}  # owner agent -> blocking edge
        self.tree_items: Set[int] = set()
        self.last_signature = None
        self._cands: Dict[int, List[Candidate]] = {}  # agent -> its candidates
        self._users: Dict[int, List[int]] = {}  # item -> agents whose candidates use it
        self._stale: Set[int] = {i0}  # tree agents whose candidates are not cached
        # (blocked, dist, agent, items, candidate): a (dist, agent) pair
        # fixes the kind, so entries that tie on the key hold equal
        # candidates and the heap never has to order two Candidates
        self._heap: List[Tuple[bool, int, int, Tuple[int, ...], Candidate]] = []
        # coords[2d] is minus the addable edges at distance d, coords[2d + 1]
        # the blockers in layer d; trailing zero pairs are allowed
        self._coords: List[int] = [0, 0]

    # -- structure helpers -----------------------------------------------

    def agents_in_tree(self) -> List[int]:
        return sorted({self.i0} | set(self.blockers))

    def dist_of_agent(self, i: int) -> int:
        return 0 if i == self.i0 else self.blockers[i].dist

    def take(self, items: FrozenSet[int]):
        """Add items to the tree, dropping the cached candidates they hit."""
        self.tree_items |= items
        for j in items:
            for a in self._users.pop(j, ()):
                if self._cands.pop(a, None) is not None:
                    self._stale.add(a)

    def rebuild_items(self):
        items: Set[int] = set()
        for e in self.edges:
            items |= e.items
        for a in self.blockers:
            items |= self.M.bundles[a][1]
        self.tree_items = items
        self._cands.clear()
        self._users.clear()
        self._heap.clear()
        self._stale = {self.i0} | set(self.blockers)

    # -- signatures --------------------------------------------------------

    def signature(self):
        """(-A_0, B_0, -A_1, B_1, ..., inf), with A_d the addable edges at
        dist d and B_d the blockers in layer d, up to the last d either
        reaches (see contract), read from the kept counts."""
        return _trimmed(self._coords)

    def check_signature_decreased(self):
        sig = self.signature()
        if self.last_signature is not None and not sig < self.last_signature:
            raise TreeInvariantError(
                f"signature did not decrease: {self.last_signature} -> {sig}"
            )
        self.last_signature = sig

    def check_structure(self):
        """Distance parity, blocker-kind and membership invariants, and the
        signature counts against a recount made on the same walk."""
        M, blockers = self.M.bundles, self.blockers
        coords = [0] * len(self._coords)  # an element past the counts is a mismatch
        try:
            for b in blockers.values():
                if b.dist % 2 == 1:
                    raise TreeInvariantError("blocking edge at odd distance")
                if b.agent not in M:
                    raise TreeInvariantError("blocker is not a matching edge")
                coords[2 * b.layer + 1] += 1
            for e in self.edges:
                if e.kind == HEAVY_KIND:
                    if e.dist % 2 == 1:
                        raise TreeInvariantError("heavy addable edge at odd distance")
                    if len(e.blockers) > 1:
                        raise TreeInvariantError("heavy edge with more than one blocker")
                elif e.dist % 2 == 0:
                    raise TreeInvariantError("light addable edge at even distance")
                if e.agent != self.i0 and e.agent not in blockers:
                    raise TreeInvariantError("addable edge of an agent outside the tree")
                for a in e.blockers:
                    if a not in blockers:
                        raise TreeInvariantError("addable edge lists a blocker outside the tree")
                    if M[a][0] != e.kind:
                        raise TreeInvariantError("blocker kind mismatch")
                coords[2 * e.dist] -= 1
        except IndexError:
            coords = None
        if coords != self._coords:
            raise TreeInvariantError(
                f"signature counts {self._coords} differ from the tree's recount {coords}"
            )

    # -- candidate enumeration ----------------------------------------------

    def _refresh(self):
        """Find and push the candidates of every stale tree agent."""
        held = self.M.owner.keys()
        for i in self._stale:
            cands = self._cands[i] = self._find_candidates(i)
            for c in cands:
                blocked = not held.isdisjoint(c.items)
                heapq.heappush(self._heap, (blocked, c.dist, c.agent, c.items, c))
        self._stale.clear()

    def candidates(self) -> List[Candidate]:
        """Every tree agent's candidates, agents ascending, heavy first.

        An agent's candidates come from the cache while no item in them
        has entered the tree since they were found (see TreeState).
        """
        self._refresh()
        return [c for i in self.agents_in_tree() for c in self._cands[i]]

    def pick(self) -> Optional[Candidate]:
        """The least cached candidate under (blocked, dist, agent, items),
        so an unblocked one where there is one; None if none is cached."""
        self._refresh()
        heap, cands = self._heap, self._cands
        while heap:  # pop the entries of candidates no longer cached
            c = heap[0][-1]
            live = cands.get(c.agent)  # at most two candidates
            if live and (live[0] is c or live[-1] is c):
                return c
            heapq.heappop(heap)
        return None

    def _fill(self, items: Sequence[int], count: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """(owned, picked): `count` free entries of ascending `items`, the
        lowest ones M does not hold and then as many of the lowest held
        ones as are still short, sorted, with `owned` the number of held
        ones; None when fewer than `count` are free."""
        taken, owner = self.tree_items, self.M.owner
        fresh: List[int] = []
        owned: List[int] = []
        for j in items:
            if j in taken:
                continue
            if j not in owner:
                fresh.append(j)
                if len(fresh) == count:
                    return 0, tuple(fresh)
            elif len(owned) < count:
                owned.append(j)
        short = count - len(fresh)
        if short > len(owned):
            return None
        return short, tuple(sorted(fresh + owned[:short]))

    def _find_candidates(self, i: int) -> List[Candidate]:
        # unowned items first, so an agent with an unblocked edge has an
        # unblocked candidate; then the lowest ids, which find_addable
        # breaks ties by
        base = self.dist_of_agent(i)
        out: List[Candidate] = []
        heavy = self._fill(self.table.heavy.get(i, ()), 1)
        if heavy is not None:
            out.append(Candidate(i, heavy[1], HEAVY_KIND, base))
        light = min(filter(None, (self._fill(pool, self.r)
                                  for pool in self.table.light.get(i, ()))), default=None)
        if light is not None:
            out.append(Candidate(i, light[1], LIGHT_KIND, base + 1))
        for c in out:
            for j in c.items:
                self._users.setdefault(j, []).append(i)
        return out


def _trimmed(coords: List[int]) -> tuple:
    """Signature coordinates without trailing zero pairs, ending in inf."""
    n = len(coords)
    while n > 2 and not coords[n - 1] and not coords[n - 2]:
        n -= 2
    return tuple(coords[:n]) + (math.inf,)


def find_addable(state: TreeState) -> Optional[Candidate]:
    """An unblocked candidate if there is one, else the candidate closest to
    the root; either way the least under (dist, agent, items).

    Taking an unblocked edge at any distance ends the step in a
    contraction, which only cuts the tree (see contract).  A grow step
    keeps the closest edge: the bound on how many layers a tree holds,
    behind the quasi-polynomial running time of Asadpour-Feige-Saberi
    and Polacek-Svensson, rests on each grow step taking an edge no
    farther from the root than any other addable one.
    """
    return state.pick()


def add_edge(state: TreeState, cand: Candidate, blocking: Set[int]) -> AddEdge:
    """Grow the tree by cand, blocked by `blocking`, the owners of its items
    (state.M.holders(cand.items), which the caller has at hand)."""
    if not state.tree_items.isdisjoint(cand.items):
        raise TreeInvariantError("edge items collide with the tree")
    e = AddEdge(cand.agent, frozenset(cand.items), cand.kind, cand.dist, set(blocking))
    state.edges.append(e)
    # the edge counts at 2 * dist, its new blockers (layer dist) at 2 * dist + 1
    coords = state._coords
    while len(coords) <= 2 * e.dist:
        coords += [0, 0]
    coords[2 * e.dist] -= 1
    state.take(e.items)
    bdist = cand.dist + (1 if cand.kind == LIGHT_KIND else 0)
    for a in sorted(blocking):
        if a not in state.blockers:
            state.blockers[a] = BlockEdge(a, state.M.bundles[a][0], bdist, cand.dist)
            coords[2 * e.dist + 1] += 1
            state._stale.add(a)
            state.take(state.M.bundles[a][1])
    return e


def contract(state: TreeState, cand: Candidate) -> bool:
    """Swap the unblocked edge into the matching; True iff the root got matched.

    The blocker f that held cand's agent gives way to cand.  With L the
    layer of f (the dist of the edge it blocks), the tree keeps every other blocker of
    layer <= L and every edge of dist <= L whose agent is the root or a
    kept blocker, and cuts the rest.  f leaves the blocker set of the one
    edge that lists it (a new edge's items miss the tree, so each blocker
    is listed by the edge that brought it in); if that set empties, the
    edge is unblocked and the loop goes on with it.

    Why signature() falls.  It is (-A_0, B_0, -A_1, B_1, ..., inf), with
    A_d the edges at dist d and B_d the blockers in layer d: the layered
    signature of Polacek-Svensson (ICALP 2012).
    - A grow step adds an edge at some dist d and its new blockers in
      layer d, so it lowers -A_d and keeps every coordinate before it.
    - A heavy edge has one blocker, so contracting a heavy blocker always
      empties its edge: a cascade ends at the root (the search is over)
      or at a light blocker f of odd layer L and dist L + 1.  The dists
      of the blockers a cascade contracts never rise, since an emptied
      edge's agent is no farther than the edge.  So every blocker it
      contracted has dist > L, and every edge it emptied has dist > L (one
      at dist L would have handed on to an agent at dist L - 1, nearer
      than f).  An edge at dist d <= L belongs to the root or to a blocker
      of layer <= d that was not contracted, so the cut keeps -A_0, B_0,
      ..., -A_L and B_d for d < L; B_L falls by one as f leaves, and what
      follows B_L may change.
    Neither step depends on which edge find_addable picked, so it may take
    an unblocked edge at any distance before it grows; the closest pick of
    a grow step only bounds how many layers the tree holds.  The timestamp
    cut of Asadpour-Feige-Saberi (TALG 2012), which drops all that was
    added after f, would also drop any edge at dist < L added after f,
    raising -A_d for its d.

    Nor does the gap-3 no-stall argument depend on the pick: it reads only
    a stalled tree, its agents and its items, and the structure that
    check_structure keeps on every step.
    """
    while True:
        if cand.agent == state.i0:
            state.M.give(state.i0, cand.kind, cand.items)
            return True
        f = state.blockers.pop(cand.agent)
        state.M.give(cand.agent, cand.kind, cand.items)
        # the cut leaves nothing beyond layer L = f.layer; below it, the
        # counts lose f and the edges whose agent left the tree
        coords = state._coords
        del coords[2 * f.layer + 2:]
        coords[2 * f.layer + 1] -= 1
        state.blockers = {a: b for a, b in state.blockers.items() if b.layer <= f.layer}
        kept: List[AddEdge] = []
        for e in state.edges:
            if e.dist <= f.layer:
                if e.agent == state.i0 or e.agent in state.blockers:
                    kept.append(e)
                else:
                    coords[2 * e.dist] += 1
        state.edges = kept
        emptied: List[AddEdge] = []
        for e in state.edges:
            if f.agent in e.blockers:
                e.blockers.discard(f.agent)
                if not e.blockers:
                    emptied.append(e)
        if len(emptied) > 1:
            raise TreeInvariantError("multiple edges emptied by one eviction")
        if emptied:
            state.edges.remove(emptied[0])
            coords[2 * emptied[0].dist] += 1
        state.rebuild_items()
        if not emptied:
            return False
        nxt = emptied[0]
        cand = Candidate(nxt.agent, tuple(sorted(nxt.items)), nxt.kind, nxt.dist)


@dataclass
class ExtendStats:
    iterations: int = 0
    contractions: int = 0


def extend_matching(
    inst: Instance,
    M: Matching,
    i0: int,
    r: int,
    support: Optional[SupportHypergraph] = None,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[ExtendStats] = None,
) -> str:
    """Grow M so that i0 gets a heavy item or r light items.

    Addable edges come from `support`, or from every interest when it is
    None.  Returns MATCHED, STALLED or BUDGET_EXCEEDED, the last after
    `budget` steps of this call; `stats` only adds up the steps and
    contractions of the calls it is passed to.  Previously matched agents
    stay matched (their bundles may be reshuffled).
    """
    if i0 in M.bundles:
        raise ValueError("root already matched")
    if support is None:
        support = SupportHypergraph.of_interests(inst)
    state = TreeState(M, i0, r, support)
    stats = stats if stats is not None else ExtendStats()
    matched_before = set(M.bundles)
    for _ in range(budget):
        stats.iterations += 1
        cand = find_addable(state)
        if cand is None:
            return STALLED
        blocking = M.holders(cand.items)
        if not blocking:
            stats.contractions += 1
            if contract(state, cand):
                if not matched_before <= M.bundles.keys():
                    raise TreeInvariantError("a matched agent lost its bundle")
                return MATCHED
        else:
            add_edge(state, cand, blocking)
        state.check_signature_decreased()
        state.check_structure()
    return BUDGET_EXCEEDED


def _probe(
    inst: Instance,
    r: int,
    support: SupportHypergraph,
    budget: int,
) -> Tuple[str, Matching, ExtendStats]:
    M = Matching()
    stats = ExtendStats()
    for i0 in range(inst.n):
        outcome = extend_matching(inst, M, i0, r, support, budget, stats)
        if outcome != MATCHED:
            return outcome, M, stats
    return MATCHED, M, stats


def t_probe_candidates(inst: Instance) -> List[LatticeValue]:
    """Positive lattice values up to the 3/2 normalization cap.

    The cap stays at 3/2 rather than packing_cap: on planted instances,
    narrowing the range to packing_cap was measured to cut the mean
    value/planted from 0.625 to 0.346 for quasi_solve, and from 0.246 to
    0.213 for poly_solve.  No T above 3/2 is searched, so an instance
    with OPT > 3/2 can miss the ratio (fault F3, ROADMAP item 1).
    """
    return lattice_values(inst, Fraction(3, 2))[1:]  # [0] is the value 0


def _quasi_r(k: int, eps: Epsilon) -> int:
    # r = ceil(k / (3 + 4*eps)) computed over integers
    num = k * eps.denominator
    den = 3 * eps.denominator + 4 * eps.numerator
    return -(-num // den)


@dataclass
class SolveReport:
    value: LatticeValue
    allocation: Allocation
    algo: str
    certified_T: Optional[LatticeValue] = None
    r: Optional[int] = None
    iterations: int = 0
    meta: Dict[str, object] = field(default_factory=dict)


Baseline = Tuple[LatticeValue, Allocation]

# what a local search's probe returns at a passing r: (allocation,
# iterations, meta); at a failing r it returns its outcome, STALLED or
# BUDGET_EXCEEDED
ProbeResult = Tuple[Allocation, int, Dict[str, object]]


def top_first(values: Sequence, probe: Callable) -> Tuple[int, Optional[object]]:
    """last_feasible, but the last value is asked first, and answers if it passes.

    If the top fails, the walk is last_feasible's over all the values,
    with the top answered as failed: it asks the midpoint
    values[(len - 1) // 2] first, and no value is asked twice.  That is
    the walk a midpoint-first search makes once it knows the top failed.

    When the passing values form a prefix, the answer is last_feasible's
    (a passing top means every value passes), and the values asked are
    last_feasible's plus at most the top.  When they do not, the answer
    still passes, at an index at least last_feasible's.
    """
    top = len(values) - 1
    last = probe(values[top]) if values else None
    if last is not None:
        return top, last
    return last_feasible(range(top + 1), lambda i: None if i == top else probe(values[i]))


def search_solve(
    inst: Instance,
    algo: str,
    key: Callable[[int], Optional[int]],
    probe: Callable[[int, int], Union[ProbeResult, str]],
    baseline: Optional[Baseline] = None,
) -> SolveReport:
    """The outer search both local searches share.

    A probe depends on T only through its bundle size r = key(k_of(T)),
    None where T has no probe, and r rises with T.  So the search runs
    top_first over the distinct r of t_probe_candidates, each asked
    as probe(r, k) at the k of the largest T that maps to it, and the
    passing r's largest T is the certified T.  It reports that
    allocation if it strictly beats the 1/eps count baseline (`baseline`,
    from flowkit.baseline_solve, when precomputed); otherwise it reports
    the baseline as "<algo>(baseline)", still carrying the T and r the
    search certified.  Where the top r passes (planted instances at small
    eps), that is one probe where the binary search walks to the top.

    The baseline is computed after the search, and not at all where the
    search's value is strictly above flowkit.baseline_ceiling, a bound
    on the baseline's value: there the baseline cannot win.

    A probe that runs out of its budget is read as a failed r, but it
    proves nothing about T, so the search's ratio is void: the report's
    meta then lists those r, ascending, as "budget_exceeded".
    """
    eps = inst.epsilon
    largest: Dict[int, LatticeValue] = {}  # r -> its largest T, r ascending
    for T in t_probe_candidates(inst):
        r = key(k_of(T, eps))
        if r is not None:
            largest[r] = T
    keys = list(largest)
    over_budget: List[int] = []

    def ask(r: int) -> Optional[ProbeResult]:
        found = probe(r, k_of(largest[r], eps))
        if found == BUDGET_EXCEEDED:
            over_budget.append(r)
        return None if isinstance(found, str) else found

    idx, found = top_first(keys, ask)
    flags = {"budget_exceeded": sorted(over_budget)} if over_budget else {}
    if found is None:
        base_val, base_alloc = baseline if baseline is not None else flowkit.baseline_solve(inst)
        return SolveReport(base_val, base_alloc, f"{algo}(baseline)", meta=flags)
    r = keys[idx]
    alloc, iterations, meta = found
    meta = {**meta, **flags}
    value = min_value(inst, alloc)
    if baseline is None:
        ceiling = flowkit.baseline_ceiling(inst)
        if ceiling is None or value.key(eps) <= ceiling.key(eps):
            baseline = flowkit.baseline_solve(inst)
    if baseline is not None and value.key(eps) <= baseline[0].key(eps):
        (value, alloc), algo = baseline, f"{algo}(baseline)"
    return SolveReport(value, alloc, algo, largest[r], r, iterations, meta)


def quasi_solve(inst: Instance, budget: int = DEFAULT_BUDGET,
                baseline: Optional[Baseline] = None) -> SolveReport:
    """Search on r = ceil(k/(3+4 eps)) with the tree search, the top r
    asked first (search_solve, top_first); a stalled probe is treated as
    evidence that T exceeds the optimum.  Falls back to the 1/eps count
    baseline, which dominates for eps >= 1/4.
    """
    eps = inst.epsilon
    interests = SupportHypergraph.of_interests(inst)

    def probe(r: int, k: int) -> Union[ProbeResult, str]:
        outcome, M, stats = _probe(inst, r, interests, budget)
        return (M.allocation(), stats.iterations, {}) if outcome == MATCHED else outcome

    return search_solve(inst, "quasi", lambda k: _quasi_r(k, eps), probe, baseline)


def gap3_certify(inst: Instance, clpres: ClpResult, T: LatticeValue,
                 budget: int = DEFAULT_BUDGET) -> Allocation:
    """Round a feasible CLP(T) point into an allocation of value >= T/3.

    Builds the minimal support hypergraph with r = ceil(k/3) and runs on
    it the tree search quasi_solve runs.  The support hypergraph always
    admits a perfect matching at this r, so a stall indicates a bug and
    raises.
    """
    eps = inst.epsilon
    k = k_of(T, eps)
    r = -(-k // 3)
    sol = minimalize(inst, clpres, T)
    support = build_support_hypergraph(sol, r)
    outcome, M, _ = _probe(inst, r, support, budget)
    if outcome != MATCHED:
        raise CertificationError(
            f"support matcher stalled at T={T}; this should be impossible"
        )
    return M.allocation()
