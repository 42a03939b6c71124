"""Matching and flow primitives.

One integer-indexed max-flow engine (`_Flow`), the only code that knows
its edge layout: it builds every network from (tail, head, capacity)
triples, copies them and reads their flow.  Dinic's blocking flows
(`_Flow.max_flow`) solve the unit network of the maximum heavy matching
(`max_heavy_matching`) and the allocation network (`allocation_flow`),
which carries both the count flow behind the unweighted count-allocation
baseline (one network, warm-started from count to count) and the
weight flow that bounds the LP threshold T* (`weight_feasible`).  The
incremental node-disjoint path flow (`PathFlow`), a copy of the
heavy-item residual digraph's `_Flow`,
augments one breadth-first shortest path at a time (`_Flow.reachable`,
then `_Flow.push`) so that it can stop or add terminals between paths.
"""

from __future__ import annotations

import bisect
from collections import deque
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import (
    Allocation, HEAVY, Instance, LatticeValue, ZERO, min_value,
)

HeavyMatching = Dict[int, int]  # agent -> heavy item


# ---------------------------------------------------------------------------
# integer max-flow (the heavy matching, the count flow and the weight flow)
# ---------------------------------------------------------------------------

class _Flow:
    """Max-flow network on nodes 0..size-1.

    Edge e runs from head[e ^ 1] to head[e]; e ^ 1 is its reverse, so
    inserting an edge appends the pair (e, e + 1), the forward edge even.
    adj[u] lists the edges leaving u, forward and reverse, in insertion
    order.  `edges` are (u, v, capacity) triples, inserted in order.
    """

    def __init__(self, size: int, edges: Iterable[Tuple[int, int, int]] = ()):
        self.adj: List[List[int]] = [[] for _ in range(size)]
        self.head: List[int] = []
        self.cap: List[int] = []
        self._insert(edges)

    def _insert(self, edges: Iterable[Tuple[int, int, int]]):
        adj, head, cap = self.adj, self.head, self.cap
        e = len(head)
        for u, v, c in edges:
            head.append(v)
            head.append(u)
            cap.append(c)
            cap.append(0)
            adj[u].append(e)
            adj[v].append(e + 1)
            e += 2

    def add_edge(self, u: int, v: int, c: int):
        self._insert(((u, v, c),))

    def copy(self) -> _Flow:
        """An independent copy of the network and its flow."""
        fl = _Flow(0)
        fl.adj = [a[:] for a in self.adj]
        fl.head = self.head[:]
        fl.cap = self.cap[:]
        return fl

    def widen(self, u: int):
        """Raise the capacity of every forward edge out of u by one; the
        flow stays feasible, and max_flow continues from it."""
        for e in self.adj[u]:
            if not e & 1:
                self.cap[e] += 1

    def carrying(self, u: int) -> List[int]:
        """Heads of the forward edges out of u that carry flow (their
        reverse holds capacity), in adjacency order."""
        head, cap = self.head, self.cap
        return [head[e] for e in self.adj[u] if not e & 1 and cap[e ^ 1] > 0]

    def reachable(self, s: int, t: int, stop_at_t: bool = False) -> List[int]:
        """Breadth-first search over residual edges from s, never leaving t.

        Returns pred: the edge each reached node was first reached by (-2
        for s, -1 for unreached nodes).  With stop_at_t the search ends as
        soon as it reaches t.
        """
        adj, head, cap = self.adj, self.head, self.cap
        pred = [-1] * len(adj)
        pred[s] = -2
        q = deque([s])
        while q:
            for e in adj[q.popleft()]:
                v = head[e]
                if pred[v] == -1 and cap[e] > 0:
                    pred[v] = e
                    if v != t:
                        q.append(v)
                    elif stop_at_t:
                        return pred
        return pred

    def push(self, s: int, t: int, pred: List[int]) -> int:
        """Push flow along the s-t path that pred, from reachable, records;
        the amount."""
        head, cap = self.head, self.cap
        path = []
        v = t
        while v != s:
            e = pred[v]
            path.append(e)
            v = head[e ^ 1]
        aug = min(cap[e] for e in path)
        for e in path:
            cap[e] -= aug
            cap[e ^ 1] += aug
        return aug

    def max_flow(self, s: int, t: int) -> int:
        """Dinic's algorithm (Dinitz 1970) on integer capacities; the value.

        Each phase labels nodes with their residual BFS distance from s,
        stopping at t's level, then pushes a blocking flow along
        level-increasing edges: a depth-first search that keeps a
        current-arc pointer per node and drops a node from the level graph
        once it is a dead end.  Phases repeat until t is unreachable.
        The heavy matching and the count and weight flows run on it;
        `PathFlow` instead pushes one BFS-shortest path at a time.
        """
        adj, head, cap = self.adj, self.head, self.cap
        total = 0
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            frontier = [s]
            while frontier and level[t] == -1:
                nxt = []
                for u in frontier:
                    d = level[u] + 1
                    for e in adj[u]:
                        v = head[e]
                        if level[v] == -1 and cap[e] > 0:
                            level[v] = d
                            nxt.append(v)
                frontier = nxt
            if level[t] == -1:
                return total
            arc = [0] * len(adj)  # current-arc pointer: index into adj[u]
            path: List[int] = []  # edges of the s-u path being extended
            u = s
            while True:
                if u == t:
                    aug = min(cap[e] for e in path)
                    total += aug
                    for e in path:
                        cap[e] -= aug
                        cap[e ^ 1] += aug
                    # retreat to the tail of the first saturated edge
                    k = next(k for k, e in enumerate(path) if not cap[e])
                    del path[k:]
                    u = head[path[-1]] if path else s
                    continue
                edges, d = adj[u], level[u] + 1
                for i in range(arc[u], len(edges)):
                    e = edges[i]
                    if cap[e] > 0 and level[head[e]] == d:
                        arc[u] = i
                        path.append(e)
                        u = head[e]
                        break
                else:
                    if u == s:
                        break
                    # dead end: no blocking-flow path passes u
                    level[u] = -1
                    u = head[path.pop() ^ 1]
                    arc[u] += 1


def max_heavy_matching(inst: Instance, agents: Optional[Iterable[int]] = None,
                       items: Optional[Set[int]] = None) -> HeavyMatching:
    """Maximum-cardinality matching between agents and their heavy items.

    A unit max flow: source -> each agent, ascending, agent i -> each
    heavy item j of b1(i) (node n + j), heavy item -> sink.  The matching
    is read from the saturated agent -> item edges; it is deterministic
    given the agent order.  `agents`/`items` restrict the bipartition
    (used after preprocessing).
    """
    n, s, t = inst.n, inst.n + inst.m, inst.n + inst.m + 1
    agent_list = sorted(agents) if agents is not None else range(n)
    edges = []
    for i in agent_list:
        edges.append((s, i, 1))
        edges += ((i, n + j, 1) for j in inst.b1(i) if items is None or j in items)
    edges += ((n + j, t, 1) for j in sorted(inst.heavy_ids))
    fl = _Flow(t + 1, edges)
    fl.max_flow(s, t)
    return {i: v - n for i in agent_list for v in fl.carrying(i)}


def allocation_flow(inst: Instance, supply: int, caps: Sequence[int]) -> Tuple[_Flow, int]:
    """Max flow in the allocation network of `inst`.

    The source has an edge of capacity `supply` to every agent, agent i an
    edge of capacity caps[j] to every item j it wants, and item j an edge
    of capacity caps[j] to the sink.  Agents are nodes 0..n-1, items
    n..n+m-1, the source n+m and the sink n+m+1.  The edges go in agent by
    agent (its source edge, then its item edges in interest order), then
    the sink edges by item.

    Two networks use it: the count flow (`supply` t, every cap 1) and the
    weight flow of `weight_feasible` (in key units).
    """
    n, m = inst.n, inst.m
    s, sink = n + m, n + m + 1
    # one agent's edges at a time: a list of them all would raise peak memory
    agents = ([(s, i, supply)] + [(i, n + j, caps[j]) for j in inst.interests[i]]
              for i in range(n))
    sinks = ((n + j, sink, caps[j]) for j in range(m))
    fl = _Flow(n + m + 2, chain(chain.from_iterable(agents), sinks))
    return fl, fl.max_flow(s, sink)


def count_feasible(inst: Instance, t: int) -> bool:
    """True iff every agent can receive >= t distinct interesting items."""
    return t <= 0 or allocation_flow(inst, t, [1] * inst.m)[1] == inst.n * t


def weight_feasible(inst: Instance, T: LatticeValue) -> bool:
    """True iff the allocation network at T saturates, in key units: every
    agent draws key(T) from the items it wants, item j giving at most
    c_j = min(w_j, key(T)) in all, where w_j is its weight (q for a heavy
    item and p for a light one, eps = p/q).

    A necessary condition for CLP(T), checked exactly.  Take a CLP(T)
    point at coverage lambda.  Every configuration S of agent i is worth
    at least T, so T splits over its items with item j giving at most
    c_j; summing x_{iS} times these splits gives a flow of value
    lambda*n*key(T) through the network, within every capacity since
    each item is packed at most once.  So a feasible CLP(T) saturates the
    network, and where the network does not saturate, its integer max
    flow is at most n*key(T) - 1 and lambda* <= 1 - 1/(n*key(T)).  The
    same scaling shows that saturation at T implies saturation below T.
    """
    key = T.key(inst.epsilon)
    if key <= 0:
        return True
    p, q = inst.epsilon.numerator, inst.epsilon.denominator
    heavy, light = min(q, key), min(p, key)
    caps = [heavy if it.kind == HEAVY else light for it in inst.items]
    return allocation_flow(inst, key, caps)[1] == inst.n * key


def _count_top(inst: Instance) -> int:
    """min(min_i |I_i|, |wanted items| // n), where the wanted items are
    those some agent is interested in: no agent gets more items than it
    wants, and n agents with t each take n*t distinct wanted items, so no
    count above it is feasible."""
    return min(min(map(len, inst.interests)), len(frozenset().union(*inst.interests)) // inst.n)


def baseline_solve(inst: Instance) -> Tuple[LatticeValue, Allocation]:
    """Trivial 1/eps-approximation: maximize the per-agent item count.

    One count network, solved at t = 1; then every source capacity rises
    by one in place and Dinic's algorithm continues from the flow it has
    (t = 2, 3, ... up to _count_top), until a t does not saturate.  The
    allocation is the one a binary search over the counts reads from its
    last passing probe: the kept t = 1 flow where the best count t* is 1,
    else the flow of one fresh network at t*, read from the agent -> item
    edges that carry flow.  The reported value is the exact min_value of
    that allocation.
    """
    n, m = inst.n, inst.m
    s, sink = n + m, n + m + 1
    top = _count_top(inst)
    fl, value = allocation_flow(inst, 1, [1] * m) if top else (None, 0)
    if value < n:
        return ZERO, {i: frozenset() for i in range(n)}
    at_one = fl.cap[:]
    t = 1
    while t < top:
        fl.widen(s)
        value += fl.max_flow(s, sink)
        if value < n * (t + 1):
            break
        t += 1
    if t == 1:
        fl.cap = at_one
    else:
        fl, _ = allocation_flow(inst, t, [1] * m)
    alloc: Allocation = {i: frozenset(v - n for v in fl.carrying(i)) for i in range(n)}
    return min_value(inst, alloc), alloc


def baseline_ceiling(inst: Instance) -> Optional[LatticeValue]:
    """An upper bound on baseline_solve's value, or None.

    Where fewer distinct heavy items are wanted than there are agents,
    every count allocation leaves some agent without a heavy item, so
    with t items each that agent is worth t*eps, and t <= _count_top.
    """
    if len(frozenset().union(*map(inst.b1, range(inst.n)))) >= inst.n:
        return None
    return LatticeValue(0, _count_top(inst))


# ---------------------------------------------------------------------------
# residual digraph over agents and heavy items
# ---------------------------------------------------------------------------

class ResidualDigraph:
    """Directed graph G(A u B1, E_M) for a heavy matching M, on integer nodes.

    Arc j->i when {i,j} in M, arc i->j when i is interested in unmatched-
    to-i heavy item j.  Node k is `nodes[k]`: the agents first, ascending,
    then the heavy items, ascending.  `arcs` holds the (tail, head) node
    pairs agent by agent, each agent's heavy items in ascending order.

    `flow` is the node-split unit network that `PathFlow` copies, one
    `_Flow`: node k is the pair in = 2k + 2 -> out = 2k + 3, joined by
    edge 2k, and arc r (u, v) is edge 2N + 2r from out-node 2u + 3 to
    in-node 2v + 2, N being the node count; every capacity is 1.  The
    node edges go in first, then the arcs, so each adjacency list is
    sorted by edge id.  `flip` reverses one arc in place, keeping its
    position in `arcs`, its edge ids and the sorted adjacency lists, so
    the graph follows the matching through a path reversal without a
    rebuild.
    """

    def __init__(self, inst: Instance, matching: HeavyMatching,
                 agents: Optional[Set[int]] = None,
                 items: Optional[Set[int]] = None):
        self.agents = sorted(agents) if agents is not None else list(range(inst.n))
        items = sorted(items if items is not None else inst.heavy_ids)
        self.nodes = self.agents + items
        self.agent_node = {i: k for k, i in enumerate(self.agents)}
        self._item_node = {j: k for k, j in enumerate(items, len(self.agents))}
        self._arc_of: Dict[Tuple[int, int], int] = {}  # (agent node, item node) -> arc
        self.arcs: List[Tuple[int, int]] = []
        matched: Set[int] = set()
        node_of = self._item_node
        for a, i in enumerate(self.agents):
            for j in inst.b1(i):
                if j not in node_of:
                    continue
                self._arc_of[a, node_of[j]] = len(self.arcs)
                if matching.get(i) != j:
                    self.arcs.append((a, node_of[j]))
                elif j in matched:
                    raise ValueError(f"heavy item {j} matched twice (bad matching)")
                else:
                    matched.add(j)
                    self.arcs.append((node_of[j], a))
        edges = [(2 * k + 2, 2 * k + 3, 1) for k in range(len(self.nodes))]
        edges += ((2 * u + 3, 2 * v + 2, 1) for u, v in self.arcs)
        self.flow = _Flow(2 * len(self.nodes) + 2, edges)

    def flip(self, agent: int, item: int):
        """Reverse the arc between `agent` and heavy `item`: the item
        becomes matched to the agent, or stops being so."""
        r = self._arc_of[self.agent_node[agent], self._item_node[item]]
        u, v = self.arcs[r]
        self.arcs[r] = (v, u)
        e = 2 * len(self.nodes) + 2 * r
        head, adj = self.flow.head, self.flow.adj
        # e ran out(u) -> in(v) and now runs out(v) -> in(u); e + 1 the reverse
        head[e], head[e + 1] = 2 * u + 2, 2 * v + 3
        adj[2 * u + 3].remove(e)
        bisect.insort(adj[2 * v + 3], e)
        adj[2 * v + 2].remove(e + 1)
        bisect.insort(adj[2 * u + 2], e + 1)


class PathFlow:
    """Maximum set of node-disjoint directed paths between agent sets.

    A unit-capacity view over one `_Flow`, which starts as a copy of the
    digraph's node-split network `g.flow` (see `ResidualDigraph`): each
    digraph node is an in/out pair joined by one unit edge, which makes
    the paths node-disjoint, and arcs run out -> in.  The copy leaves the digraph's
    own network as it is.  The source S = 0 has a unit edge to the in-node
    of every source agent, in the order they were added, and the out-node
    of every sink agent has a unit edge to the sink T = 1, after its arcs.
    Sources and sinks are agents of the digraph and may be added
    incrementally.  A node that is both source and sink yields a
    zero-length path.  Sources added to a maximum flow need no filter: a
    source that flow left unsaturated has no residual path to T, so no
    augmenting path touches a node it reaches, and it never starts a later
    path; the new sources find the paths they would find alone.
    """

    def __init__(self, g: ResidualDigraph):
        self.sources: Set[int] = set()
        self.sinks: Set[int] = set()
        self.value = 0
        # a full residual search from S of the current state, and the
        # agents whose out-node it reaches; cleared on every change
        self._pred: Optional[List[int]] = None
        self._reach: Optional[Set[int]] = None
        self._ids = g.nodes
        self._agent_node = g.agent_node
        self._flow = g.flow.copy()

    def _changed(self):
        self._pred = self._reach = None

    def add_source(self, agent: int):
        if agent not in self.sources:
            self.sources.add(agent)
            self._flow.add_edge(0, 2 * self._agent_node[agent] + 2, 1)
            self._changed()

    def add_sink(self, agent: int):
        if agent not in self.sinks:
            self.sinks.add(agent)
            self._flow.add_edge(2 * self._agent_node[agent] + 3, 1, 1)
            self._changed()

    def augment(self) -> bool:
        """Push one more path; False, with the flow unchanged, if none is left.

        A search that misses T never stops early, so a failed one is the
        full residual search of the state it leaves, and is kept for
        reachable_out_agents.  A kept search of the unchanged state that
        missed T answers a second augment without a new search.
        """
        if self._pred is not None and self._pred[1] == -1:
            return False
        pred = self._flow.reachable(0, 1, stop_at_t=True)
        if pred[1] == -1:
            self._pred = pred
            return False
        self._flow.push(0, 1, pred)
        self.value += 1
        self._changed()
        return True

    def augment_to_max(self) -> int:
        added = 0
        while self.augment():
            added += 1
        return added

    def reachable_out_agents(self) -> Set[int]:
        """Agents whose out-node is residual-reachable from an unsaturated source.

        Adding such an agent as a fresh sink increases the path count by one.
        The residual search runs at most once per flow state.
        """
        if self._pred is None:
            self._pred = self._flow.reachable(0, 1)
        pred = self._pred
        return {i for i, k in self._agent_node.items() if pred[2 * k + 3] != -1}

    def would_increase(self, agent: int) -> bool:
        """True iff adding an edge at `agent` as a sink raises the path count.

        An agent already in the sink set cannot raise the count (the sink
        agent set would not change); otherwise residual reachability of its
        out-node is exactly the augmenting-path condition.  The reachable
        set is computed once per flow state and reused until the next change.
        """
        if agent in self.sinks:
            return False
        if self._reach is None:
            self._reach = self.reachable_out_agents()
        return agent in self._reach

    def paths(self) -> List[List[int]]:
        """Decompose the flow into paths [a0, j1, a1, ..., ak] of ids.

        Every arc runs between an agent and a heavy item, so a path from
        agent to agent alternates: even positions are agents, odd ones
        heavy items.  Each node on a path passes its unit on along exactly
        one edge that carries flow.
        """
        fl = self._flow
        result = []
        for u in fl.carrying(0):
            nodes = []
            while u != 1:
                if not u & 1:
                    nodes.append(self._ids[u // 2 - 1])
                u = fl.carrying(u)[0]
            result.append(nodes)
        return result


def disjoint_paths(
    g: ResidualDigraph, sources: Iterable[int], sinks: Iterable[int]
) -> PathFlow:
    """Maximum node-disjoint path set from `sources` to `sinks`."""
    pf = PathFlow(g)
    for s in sources:
        pf.add_source(s)
    for t in sinks:
        pf.add_sink(t)
    pf.augment_to_max()
    return pf
