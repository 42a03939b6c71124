"""Matching and flow primitives.

Contains the bipartite heavy matching, the unweighted count-allocation
baseline (max-flow + binary search), the heavy-item residual digraph and
an incremental node-disjoint path structure used by the lazy local search.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import Allocation, Instance, LatticeValue, ZERO, last_feasible, min_value

HeavyMatching = Dict[int, int]  # agent -> heavy item


def max_heavy_matching(inst: Instance, agents: Optional[Iterable[int]] = None,
                       items: Optional[Set[int]] = None) -> HeavyMatching:
    """Maximum-cardinality matching between agents and their heavy items.

    Kuhn's augmenting-path algorithm; deterministic given the agent order.
    `agents`/`items` restrict the bipartition (used after preprocessing).
    """
    agent_list = sorted(agents) if agents is not None else list(range(inst.n))
    item_of: Dict[int, int] = {}  # heavy item -> agent
    agent_of: Dict[int, int] = {}

    def try_augment(i: int, visited: Set[int]) -> bool:
        for j in sorted(inst.b1(i)):
            if items is not None and j not in items:
                continue
            if j in visited:
                continue
            visited.add(j)
            if j not in item_of or try_augment(item_of[j], visited):
                item_of[j] = i
                agent_of[i] = j
                return True
        return False

    for i in agent_list:
        try_augment(i, set())
    return agent_of


# ---------------------------------------------------------------------------
# integer max-flow (for the count-allocation baseline)
# ---------------------------------------------------------------------------

class _Flow:
    """Max-flow network on nodes 0..size-1.

    Edge e runs from head[e ^ 1] to head[e]; e ^ 1 is its reverse, so
    inserting an edge appends the pair (e, e + 1).  adj[u] lists the edges
    leaving u, forward and reverse, in insertion order.
    """

    def __init__(self, size: int):
        self.adj: List[List[int]] = [[] for _ in range(size)]
        self.head: List[int] = []
        self.cap: List[int] = []

    def add_edge(self, u: int, v: int, c: int):
        e = len(self.head)
        self.head += (v, u)
        self.cap += (c, 0)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)

    def max_flow(self, s: int, t: int) -> int:
        """Edmonds-Karp: augment along BFS-shortest residual paths."""
        adj, head, cap = self.adj, self.head, self.cap
        total = 0
        while True:
            pred = [-1] * len(adj)  # edge into each reached node
            pred[s] = -2
            q = deque([s])
            while q and pred[t] == -1:
                u = q.popleft()
                for e in adj[u]:
                    v = head[e]
                    if pred[v] == -1 and cap[e] > 0:
                        pred[v] = e
                        q.append(v)
            if pred[t] == -1:
                return total
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
            total += aug


def _count_flow(inst: Instance, t: int) -> Tuple[_Flow, int]:
    """Max flow in the network giving each agent up to t interesting items.

    Agents are nodes 0..n-1, items n..n+m-1, the source n+m and the sink
    n+m+1.
    """
    n, m = inst.n, inst.m
    s, sink = n + m, n + m + 1
    fl = _Flow(n + m + 2)
    for i in range(n):
        fl.add_edge(s, i, t)
        for j in inst.interests[i]:
            fl.add_edge(i, n + j, 1)
    for j in range(m):
        fl.add_edge(n + j, sink, 1)
    return fl, fl.max_flow(s, sink)


def count_feasible(inst: Instance, t: int) -> bool:
    """True iff every agent can receive >= t distinct interesting items."""
    return t <= 0 or _count_flow(inst, t)[1] == inst.n * t


def baseline_solve(inst: Instance) -> Tuple[LatticeValue, Allocation]:
    """Trivial 1/eps-approximation: maximize the per-agent item count.

    Binary search over counts t >= 1, each probe solving one count flow;
    the allocation is read from the last feasible probe's flow (an edge
    agent -> item carries flow when its reverse has capacity).  The
    reported value is the exact min_value of that allocation.
    """
    n = inst.n

    def probe(t: int) -> Optional[_Flow]:
        fl, value = _count_flow(inst, t)
        return fl if value == n * t else None

    _, fl = last_feasible(range(1, inst.m // max(n, 1) + 1), probe)
    if fl is None:
        return ZERO, {i: frozenset() for i in range(n)}
    alloc: Allocation = {
        i: frozenset(fl.head[e] - n for e in fl.adj[i] if not e & 1 and fl.cap[e ^ 1] > 0)
        for i in range(n)
    }
    return min_value(inst, alloc), alloc


# ---------------------------------------------------------------------------
# residual digraph over agents and heavy items
# ---------------------------------------------------------------------------

class ResidualDigraph:
    """Directed graph G(A u B1, E_M) for a heavy matching M.

    Arc j->i when {i,j} in M, arc i->j when i is interested in unmatched-
    to-i heavy item j.  Nodes are ("A", i) and ("B", j).
    """

    def __init__(self, inst: Instance, matching: HeavyMatching,
                 agents: Optional[Set[int]] = None,
                 items: Optional[Set[int]] = None):
        self.agents = set(agents) if agents is not None else set(range(inst.n))
        if items is not None:
            self.items = set(items)
        else:
            self.items = set(inst.heavy_ids)
        self.succ: Dict[object, List[object]] = {}
        in_deg_agent: Dict[int, int] = {}
        out_deg_item: Dict[int, int] = {}
        for i in sorted(self.agents):
            for j in sorted(inst.b1(i)):
                if j not in self.items:
                    continue
                if matching.get(i) == j:
                    self.succ.setdefault(("B", j), []).append(("A", i))
                    in_deg_agent[i] = in_deg_agent.get(i, 0) + 1
                    out_deg_item[j] = out_deg_item.get(j, 0) + 1
                else:
                    self.succ.setdefault(("A", i), []).append(("B", j))
        for i, d in in_deg_agent.items():
            if d > 1:
                raise ValueError(f"agent {i} has in-degree {d} (bad matching)")
        for j, d in out_deg_item.items():
            if d > 1:
                raise ValueError(f"heavy item {j} has out-degree {d} (bad matching)")


class PathFlow:
    """Maximum set of node-disjoint directed paths between agent sets.

    Node-disjointness is enforced by splitting every node into an in/out
    pair with unit capacity.  Sources and sinks may be added incrementally;
    augmentation can be restricted to start at chosen sources, which keeps
    previously unsaturated sources unsaturated (layer-ordered builds rely
    on this).  A node that is both source and sink yields a zero-length
    path.
    """

    def __init__(self, g: ResidualDigraph):
        self.g = g
        self.sources: Set[int] = set()
        self.sinks: Set[int] = set()
        # flow arcs on the split graph: fnext[u] = v means unit flow u->v
        self.fnext: Dict[object, object] = {}
        self.fprev: Dict[object, object] = {}
        self.value = 0
        # reachable_out_agents() of the current state; cleared on every change
        self._reach: Optional[Set[int]] = None

    # -- split-graph helpers -------------------------------------------------
    @staticmethod
    def _in(v):
        return ("in",) + v

    @staticmethod
    def _out(v):
        return ("out",) + v

    def _residual_succ(self, node, allowed_sources: Optional[Set[int]]):
        """Residual successors of a split node (or 'S')."""
        out = []
        if node == "S":
            srcs = self.sources if allowed_sources is None else (
                self.sources & allowed_sources
            )
            for s in sorted(srcs):
                v = self._in(("A", s))
                if self.fprev.get(v) != "S":  # source arc unsaturated
                    out.append(v)
            return out
        kind = node[0]
        if kind == "in":
            v = node[1:]
            # forward arc in->out if no flow on it
            if self.fnext.get(node) != self._out(v):
                out.append(self._out(v))
            # backward arcs: edges w_out -> v_in carrying flow
            prev = self.fprev.get(node)
            if prev is not None and prev != "S":
                out.append(prev)
        else:  # out-node
            v = node[1:]
            # backward over the node arc
            if self.fnext.get(self._in(v)) == node:
                out.append(self._in(v))
            # forward arcs to successors without flow
            for w in self.g.succ.get(v, ()):  # digraph arcs
                if self.fnext.get(node) != self._in(w):
                    out.append(self._in(w))
            # sink arc
            if v[0] == "A" and v[1] in self.sinks and self.fnext.get(node) != "T":
                out.append("T")
        return out

    def _find_augmenting(self, allowed_sources: Optional[Set[int]]):
        parent = {"S": None}
        q = deque(["S"])
        while q:
            u = q.popleft()
            if u == "T":
                break
            for v in self._residual_succ(u, allowed_sources):
                if v not in parent:
                    parent[v] = u
                    q.append(v)
        if "T" not in parent:
            return None
        path = []
        v = "T"
        while v is not None:
            path.append(v)
            v = parent[v]
        path.reverse()
        return path

    def _apply(self, path):
        for u, v in zip(path, path[1:]):
            if self.fprev.get(u) == v:
                # backward residual arc: cancel flow v->u
                del self.fnext[v]
                del self.fprev[u]
            else:
                self.fnext[u] = v
                self.fprev[v] = u
        self.value += 1
        self._reach = None

    # -- public API -----------------------------------------------------------
    def add_source(self, agent: int):
        self.sources.add(agent)
        self._reach = None

    def add_sink(self, agent: int):
        self.sinks.add(agent)
        self._reach = None

    def augment(self, allowed_sources: Optional[Set[int]] = None) -> bool:
        path = self._find_augmenting(allowed_sources)
        if path is None:
            return False
        self._apply(path)
        return True

    def augment_to_max(self, allowed_sources: Optional[Set[int]] = None) -> int:
        added = 0
        while self.augment(allowed_sources):
            added += 1
        return added

    def reachable_out_agents(self) -> Set[int]:
        """Agents whose out-node is residual-reachable from an unsaturated source.

        Adding such an agent as a fresh sink increases the path count by one.
        """
        seen = {"S"}
        q = deque(["S"])
        result: Set[int] = set()
        while q:
            u = q.popleft()
            for v in self._residual_succ(u, None):
                if v not in seen and v != "T":
                    seen.add(v)
                    q.append(v)
                    if v[0] == "out" and v[1] == "A":
                        result.add(v[2])
        return result

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

    def paths(self) -> List[List[object]]:
        """Decompose the flow into node paths (digraph nodes, split removed)."""
        result = []
        for s in sorted(self.sources):
            start = self._in(("A", s))
            if self.fprev.get(start) != "S":
                continue
            nodes = []
            cur = start
            while cur != "T":
                if cur[0] == "in":
                    nodes.append(cur[1:])
                cur = self.fnext[cur]
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
