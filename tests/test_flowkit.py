import copy
import random
from contextlib import contextmanager

import pytest
from hypothesis import event, example, given, settings, strategies as st

from maxminalloc import exact, flowkit, gen, lazysearch
from maxminalloc.model import Epsilon, Instance, Item, HEAVY, LIGHT, min_value

from oracles import (
    allocation_digraph, brute_count_feasible, brute_disjoint_paths, brute_heavy_matching,
    cold_count_baseline, residual_arcs,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def random_tiny(rng, n_max=4, m_max=8):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    mh = rng.randint(0, m)
    return gen.gen_random(
        n, mh, m - mh, rng.uniform(0.2, 1.0), Epsilon(1, rng.randint(2, 4)),
        rng.randrange(2**30),
    )


def networkx_matching_size(inst, agents, items):
    """Maximum matching size, by networkx, of the bipartite graph between
    `agents` and the heavy items of `items` they want."""
    nx = pytest.importorskip("networkx")
    top = [("a", i) for i in agents]
    g = nx.Graph()
    g.add_nodes_from(top)
    g.add_edges_from((("a", i), ("b", j)) for i in agents for j in inst.b1(i) if j in items)
    # the returned dict holds each matched edge in both directions
    return len(nx.bipartite.maximum_matching(g, top_nodes=top)) // 2


@st.composite
def heavy_matching_instances(draw, max_agents=12, max_heavy=12):
    """A random instance with a few light items; sparse ones give
    preprocess degree-1 cascades."""
    rng = draw(st.randoms(use_true_random=True))
    n, mh, ml = rng.randint(1, max_agents), rng.randint(0, max_heavy), rng.randint(0, 3)
    return gen.gen_random(n, mh, ml, rng.uniform(0.05, 1.0), Epsilon(1, rng.randint(2, 5)),
                          rng.randrange(2**30))


@st.composite
def restricted_matchings(draw):
    """An instance with random subsets of its agents and heavy items."""
    inst = draw(heavy_matching_instances())
    rng = draw(st.randoms(use_true_random=True))
    agents = {i for i in range(inst.n) if rng.random() < 0.7}
    items = {j for j in inst.heavy_ids if rng.random() < 0.7}
    return inst, agents, items


class TestHeavyMatching:
    def test_matches_brute_force_size(self):
        rng = random.Random(3)
        for _ in range(150):
            inst = random_tiny(rng)
            m = flowkit.max_heavy_matching(inst)
            assert len(m) == brute_heavy_matching(inst)
            assert len(set(m.values())) == len(m)  # items distinct
            for i, j in m.items():
                assert j in inst.b1(i)

    @PROPERTY
    @given(st.integers(1, 12), st.integers(0, 12), st.floats(0.05, 1.0), st.integers(0, 2**30))
    def test_size_against_networkx(self, n, mh, density, seed):
        inst = gen.gen_random(n, mh, 2, density, Epsilon(1, 2), seed)
        m = flowkit.max_heavy_matching(inst)
        assert len(set(m.values())) == len(m)
        assert all(j in inst.b1(i) for i, j in m.items())
        assert len(m) == networkx_matching_size(inst, range(inst.n), inst.heavy_ids)

    def test_restriction(self):
        inst = gen.gen_random(3, 3, 0, 1.0, Epsilon(1, 2), 5)
        m = flowkit.max_heavy_matching(inst, agents={0}, items={1})
        assert m == {0: 1}

    @PROPERTY
    @given(restricted_matchings())
    def test_restricted_against_networkx(self, drawn):
        # preprocess always restricts the matching to what it left over
        inst, agents, items = drawn
        m = flowkit.max_heavy_matching(inst, agents, items)
        assert set(m) <= agents and set(m.values()) <= items
        assert len(set(m.values())) == len(m)
        assert all(j in inst.b1(i) for i, j in m.items())
        assert len(m) == networkx_matching_size(inst, agents, items)

    @PROPERTY
    @given(heavy_matching_instances())
    def test_preprocess_against_networkx(self, inst):
        """Forcing a degree-1 item onto its only agent never shrinks a
        maximum matching, so the forced pairs and the residue's matching
        form a maximum heavy matching of the whole instance."""
        agents, heavy, forced, m = lazysearch.preprocess(inst)
        assert set(forced).isdisjoint(agents) and set(forced.values()).isdisjoint(heavy)
        assert set(m) <= agents and set(m.values()) <= heavy
        both = {**forced, **m}
        assert len(set(both.values())) == len(both) == len(forced) + len(m)
        assert all(j in inst.b1(i) for i, j in both.items())
        assert len(both) == networkx_matching_size(inst, range(inst.n), inst.heavy_ids)

    def test_chain_longer_than_recursion_limit(self):
        """Agent i wants items i-1 and i: 1,201 agents on 1,200 heavy items,
        no item of degree 1, so preprocess forces nothing and matches the
        whole chain.  An augmenting path may run along all of it, longer
        than Python's recursion limit; the flow's search uses no recursion."""
        n = 1201
        interests = [[0]] + [[i - 1, i] for i in range(1, n - 1)] + [[n - 2]]
        inst = Instance(Epsilon(1, 30), [Item(j, HEAVY) for j in range(n - 1)], interests)
        agents, heavy, forced, m = lazysearch.preprocess(inst)
        assert (len(agents), len(heavy), forced) == (n, n - 1, {})
        assert len(m) == len(set(m.values())) == n - 1


@st.composite
def capacitated_digraphs(draw, max_nodes=12):
    """(size, s, t, edges): a digraph with integer capacities 1-5 as
    (tail, head, capacity) triples.  Besides random edges, which make
    cycles and parallel edges, a drawn prefix of them is repeated reversed
    (antiparallel pairs), and one edge enters s and one leaves t."""
    size = draw(st.integers(2, max_nodes))
    node, capacity = st.integers(0, size - 1), st.integers(1, 5)
    s, t = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    edges = draw(st.lists(st.tuples(node, node, capacity).filter(lambda e: e[0] != e[1]),
                          max_size=40))
    edges += [(v, u, draw(capacity)) for u, v, _ in edges[:draw(st.integers(0, len(edges)))]]
    edges.append((draw(node.filter(lambda v: v != s)), s, draw(capacity)))
    edges.append((t, draw(node.filter(lambda v: v != t)), draw(capacity)))
    return size, s, t, edges


class TestMaxFlow:
    @PROPERTY
    @given(capacitated_digraphs())
    def test_value_and_flow_against_networkx(self, drawn):
        nx = pytest.importorskip("networkx")
        size, s, t, edges = drawn
        fl = flowkit._Flow(size)
        built = flowkit._Flow(size, edges)
        g = nx.DiGraph()
        g.add_nodes_from(range(size))
        for u, v, c in edges:
            fl.add_edge(u, v, c)
            # networkx holds one edge per ordered pair: parallel capacities add
            g.add_edge(u, v, capacity=g.get_edge_data(u, v, {"capacity": 0})["capacity"] + c)
        # the constructor lays the edges out as add_edge calls in order would
        assert (built.head, built.cap, built.adj) == (fl.head, fl.cap, fl.adj)
        value = fl.max_flow(s, t)
        assert value == nx.maximum_flow_value(g, s, t)
        assert fl.reachable(s, t)[t] == -1
        # edge 2k is the k-th edge added; its reverse 2k + 1 holds its flow
        net = [0] * size
        for k, (u, v, c) in enumerate(edges):
            flow = fl.cap[2 * k + 1]
            assert 0 <= flow <= c and fl.cap[2 * k] == c - flow
            net[u] -= flow
            net[v] += flow
        assert net[s] == -value and net[t] == value
        assert all(net[v] == 0 for v in range(size) if v not in (s, t))
        # carrying(u): the heads of u's edges whose reverse holds flow
        for u in range(size):
            assert fl.carrying(u) == [v for k, (w, v, _) in enumerate(edges)
                                      if w == u and fl.cap[2 * k + 1] > 0]


class TestAllocationFlow:
    @PROPERTY
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 8), st.floats(0.0, 1.0),
           st.integers(0, 2**30), st.data())
    def test_value_against_networkx(self, n, mh, ml, density, seed, data):
        nx = pytest.importorskip("networkx")
        inst = gen.gen_random(n, mh, ml, density, Epsilon(1, 3), seed)
        supply = data.draw(st.integers(0, 8))
        caps = data.draw(st.lists(st.integers(0, 5), min_size=inst.m, max_size=inst.m))
        _, value = flowkit.allocation_flow(inst, supply, caps)
        assert value == nx.maximum_flow_value(allocation_digraph(inst, supply, caps), "s", "t")

    def test_edges_in_insertion_order(self):
        # the one-pass build lays the edges out as add_edge calls would:
        # each agent's source edge, then its item edges, then the sink edges
        rng = random.Random(14)
        for _ in range(60):
            inst = random_tiny(rng)
            n, m = inst.n, inst.m
            supply, caps = rng.randint(0, 4), [rng.randint(0, 3) for _ in range(m)]
            want = flowkit._Flow(n + m + 2)
            for i in range(n):
                want.add_edge(n + m, i, supply)
                for j in inst.interests[i]:
                    want.add_edge(i, n + j, caps[j])
            for j in range(m):
                want.add_edge(n + j, n + m + 1, caps[j])
            fl, value = flowkit.allocation_flow(inst, supply, caps)
            assert (fl.head, fl.adj) == (want.head, want.adj)
            assert want.max_flow(n + m, n + m + 1) == value and fl.cap == want.cap


def networkx_count_feasible(inst, t):
    """count_feasible by networkx max-flow on the same network."""
    nx = pytest.importorskip("networkx")
    g = allocation_digraph(inst, t, [1] * inst.m)
    return nx.maximum_flow_value(g, "s", "t") == inst.n * t


def largest_feasible_count(inst):
    """The largest t whose count network saturates, by networkx: a
    feasible count stays feasible below, so the first t that fails ends
    the walk."""
    t = 0
    while networkx_count_feasible(inst, t + 1):
        t += 1
    return t


def best_count(inst):
    """Largest t every agent can get t interesting items at, by brute force."""
    t = 0
    while brute_count_feasible(inst, t + 1):
        t += 1
    return t


class TestCountFeasible:
    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(80):
            inst = random_tiny(rng, n_max=3, m_max=6)
            for t in range(0, 4):
                assert flowkit.count_feasible(inst, t) == brute_count_feasible(inst, t)

    def test_matches_networkx(self):
        rng = random.Random(11)
        for _ in range(80):
            inst = random_tiny(rng, n_max=4, m_max=9)
            for t in range(1, 4):
                assert flowkit.count_feasible(inst, t) == networkx_count_feasible(inst, t)


def check_count_allocation(inst, alloc, best):
    """Every agent holds exactly `best` items it wants, in disjoint bundles."""
    assert sorted(alloc) == list(range(inst.n))
    taken = [j for bundle in alloc.values() for j in bundle]
    assert len(taken) == len(set(taken))
    for i, bundle in alloc.items():
        assert len(bundle) == best
        assert bundle <= inst.interests[i]


# Count-baseline inputs: gen_random up to n = 30, m = 120 (networks of up
# to 152 nodes), and noisy planted instances up to n = 30.
count_random_specs = st.tuples(st.just("random"), st.integers(1, 30), st.integers(1, 120),
                               st.integers(0, 120), st.floats(0.05, 0.7), st.integers(2, 5),
                               st.integers(0, 2**30))
count_planted_specs = st.tuples(st.just("planted"), st.integers(2, 30), st.integers(2, 30),
                                st.integers(1, 30), st.integers(0, 2**30))


def count_instance(planted, spec):
    if spec[0] == "planted":
        _, n, q, k, seed = spec
        return planted.planted_instance(n, Epsilon(1, q), min(k, q), seed, True)[0]
    _, n, m, mh, density, q, seed = spec
    mh = min(mh, m)
    return gen.gen_random(n, mh, m - mh, density, Epsilon(1, q), seed)


class TestBaseline:
    def test_dominates_eps_times_opt(self):
        rng = random.Random(5)
        for _ in range(60):
            inst = random_tiny(rng)
            opt_v, _ = exact.opt(inst)
            value, alloc = flowkit.baseline_solve(inst)
            eps = inst.epsilon
            assert min_value(inst, alloc).key(eps) >= value.key(eps)
            # value >= eps * OPT
            assert value.as_fraction(eps) >= eps.fraction * opt_v.as_fraction(eps)

    def test_each_agent_gets_best_count(self):
        rng = random.Random(12)
        for _ in range(80):
            inst = random_tiny(rng, n_max=3, m_max=7)
            _, alloc = flowkit.baseline_solve(inst)
            check_count_allocation(inst, alloc, best_count(inst))

    @PROPERTY
    @given(st.integers(1, 30), st.integers(1, 120), st.integers(0, 120),
           st.floats(0.05, 0.7), st.integers(2, 5), st.integers(0, 2**30))
    def test_best_count_at_mid_size(self, n, m, mh, density, q, seed):
        """Networks with up to 152 nodes, where later blocking-flow phases
        run along longer paths than the tiny instances above have."""
        mh = min(mh, m)
        inst = gen.gen_random(n, mh, m - mh, density, Epsilon(1, q), seed)
        _, alloc = flowkit.baseline_solve(inst)
        best = len(alloc[0])
        assert best == 0 or networkx_count_feasible(inst, best)
        assert not networkx_count_feasible(inst, best + 1)
        check_count_allocation(inst, alloc, best)

    def test_same_answer_as_the_full_count_range(self):
        # the counts searched stop at _count_top; a cold search over
        # 1..m // n gives the same value and allocation
        rng = random.Random(21)
        for _ in range(80):
            inst = random_tiny(rng, n_max=4, m_max=10)
            full = cold_count_baseline(inst, range(1, inst.m // inst.n + 1))
            assert flowkit.baseline_solve(inst) == full

    def test_one_count_network_then_one_at_the_best_count(self, monkeypatch):
        # one network, warm-started from count to count; where the best
        # count is 2 or more, one fresh network at it, read for the allocation
        builds = []
        real = flowkit.allocation_flow

        def counted(inst, supply, caps):
            builds.append(supply)
            return real(inst, supply, caps)

        monkeypatch.setattr(flowkit, "allocation_flow", counted)
        rng = random.Random(13)
        seen = set()
        for _ in range(60):
            inst = random_tiny(rng, n_max=3, m_max=8)
            del builds[:]
            _, alloc = flowkit.baseline_solve(inst)
            best = len(alloc[0])
            want = [] if flowkit._count_top(inst) == 0 else [1] if best <= 1 else [1, best]
            assert builds == want
            seen.add(len(want))
        assert seen == {0, 1, 2}

    @PROPERTY
    @given(st.one_of(count_random_specs, count_planted_specs))
    def test_warm_start_matches_cold_search(self, planted, spec):
        inst = count_instance(planted, spec)
        value, alloc = flowkit.baseline_solve(inst)
        event(f"best count {'>= 2' if len(alloc[0]) >= 2 else '<= 1'}")
        assert (value, alloc) == cold_count_baseline(inst)

    @PROPERTY
    @given(st.one_of(count_random_specs, count_planted_specs))
    def test_ceiling_bounds_the_baseline(self, planted, spec):
        inst = count_instance(planted, spec)
        ceiling = flowkit.baseline_ceiling(inst)
        event(f"ceiling {'none' if ceiling is None else 'given'}")
        if ceiling is not None:
            eps = inst.epsilon
            assert flowkit.baseline_solve(inst)[0].key(eps) <= ceiling.key(eps)

    @PROPERTY
    @given(st.one_of(count_random_specs, count_planted_specs))
    def test_count_top_bounds_every_feasible_count(self, planted, spec):
        inst = count_instance(planted, spec)
        best = largest_feasible_count(inst)
        top = flowkit._count_top(inst)
        event(f"cap {'tight' if top == best else 'loose'}")
        assert top >= best

    def test_hall_cap_below_the_wanted_items_cap(self):
        # agents 0 and 1 want only the heavy items 0-2, so no count above
        # 3 // 2 = 1 is feasible, though every agent wants 3 items and
        # the 4 agents want 9 in all (9 // 4 = 2)
        inst = Instance(Epsilon(1, 2), [Item(j, HEAVY) for j in range(3)]
                        + [Item(j, LIGHT) for j in range(3, 9)],
                        [[0, 1, 2], [0, 1, 2], [0, 3, 4, 5], [2, 6, 7, 8]])
        wanted = frozenset().union(*inst.interests)
        assert min(min(map(len, inst.interests)), len(wanted) // inst.n) == 2
        assert flowkit._count_top(inst) == largest_feasible_count(inst) == 1


def random_digraph_state(rng, n=4, h=3):
    """A random instance plus a valid heavy matching for it."""
    inst = gen.gen_random(n, h, 1, rng.uniform(0.3, 1.0), Epsilon(1, 2), rng.randrange(2**30))
    matching = flowkit.max_heavy_matching(inst)
    # random sub-matching keeps the digraph valid
    keep = {i: j for i, j in matching.items() if rng.random() < 0.7}
    return inst, keep


class TestResidualDigraph:
    def test_arc_orientation(self):
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, HEAVY)],
            [[0, 1], [0]],
        )
        g = flowkit.ResidualDigraph(inst, {0: 0})
        assert g.nodes == [0, 1, 0, 1]  # agents 0, 1, then items 0, 1
        # matched arc item 0 -> agent 0, free arcs agent 0 -> item 1 and
        # agent 1 -> item 0, agent by agent
        assert g.arcs == [(2, 0), (0, 3), (1, 2)]

    def test_numbering_of_a_restriction(self):
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, HEAVY), Item(3, HEAVY)],
            [[0, 1], [2, 3], [0, 2, 3]],
        )
        g = flowkit.ResidualDigraph(inst, {2: 3}, agents={2, 0}, items={3, 0})
        assert g.nodes == [0, 2, 0, 3]
        assert g.arcs == [(0, 2), (1, 2), (3, 1)]

    def test_rejects_bad_matching(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0], [0]])
        with pytest.raises(ValueError):
            flowkit.ResidualDigraph(inst, {0: 0, 1: 0})


class TestDisjointPaths:
    def test_matches_brute_force(self):
        rng = random.Random(6)
        for _ in range(120):
            inst, matching = random_digraph_state(rng)
            g = flowkit.ResidualDigraph(inst, matching)
            agents = list(range(inst.n))
            sources = [i for i in agents if rng.random() < 0.5]
            sinks = [i for i in agents if rng.random() < 0.5]
            pf = flowkit.disjoint_paths(g, sources, sinks)
            assert pf.value == brute_disjoint_paths(inst, matching, sources, sinks)

    def test_zero_length_path(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0]])
        g = flowkit.ResidualDigraph(inst, {})
        pf = flowkit.disjoint_paths(g, [0], [0])
        assert pf.value == 1
        assert pf.paths() == [[0]]

    def test_second_path_reroutes_the_first(self):
        """The first path is agent 2 -> item 0 -> agent 1; the second enters
        item 0 from agent 3 and moves the first onto item 1.  Both must come
        out disjoint and along arcs, as alternating agent and item ids."""
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY), Item(1, HEAVY)],
                        [[1], [0], [0, 1], [0]])
        g = flowkit.ResidualDigraph(inst, {0: 1, 1: 0})
        pf = flowkit.disjoint_paths(g, [2, 3], [0, 1])
        assert pf.value == 2
        assert pf.paths() == [[2, 1, 0], [3, 0, 1]]


def fresh_out_agents(pf):
    """reachable_out_agents by a fresh residual search on a copy of pf's
    flow, which no cache of pf's can answer."""
    pred = copy.deepcopy(pf._flow).reachable(0, 1)
    return {i for i, k in pf._agent_node.items() if pred[2 * k + 3] != -1}


@contextmanager
def counted_searches():
    """Count the residual searches of every _Flow; yields the list they
    append to."""
    reachable = flowkit._Flow.reachable
    searches = []

    def counting(self, *args, **kwargs):
        searches.append(1)
        return reachable(self, *args, **kwargs)

    flowkit._Flow.reachable = counting
    try:
        yield searches
    finally:
        flowkit._Flow.reachable = reachable


class TestWouldIncrease:
    def test_agrees_with_from_scratch(self):
        rng = random.Random(8)
        for _ in range(100):
            inst, matching = random_digraph_state(rng)
            g = flowkit.ResidualDigraph(inst, matching)
            agents = list(range(inst.n))
            sources = [i for i in agents if rng.random() < 0.5]
            sinks = [i for i in agents if rng.random() < 0.4]
            pf = flowkit.disjoint_paths(g, sources, sinks)
            for extra in agents:
                if extra in sinks:
                    expected = False  # sink set would not change
                else:
                    expected = (
                        brute_disjoint_paths(inst, matching, sources, sinks + [extra])
                        > pf.value
                    )
                assert pf.would_increase(extra) == expected, (sources, sinks, extra)

    def test_incremental_augmentation_reaches_max(self):
        rng = random.Random(10)
        for _ in range(60):
            inst, matching = random_digraph_state(rng)
            g = flowkit.ResidualDigraph(inst, matching)
            agents = list(range(inst.n))
            sources = [i for i in agents if rng.random() < 0.6]
            sinks = [i for i in agents if rng.random() < 0.6]
            pf = flowkit.PathFlow(g)
            for t in sinks:
                pf.add_sink(t)
            for s in sources:  # one source at a time, each augmented to the max
                pf.add_source(s)
                pf.augment_to_max()
            assert pf.value == brute_disjoint_paths(inst, matching, sources, sinks)

    def test_cache_follows_mutations(self):
        """Interleave flow changes with queries; every answer must match a
        fresh search, and the brute-force count whenever the flow is maximum.
        Where the flow is saturated, augment, reachable_out_agents and
        would_increase answer without a search."""
        rng = random.Random(14)
        saturated_seen = set()
        for _ in range(40):
            inst, matching = random_digraph_state(rng)
            g = flowkit.ResidualDigraph(inst, matching)
            agents = list(range(inst.n))
            pf = flowkit.PathFlow(g)
            for _ in range(8):
                op = rng.choice(["source", "sink", "augment", "augment"])
                if op == "source":
                    pf.add_source(rng.choice(agents))
                elif op == "sink":
                    pf.add_sink(rng.choice(agents))
                else:
                    pf.augment()
                if pf.value == len(pf.sources):
                    # every source edge carries flow: no search, nothing reached
                    with counted_searches() as searches:
                        assert not pf.augment()
                        assert pf.reachable_out_agents() == set()
                        assert not any(pf.would_increase(a) for a in agents)
                    assert searches == []
                    saturated_seen.add(bool(pf.sources))
                sources, sinks = sorted(pf.sources), sorted(pf.sinks)
                at_max = pf.value == brute_disjoint_paths(inst, matching, sources, sinks)
                fresh = fresh_out_agents(pf)
                assert pf.reachable_out_agents() == fresh, op
                for extra in agents:
                    answer = pf.would_increase(extra)
                    assert answer == (extra not in pf.sinks and extra in fresh)
                    if at_max:
                        expected = extra not in pf.sinks and (
                            brute_disjoint_paths(inst, matching, sources, sinks + [extra])
                            > pf.value
                        )
                        assert answer == expected, (op, sources, sinks, extra)
        assert saturated_seen == {True, False}

    def test_present_terminal_keeps_the_search(self):
        """Adding a source or sink that is already one changes nothing, so
        the next query runs no search.  A new sink keeps a kept search
        that missed T, which answers the next query as a fresh search
        would, and drops one that reached T, through the new sink's
        out-node where it was reached."""
        rng = random.Random(21)
        reached_seen = set()
        for _ in range(20):
            inst, matching = random_digraph_state(rng)
            pf = flowkit.disjoint_paths(flowkit.ResidualDigraph(inst, matching), [0], [1])
            pf.would_increase(2)  # a full search of a maximum flow: it misses T
            with counted_searches() as searches:
                pf.add_source(0)
                pf.add_sink(1)
                pf.would_increase(3)
                reached = pf.would_increase(2)
                pf.add_sink(2)
                answer = pf.reachable_out_agents()
                assert searches == []
            assert answer == fresh_out_agents(pf)
            with counted_searches() as searches:
                pf.add_sink(3)
                pf.reachable_out_agents()
                assert searches == ([1] if reached else [])
            reached_seen.add(reached)
        assert reached_seen == {True, False}


class TestFailedAugmentSearch:
    """A failed augment's search is kept as the reachable set of the
    state it leaves."""

    @staticmethod
    @contextmanager
    def checked_failed_augments():
        """After every failed PathFlow.augment, reachable_out_agents must
        equal a fresh search on a copy of the flow and run no search of its
        own."""
        augment = flowkit.PathFlow.augment

        def checked(pf):
            value = pf.value
            if augment(pf):
                return True
            assert pf.value == value
            fresh = fresh_out_agents(pf)
            with counted_searches() as searches:
                assert pf.reachable_out_agents() == fresh
            assert searches == []
            return False

        flowkit.PathFlow.augment = checked
        try:
            yield
        finally:
            flowkit.PathFlow.augment = augment

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.6, 1.0]), st.integers(2, 6), st.integers(0, 2**30))
    @example(8, 5, 16, 0.6, 4, 61)
    def test_poly_solve(self, n, mh, ml, density, q, seed):
        inst = gen.gen_random(n, mh, ml, density, Epsilon(1, q), seed)
        with self.checked_failed_augments():
            lazysearch.poly_solve(inst)

    def test_second_failed_augment_runs_no_search(self):
        """A failed augment's search answers a second augment, and an
        augment after a new sink, which keeps it; what that augment pushes
        is what a copy without the kept search pushes."""
        rng = random.Random(27)
        grew_seen = set()
        for _ in range(20):
            inst, matching = random_digraph_state(rng)
            agents = list(range(inst.n))
            pf = flowkit.disjoint_paths(flowkit.ResidualDigraph(inst, matching),
                                        agents[::2], agents[1::2])
            value, paths = pf.value, pf.paths()
            with counted_searches() as searches:
                assert not pf.augment() and not pf.augment()
                assert searches == []
                assert (pf.value, pf.paths()) == (value, paths)
                pf.add_sink(agents[0])
                ref = copy.deepcopy(pf)
                grew = pf.augment()
                assert searches == []
            ref._changed()
            assert ref.augment() == grew
            assert (pf.value, pf.paths()) == (ref.value, ref.paths())
            grew_seen.add(grew)
        assert grew_seen == {True, False}

    def test_poly_solve_reuses_some_search(self, monkeypatch):
        # without the reuse every augment and every query runs a search
        queries = []
        augments = []
        query, augment = flowkit.PathFlow.reachable_out_agents, flowkit.PathFlow.augment
        monkeypatch.setattr(flowkit.PathFlow, "reachable_out_agents",
                            lambda pf: queries.append(1) or query(pf))
        monkeypatch.setattr(flowkit.PathFlow, "augment",
                            lambda pf: augments.append(1) or augment(pf))
        inst = gen.gen_random(8, 5, 16, 0.6, Epsilon(1, 4), 61)
        with counted_searches() as searches:
            lazysearch.poly_solve(inst)
        assert queries and len(searches) < len(augments) + len(queries)


@st.composite
def path_flow_inputs(draw, max_agents=25, max_heavy=20):
    """A heavy-only instance, a random sub-matching of a maximum heavy
    matching, sources and sinks."""
    rng = draw(st.randoms(use_true_random=True))
    n, h = rng.randint(2, max_agents), rng.randint(1, max_heavy)
    interests = [rng.sample(range(h), rng.randint(1, min(h, 6))) for _ in range(n)]
    inst = Instance(Epsilon(1, 2), [Item(j, HEAVY) for j in range(h)], interests)
    matching = {i: j for i, j in flowkit.max_heavy_matching(inst).items() if rng.random() < 0.8}
    sources = [i for i in range(n) if rng.random() < 0.4]
    # few sources are also sinks, so that most paths leave their source
    sinks = [i for i in range(n) if rng.random() < (0.1 if i in sources else 0.5)]
    return inst, matching, sources, sinks


def networkx_disjoint_paths(inst, matching, sources, sinks):
    """Max node-disjoint path count, by networkx max-flow on a split graph
    built from the instance and the matching (not from the digraph)."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for i in range(inst.n):
        g.add_edge(("in", "a", i), ("out", "a", i), capacity=1)
        for j in inst.b1(i):
            g.add_edge(("in", "b", j), ("out", "b", j), capacity=1)
            if matching.get(i) == j:
                g.add_edge(("out", "b", j), ("in", "a", i), capacity=1)
            else:
                g.add_edge(("out", "a", i), ("in", "b", j), capacity=1)
    for i in sources:
        g.add_edge("s", ("in", "a", i), capacity=1)
    for i in sinks:
        g.add_edge(("out", "a", i), "t", capacity=1)
    return nx.maximum_flow_value(g, "s", "t")


class TestPathFlowProperties:
    @PROPERTY
    @given(path_flow_inputs())
    def test_value_and_paths_against_networkx(self, drawn):
        inst, matching, sources, sinks = drawn
        g = flowkit.ResidualDigraph(inst, matching)
        pf = flowkit.PathFlow(g)
        for s in sources:
            pf.add_source(s)
        for t in sinks:
            pf.add_sink(t)
        # with no flow yet every arc is residual: plain reachability
        nx = pytest.importorskip("networkx")
        arcs = residual_arcs(inst, matching)
        digraph = nx.DiGraph(arcs)
        reach = {("agent", s) for s in sources}
        for s in sources:
            if ("agent", s) in digraph:
                reach |= nx.descendants(digraph, ("agent", s))
        assert pf.reachable_out_agents() == {v for kind, v in reach if kind == "agent"}
        pf.release()
        pf = flowkit.disjoint_paths(g, sources, sinks)
        assert pf.value == networkx_disjoint_paths(inst, matching, sources, sinks)
        paths = pf.paths()
        assert len(paths) == pf.value
        # a path alternates agent, heavy item, agent, ...: label by position
        labelled = [[("item" if t % 2 else "agent", v) for t, v in enumerate(path)]
                    for path in paths]
        used = [v for path in labelled for v in path]
        assert len(used) == len(set(used))  # node-disjoint
        arc_set = set(arcs)
        for path in labelled:
            assert len(path) % 2 == 1
            assert path[0][1] in sources and path[-1][1] in sinks
            for step in zip(path, path[1:]):
                assert step in arc_set

    @PROPERTY
    @given(path_flow_inputs(), st.data())
    def test_layered_augmentation_leaves_earlier_sources_alone(self, drawn, data):
        """Sources added layer by layer to a maximum flow, each layer
        augmented to the max with no filter: a source left unsaturated never
        starts a path later, and the value is the max flow from all layers
        so far."""
        inst, matching, sources, sinks = drawn
        g = flowkit.ResidualDigraph(inst, matching)
        pf = flowkit.PathFlow(g)
        for t in sinks:
            pf.add_sink(t)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(sources)), max_size=4)))
        layers = [sources[a:b] for a, b in zip([0] + cuts, cuts + [len(sources)])]
        added, left_unsaturated = [], set()
        for layer in layers:
            for s in layer:
                pf.add_source(s)
            pf.augment_to_max()
            added += layer
            starts = {path[0] for path in pf.paths()}
            assert not starts & left_unsaturated
            left_unsaturated |= set(layer) - starts
            assert pf.value == networkx_disjoint_paths(inst, matching, added, sinks)

    @PROPERTY
    @given(path_flow_inputs(), st.data())
    def test_kept_searches_match_fresh_searches(self, drawn, data):
        """Random add_source, add_sink, augment and would_increase calls
        give the values, paths and answers of a deep copy, taken before
        each call, that drops its kept search and so searches from
        scratch.  While the flow holds the digraph's network no second
        PathFlow may take it, and after release the network is a fresh
        build's."""
        inst, matching, _, _ = drawn
        g = flowkit.ResidualDigraph(inst, matching)
        pf = flowkit.PathFlow(g)
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["source", "sink", "sink", "augment", "augment", "would"]),
            st.integers(0, inst.n - 1)), max_size=30))
        for op, a in ops:
            ref = copy.deepcopy(pf)
            ref._changed()
            for flow in (pf, ref):
                if op == "source":
                    answer = flow.add_source(a)
                elif op == "sink":
                    answer = flow.add_sink(a)
                elif op == "augment":
                    answer = flow.augment()
                else:
                    answer = flow.would_increase(a)
                if flow is pf:
                    got = answer
            assert got == answer, (op, a)
            assert (pf.value, pf.paths(), pf._flow.cap) == (ref.value, ref.paths(), ref._flow.cap)
        if pf.sources or pf.sinks:
            with pytest.raises(ValueError):
                flowkit.PathFlow(g)
        pf.release()
        fresh = flowkit.ResidualDigraph(inst, matching).flow
        assert (g.flow.head, g.flow.cap, g.flow.adj) == (fresh.head, fresh.cap, fresh.adj)
