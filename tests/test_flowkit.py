import random

import pytest

from maxminalloc import exact, flowkit, gen
from maxminalloc.model import Epsilon, Instance, Item, HEAVY, LIGHT, min_value

from oracles import brute_count_feasible, brute_disjoint_paths, brute_heavy_matching


def random_tiny(rng, n_max=4, m_max=8):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    mh = rng.randint(0, m)
    return gen.gen_random(
        n, mh, m - mh, rng.uniform(0.2, 1.0), Epsilon(1, rng.randint(2, 4)),
        rng.randrange(2**30),
    )


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

    def test_restriction(self):
        inst = gen.gen_random(3, 3, 0, 1.0, Epsilon(1, 2), 5)
        m = flowkit.max_heavy_matching(inst, agents={0}, items={1})
        assert m == {0: 1}


def networkx_count_feasible(inst, t):
    """count_feasible by networkx max-flow on the same network."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t"])
    for i in range(inst.n):
        g.add_edge("s", ("a", i), capacity=t)
        for j in inst.interests[i]:
            g.add_edge(("a", i), ("b", j), capacity=1)
    for j in range(inst.m):
        g.add_edge(("b", j), "t", capacity=1)
    return nx.maximum_flow_value(g, "s", "t") == inst.n * t


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
            best = best_count(inst)
            _, alloc = flowkit.baseline_solve(inst)
            assert sorted(alloc) == list(range(inst.n))
            taken = [j for bundle in alloc.values() for j in bundle]
            assert len(taken) == len(set(taken))  # bundles disjoint
            for i, bundle in alloc.items():
                assert len(bundle) == best
                assert bundle <= inst.interests[i]

    def test_one_count_flow_per_probe(self, monkeypatch):
        builds, probes = [], []
        real_flow, real_search = flowkit._count_flow, flowkit.last_feasible

        def counted_flow(inst, t):
            builds.append(t)
            return real_flow(inst, t)

        def counted_search(values, probe):
            def counted_probe(t):
                probes.append(t)
                return probe(t)
            return real_search(values, counted_probe)

        monkeypatch.setattr(flowkit, "_count_flow", counted_flow)
        monkeypatch.setattr(flowkit, "last_feasible", counted_search)
        rng = random.Random(13)
        for _ in range(40):
            inst = random_tiny(rng, n_max=3, m_max=8)
            del builds[:], probes[:]
            flowkit.baseline_solve(inst)
            assert builds == probes


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
        assert ("A", 0) in g.succ.get(("B", 0), [])  # matched arc item->agent
        assert ("B", 1) in g.succ.get(("A", 0), [])  # free arc agent->item
        assert ("B", 0) in g.succ.get(("A", 1), [])

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
            assert pf.value == brute_disjoint_paths(g.succ, sources, sinks)

    def test_zero_length_path(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0]])
        g = flowkit.ResidualDigraph(inst, {})
        pf = flowkit.disjoint_paths(g, [0], [0])
        assert pf.value == 1
        assert pf.paths() == [[("A", 0)]]


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
                        brute_disjoint_paths(g.succ, sources, sinks + [extra])
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
            for s in sources:  # one source at a time, restricted augmentation
                pf.add_source(s)
                pf.augment_to_max(allowed_sources={s})
            assert pf.value == brute_disjoint_paths(g.succ, sources, sinks)

    def test_cache_follows_mutations(self):
        """Interleave flow changes with queries; every answer must match a
        fresh search, and the brute-force count whenever the flow is maximum."""
        rng = random.Random(14)
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
                sources, sinks = sorted(pf.sources), sorted(pf.sinks)
                at_max = pf.value == brute_disjoint_paths(g.succ, sources, sinks)
                fresh = pf.reachable_out_agents()
                for extra in agents:
                    answer = pf.would_increase(extra)
                    assert answer == (extra not in pf.sinks and extra in fresh)
                    if at_max:
                        expected = extra not in pf.sinks and (
                            brute_disjoint_paths(g.succ, sources, sinks + [extra])
                            > pf.value
                        )
                        assert answer == expected, (op, sources, sinks, extra)
