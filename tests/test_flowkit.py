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


class TestCountFeasible:
    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(80):
            inst = random_tiny(rng, n_max=3, m_max=6)
            for t in range(0, 4):
                assert flowkit.count_feasible(inst, t) == brute_count_feasible(inst, t)


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
