import random
from fractions import Fraction
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from maxminalloc import clp, exact, gen
from maxminalloc.model import (
    Epsilon, HEAVY, Instance, Item, LIGHT, capped_values, parse_instance, serialize_instance,
)

from oracles import networkx_weight_feasible


def brute_has_perfect_matching(h):
    """Independent exhaustive check over index permutations."""
    edges = set(h.edges)
    idx = range(h.size)
    for ys in permutations(idx):
        for zs in permutations(idx):
            if all((x, ys[x], zs[x]) in edges for x in idx):
                return True
    return False


class TestHypergraph:
    def test_yes_instances_have_planted_matching(self):
        for size in range(1, 5):
            for seed in range(5):
                h, planted = gen.gen_3dm_yes(size, extra_edges=3, seed=seed)
                assert h.is_perfect_matching(planted)
                assert brute_has_perfect_matching(h)

    def test_no_instances_lack_matching(self):
        for size in range(2, 5):
            for seed in range(5):
                h = gen.gen_3dm_no(size, seed=seed)
                assert not brute_has_perfect_matching(h)
                assert not h.has_perfect_matching()

    def test_determinism(self):
        a, _ = gen.gen_3dm_yes(3, 2, seed=9)
        b, _ = gen.gen_3dm_yes(3, 2, seed=9)
        assert a == b


class TestReduction:
    def test_size_accounting(self):
        for seed in range(5):
            h, _ = gen.gen_3dm_yes(3, 4, seed=seed)
            inst = gen.reduce_3dm(h, Epsilon(1, 2))
            assert inst.n == len(h.edges)
            assert len(inst.light_ids) == 2 * h.size
            assert len(inst.heavy_ids) == len(h.edges) - h.size

    def test_agent_interest_shape(self):
        h, _ = gen.gen_3dm_yes(2, 2, seed=0)
        inst = gen.reduce_3dm(h, Epsilon(1, 2))
        for i, (x, y, z) in enumerate(h.edges):
            lights = sorted(inst.beps(i))
            assert lights == sorted({x, h.size + y})
            assert len(inst.b1(i)) == h.z_degree(z) - 1

    def test_round_trips_through_files(self):
        h, _ = gen.gen_3dm_yes(3, 3, seed=1)
        inst = gen.reduce_3dm(h, Epsilon(1, 3))
        again = parse_instance(serialize_instance(inst))
        assert again.interests == inst.interests

    def test_eps_above_half_warns(self):
        h, _ = gen.gen_3dm_yes(2, 0, seed=0)
        with pytest.warns(UserWarning):
            gen.reduce_3dm(h, Epsilon(2, 3))

    def test_dichotomy_small(self):
        eps = Epsilon(1, 2)
        for seed in range(4):
            h, _ = gen.gen_3dm_yes(3, 2, seed=seed)
            v, _ = exact.opt(gen.reduce_3dm(h, eps))
            assert v.as_fraction(eps) == 2 * eps.fraction
            hn = gen.gen_3dm_no(3, seed=seed)
            v, _ = exact.opt(gen.reduce_3dm(hn, eps))
            assert v.as_fraction(eps) <= eps.fraction


class TestGapWitness:
    def test_reaches_ratio_two(self):
        eps = Epsilon(1, 2)
        inst, tstar, opt_v = gen.search_gap_witness(
            n_max=4, m_max=6, eps=eps, budget=300, seed=0
        )
        assert inst is not None
        ratio = tstar.as_fraction(eps) / opt_v.as_fraction(eps)
        assert ratio == Fraction(2)

    def test_deterministic(self):
        eps = Epsilon(1, 2)
        a = gen.search_gap_witness(4, 6, eps, budget=50, seed=3)
        b = gen.search_gap_witness(4, 6, eps, budget=50, seed=3)
        assert serialize_instance(a[0]) == serialize_instance(b[0])


def full_search_gap_witness(n_max, m_max, eps, budget, seed):
    """The search without pruning: a full estimate_Tstar on every candidate."""
    rng = random.Random(seed)
    best, best_ratio = None, None
    for inst in gen._gap_candidates(eps, rng, budget):
        if inst.n > n_max or inst.m > m_max:
            continue
        opt_v, _ = exact.opt(inst)
        if opt_v.is_zero():
            continue
        tstar = clp.estimate_Tstar(inst)
        ratio = tstar.as_fraction(eps) / opt_v.as_fraction(eps)
        if best_ratio is None or ratio > best_ratio:
            best_ratio, best = ratio, (inst, tstar, opt_v)
        if ratio >= 2:
            break
    return best


# The longest of the 54 gap searches of the benchmark's desk workload:
# 185 candidates within the caps, 18 of them up to renaming.
DESK_LONGEST = (Epsilon(1, 5), 3, 2000)
PRUNE_CASES = [
    pytest.param(Epsilon(1, d), seed, 60, id=f"1/{d}-{seed}")
    for d in range(2, 7) for seed in (0, 1, 5)
] + [pytest.param(*DESK_LONGEST, id="desk-longest")]


class TestPrunedGapSearch:
    @pytest.mark.parametrize("eps,seed,budget", PRUNE_CASES)
    def test_matches_full_search(self, eps, seed, budget):
        inst, tstar, opt_v = gen.search_gap_witness(4, 6, eps, budget, seed)
        want_inst, want_tstar, want_opt = full_search_gap_witness(4, 6, eps, budget, seed)
        assert serialize_instance(inst) == serialize_instance(want_inst)
        assert (tstar, opt_v) == (want_tstar, want_opt)

    def test_one_opt_per_isomorphism_class(self, monkeypatch):
        counts = {"candidates": 0, "opt": 0}
        real_candidates, real_opt = gen._gap_candidates, exact.opt

        def candidates(*args):
            for inst in real_candidates(*args):
                counts["candidates"] += inst.n <= 4 and inst.m <= 6
                yield inst

        def opt(inst, *args, **kwargs):
            counts["opt"] += 1
            return real_opt(inst, *args, **kwargs)

        monkeypatch.setattr(gen, "_gap_candidates", candidates)
        monkeypatch.setattr(exact, "opt", opt)
        eps, seed, budget = DESK_LONGEST
        gen.search_gap_witness(4, 6, eps, budget, seed)
        assert counts == {"candidates": 185, "opt": 18}

    def test_one_probe_per_candidate_ruled_out(self, monkeypatch):
        # every LP probe is made inside estimate_Tstar, and one that rules a
        # candidate out makes one probe, at the lowest value that beats the
        # best ratio, or none: when no value up to the packing cap beats it
        # ("none"), or when the allocation network at that value does not
        # saturate ("flow")
        ruled_out, probes = [], [0]
        real_solve, real_estimate = clp.solve_clp, clp.estimate_Tstar

        def solve_clp(*args, **kwargs):
            probes[0] += 1
            return real_solve(*args, **kwargs)

        def estimate_Tstar(inst, above=None):
            assert probes[0] == 0
            tstar = real_estimate(inst, above)
            if tstar is None:
                eps = inst.epsilon
                beats = [T.key(eps) for T in capped_values(inst) if T.key(eps) > above][:1]
                how = ("none" if not beats
                       else "lp" if networkx_weight_feasible(inst, beats[0]) else "flow")
                ruled_out.append((how, probes[0]))
            probes[0] = 0
            return tstar

        monkeypatch.setattr(clp, "solve_clp", solve_clp)
        monkeypatch.setattr(clp, "estimate_Tstar", estimate_Tstar)
        for eps, seed in [(Epsilon(1, 3), 2), (Epsilon(1, 5), 3)]:
            gen.search_gap_witness(4, 6, eps, budget=300, seed=seed)
        assert all(count == (how == "lp") for how, count in ruled_out)
        assert {how for how, _ in ruled_out} == {"none", "flow", "lp"}


@st.composite
def small_instances(draw):
    """Up to 4 agents, 2 heavy and 4 light items with the kinds in any id
    order, each interest present with one drawn density."""
    kinds = [HEAVY] * draw(st.integers(0, 2)) + [LIGHT] * draw(st.integers(0, 4))
    kinds = draw(st.permutations(kinds))
    rng = random.Random(draw(st.integers(0, 2**30)))
    density = draw(st.floats(0.0, 1.0))
    interests = [
        [j for j in range(len(kinds)) if rng.random() < density]
        for _ in range(draw(st.integers(1, 4)))
    ]
    return Instance(Epsilon(1, 2), [Item(j, k) for j, k in enumerate(kinds)], interests)


def relabeled(inst, rng):
    """`inst` with its item ids permuted (each item keeps its kind) and its
    agents shuffled."""
    new_id = list(range(inst.m))
    rng.shuffle(new_id)
    items = sorted((Item(new_id[it.id], it.kind) for it in inst.items), key=lambda it: it.id)
    interests = [[new_id[j] for j in s] for s in inst.interests]
    rng.shuffle(interests)
    return Instance(inst.epsilon, items, interests)


@st.composite
def instance_pairs(draw):
    """An instance and either a fresh one, a relabeled copy, a relabeled
    copy with one interest flipped, or one where a heavy and a light item
    trade kinds (same edges and kind counts)."""
    a = draw(small_instances())
    how = draw(st.sampled_from(["fresh", "relabeled", "flipped", "swapped"]))
    if how == "fresh":
        return a, draw(small_instances())
    rng = random.Random(draw(st.integers(0, 2**30)))
    b = relabeled(a, rng)
    if how == "flipped" and b.m:
        interests = [set(s) for s in b.interests]
        interests[rng.randrange(b.n)] ^= {rng.randrange(b.m)}
        b = Instance(b.epsilon, b.items, interests)
    if how == "swapped" and b.heavy_ids and b.light_ids:
        h, l = rng.choice(sorted(b.heavy_ids)), rng.choice(sorted(b.light_ids))
        kind = {h: LIGHT, l: HEAVY}
        items = [Item(it.id, kind.get(it.id, it.kind)) for it in b.items]
        b = Instance(b.epsilon, items, b.interests)
    return a, b


def interest_graph(inst):
    """The agent-item bipartite graph, each node labeled agent, heavy or light."""
    g = nx.Graph()
    g.add_nodes_from((("agent", i), {"kind": "agent"}) for i in range(inst.n))
    g.add_nodes_from((("item", it.id), {"kind": it.kind}) for it in inst.items)
    g.add_edges_from(
        (("agent", i), ("item", j)) for i, s in enumerate(inst.interests) for j in s
    )
    return g


class TestIsomorphismKey:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(instance_pairs())
    def test_equal_iff_networkx_isomorphic(self, pair):
        a, b = pair
        iso = nx.is_isomorphic(
            interest_graph(a), interest_graph(b),
            node_match=lambda x, y: x["kind"] == y["kind"],
        )
        assert (gen._isomorphism_key(a) == gen._isomorphism_key(b)) == iso

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_instances(), st.integers(0, 2**30))
    def test_unchanged_by_relabeling(self, inst, seed):
        assert gen._isomorphism_key(relabeled(inst, random.Random(seed))) == \
            gen._isomorphism_key(inst)
