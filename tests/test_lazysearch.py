import math
import random
from fractions import Fraction

import pytest

from maxminalloc import exact, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import Epsilon, HEAVY, Instance, Item, LIGHT, min_value

H = treesearch.HEAVY_KIND
L = treesearch.LIGHT_KIND


class TestPreprocess:
    def test_degree_one_cascade(self):
        # item 0 only interests agent 0; removing both makes item 1
        # degree-1 for agent 1, which cascades.
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, HEAVY)],
            [[0, 1], [1]],
        )
        agents, heavy, forced, matching = lazysearch.preprocess(inst)
        assert forced == {0: 0, 1: 1}
        assert agents == set() and heavy == set()
        assert matching == {}

    def test_residue_matched_maximally(self):
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, HEAVY)],
            [[0, 1], [0, 1], [0, 1]],
        )
        agents, heavy, forced, matching = lazysearch.preprocess(inst)
        assert forced == {}
        assert agents == {0, 1, 2} and heavy == {0, 1}
        assert len(matching) == 2

    def test_no_degree_one(self):
        inst = gen.gen_random(3, 3, 2, 1.0, Epsilon(1, 2), 0)
        agents, heavy, forced, matching = lazysearch.preprocess(inst)
        assert forced == {} and agents == {0, 1, 2}


class TestExtendMatchingPoly:
    def test_collapse_at_root_direct(self):
        # i0 wants the heavy item agent 1 holds; agent 1 swaps to 2 lights
        # via a layer-0 collapse along the path i0 -> heavy -> agent 1.
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 5)],
            [[0], [0, 1, 2, 3, 4]],
        )
        M = {1: (H, frozenset({0}))}
        params = lazysearch.Params(r=2, p=3)
        out = lazysearch.extend_matching_poly(inst, M, 0, params)
        assert out == lazysearch.MATCHED
        assert M[0] == (H, frozenset({0}))
        assert M[1][0] == L and len(M[1][1]) == 2

    def test_one_digraph_per_matching(self, monkeypatch):
        # the root direct case: compute_W, a layer scan continuing its flow,
        # compute_W again on the same matching (reusing its digraph), then
        # the layer-0 collapse, which needs no flow of its own
        builds = []
        init = flowkit.ResidualDigraph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(flowkit.ResidualDigraph, "__init__", counting_init)
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 5)],
            [[0], [0, 1, 2, 3, 4]],
        )
        M = {1: (H, frozenset({0}))}
        stats = lazysearch.LazyStats()
        out = lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(r=2, p=3),
                                              stats=stats)
        assert out == lazysearch.MATCHED
        assert (stats.collapses, stats.layers_peak) == (1, 0)
        assert len(builds) == 1

    def test_one_layer_scan(self, monkeypatch):
        # the root direct case: the scan adds agent 1's edge to I and
        # reads each agent's lowest free lights once
        calls = []
        lowest_free = lazysearch.lowest_free

        def counting_lowest_free(*args):
            calls.append(1)
            return lowest_free(*args)

        monkeypatch.setattr(lazysearch, "lowest_free", counting_lowest_free)
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 5)],
            [[0], [0, 1, 2, 3, 4]],
        )
        state = lazysearch.LazyState(inst, {1: (H, frozenset({0}))}, 0,
                                     lazysearch.Params(r=2, p=3), {0, 1}, {0})
        _, _, pf = lazysearch.compute_W(state)
        assert lazysearch.build_layer(state, pf) == (1, 0)
        assert len(calls) == 2

    def test_layer_collapse_along_heavy_path(self):
        # agent 1's lights block the root's edge (layer 1); agent 1 reaches
        # agent 2's unblocked edge through the heavy item agent 2 holds, so
        # the layer-1 collapse moves that item to agent 1, and the flow
        # that re-admits the root's edge runs on the new matching
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 7)],
            [[1, 2, 3], [0, 1, 2], [0, 4, 5, 6]],
        )
        M = {1: (L, frozenset({1, 2})), 2: (H, frozenset({0}))}
        stats = lazysearch.LazyStats()
        out = lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(r=2, p=3),
                                              stats=stats)
        assert out == lazysearch.MATCHED
        assert (stats.collapses, stats.layers_peak) == (2, 1)
        assert M == {0: (L, frozenset({1, 2})), 1: (H, frozenset({0})),
                     2: (L, frozenset({4, 5}))}

    def test_zero_length_collapse(self):
        inst = Instance(
            Epsilon(1, 4),
            [Item(j, LIGHT) for j in range(4)],
            [[0, 1, 2, 3]],
        )
        M = {}
        out = lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(2, 3))
        assert out == lazysearch.MATCHED
        assert M[0][0] == L and len(M[0][1]) == 2

    def test_stall_when_impossible(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY), Item(1, LIGHT)], [[0, 1], [0, 1]])
        M = {1: (H, frozenset({0}))}
        out = lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(1, 2))
        assert out == lazysearch.STALLED

    def test_budget_exceeded(self):
        # the root's lights are held by agent 1: the first iteration builds
        # a layer, and the collapses need two more
        inst = Instance(
            Epsilon(1, 4),
            [Item(j, LIGHT) for j in range(6)],
            [[0, 1, 2], [0, 1, 2, 3, 4, 5]],
        )
        for budget, outcome in ((3, lazysearch.MATCHED), (1, lazysearch.BUDGET_EXCEEDED)):
            M = {1: (L, frozenset({0, 1}))}
            out = lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(2, 3),
                                                  budget=budget)
            assert out == outcome
        assert M == {1: (L, frozenset({0, 1}))}

    def test_3dm_yes_all_matched(self):
        eps = Epsilon(1, 2)
        for seed in range(4):
            h, _ = gen.gen_3dm_yes(3, 3, seed=seed)
            inst = gen.reduce_3dm(h, eps)
            params = lazysearch.Params(r=1, p=2)
            agents, heavy, forced, matching = lazysearch.preprocess(inst)
            M = {i: (H, frozenset({j})) for i, j in matching.items()}
            for i0 in sorted(agents):
                if i0 in M:
                    continue
                out = lazysearch.extend_matching_poly(
                    inst, M, i0, params, agents=agents, heavy_items=heavy
                )
                assert out == lazysearch.MATCHED
            for i, j in forced.items():
                M[i] = (H, frozenset({j}))
            alloc = {a: items for a, (kind, items) in M.items()}
            assert not min_value(inst, alloc).is_zero()

    def test_matched_agents_keep_bundles(self):
        rng = random.Random(20)
        for _ in range(30):
            inst = gen.gen_random(4, 2, 8, rng.uniform(0.4, 1.0), Epsilon(1, 3),
                                  rng.randrange(2**30))
            params = lazysearch.Params(r=1, p=2)
            agents, heavy, forced, matching = lazysearch.preprocess(inst)
            M = {i: (H, frozenset({j})) for i, j in matching.items()}
            for i0 in sorted(agents):
                if i0 in M:
                    continue
                before = set(M)
                out = lazysearch.extend_matching_poly(
                    inst, M, i0, params, agents=agents, heavy_items=heavy
                )
                if out == lazysearch.MATCHED:
                    assert before | {i0} <= set(M)
                else:
                    assert before <= set(M)


class TestPolySolve:
    def test_ratio_on_random(self, corpus):
        for inst in corpus[::13]:
            eps = inst.epsilon
            opt_v, _ = exact.opt(inst)
            rep = lazysearch.poly_solve(inst)
            assert 9 * rep.value.as_fraction(eps) >= opt_v.as_fraction(eps)
            assert min_value(inst, rep.allocation).key(eps) >= rep.value.key(eps)

    def test_precomputed_baseline_same_report(self, corpus):
        for inst in corpus[::13]:
            baseline = flowkit.baseline_solve(inst)
            assert lazysearch.poly_solve(inst, baseline=baseline) == lazysearch.poly_solve(inst)

    def test_small_eps_certifies_k_over_r_six(self):
        eps = Epsilon(1, 100)
        items = [Item(j, LIGHT) for j in range(480)]
        inst = Instance(eps, items, [list(range(480))] * 3)
        rep = lazysearch.poly_solve(inst)
        assert rep.certified_T.as_fraction(eps) == Fraction(3, 2)
        assert rep.r == 25  # k = 150, k/r = 6.0
        assert "certified_T" not in rep.meta and "r" not in rep.meta


@pytest.mark.parametrize("solve", [treesearch.quasi_solve, lazysearch.poly_solve])
def test_budget_one_falls_back_to_baseline(solve):
    # agents 2 and 3 are two roots that each need a search step, and the
    # budget is shared by the roots of a T probe, so every probe fails
    eps = Epsilon(1, 10)
    items = [Item(0, HEAVY), Item(1, HEAVY)] + [Item(j, LIGHT) for j in range(2, 32)]
    inst = Instance(eps, items, [[0, 1], [0, 1], [0, 1, *range(2, 17)],
                                 [0, 1, *range(17, 32)]])
    base_val, base_alloc = flowkit.baseline_solve(inst)
    full = solve(inst)
    assert full.value.key(eps) > base_val.key(eps)
    rep = solve(inst, budget=1)
    assert rep.algo == f"{full.algo}(baseline)"
    assert (rep.value, rep.allocation) == (base_val, base_alloc)


def test_integer_sizes_match_float_formulas():
    # the analysis's float forms, over k, r <= 10^5
    for k in range(1, 10**5 + 1):
        float_r = max(-(-k // 9), math.ceil((k - 10) / (3 + 2 * math.sqrt(2))), 1)
        assert lazysearch._poly_r(k) == float_r, k
    for r in range(1, 10**5 + 1):
        float_p = math.ceil((2 + math.sqrt(2)) * r) - 1
        assert lazysearch._p_candidates(r, 10**6) == [3 * r - 1, float_p], r


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lazysearch.Params(3, 3).validate(9)
        with pytest.raises(ValueError):
            lazysearch.Params(2, 5).validate(5)
        lazysearch.Params(2, 5).validate(6)
