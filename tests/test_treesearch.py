import random

import pytest

from maxminalloc import clp, exact, flowkit, gen, treesearch
from maxminalloc.model import (
    Epsilon,
    HEAVY,
    Instance,
    Item,
    LIGHT,
    LatticeValue,
    min_value,
)


class TestExtendMatching:
    def test_direct_heavy(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0]])
        M, owner = {}, {}
        out = treesearch.extend_matching(inst, M, owner, 0, r=1)
        assert out == treesearch.MATCHED
        assert M[0] == (treesearch.HEAVY_KIND, frozenset({0}))

    def test_single_eviction_chain(self):
        # agent 1 holds the only heavy item; agent 0 needs it, agent 1 can
        # fall back to two lights, so one contraction cascades to the root.
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT)],
            [[0], [0, 1, 2]],
        )
        M = {1: (treesearch.HEAVY_KIND, frozenset({0}))}
        owner = {0: 1}
        out = treesearch.extend_matching(inst, M, owner, 0, r=2)
        assert out == treesearch.MATCHED
        assert M[0] == (treesearch.HEAVY_KIND, frozenset({0}))
        assert M[1] == (treesearch.LIGHT_KIND, frozenset({1, 2}))

    def test_budget_exceeded_leaves_matching(self):
        # the chain above needs a grow step before its contraction
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT)],
            [[0], [0, 1, 2]],
        )
        M = {1: (treesearch.HEAVY_KIND, frozenset({0}))}
        owner = {0: 1}
        out = treesearch.extend_matching(inst, M, owner, 0, r=2, budget=1)
        assert out == treesearch.BUDGET_EXCEEDED
        assert M == {1: (treesearch.HEAVY_KIND, frozenset({0}))}
        assert owner == {0: 1}

    def test_stall_when_impossible(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0], [0]])
        M = {1: (treesearch.HEAVY_KIND, frozenset({0}))}
        out = treesearch.extend_matching(inst, M, {0: 1}, 0, r=1)
        assert out == treesearch.STALLED
        assert M == {1: (treesearch.HEAVY_KIND, frozenset({0}))}

    @pytest.mark.parametrize("policy", [treesearch.ARBITRARY, treesearch.CLOSEST])
    def test_3dm_yes_fully_matches(self, policy):
        # r = 1 is within the guarantee at T = OPT = 2*eps (k = 2)
        eps = Epsilon(1, 2)
        for seed in range(4):
            h, _ = gen.gen_3dm_yes(3, 3, seed=seed)
            inst = gen.reduce_3dm(h, eps)
            M, owner = {}, {}
            for i0 in range(inst.n):
                out = treesearch.extend_matching(inst, M, owner, i0, r=1, policy=policy)
                assert out == treesearch.MATCHED
            alloc = treesearch.matching_allocation(M)
            assert min_value(inst, alloc).key(eps) >= LatticeValue(0, 1).key(eps)


class TestQuasiSolve:
    def test_ratio_on_random(self, corpus):
        for inst in corpus[::13]:
            eps = inst.epsilon
            opt_v, _ = exact.opt(inst)
            rep = treesearch.quasi_solve(inst)
            bound = opt_v.as_fraction(eps) / (3 + 4 * eps.fraction)
            assert rep.value.as_fraction(eps) >= bound
            assert min_value(inst, rep.allocation).key(eps) >= rep.value.key(eps)

    def test_precomputed_baseline_same_report(self, corpus):
        for inst in corpus[::13]:
            baseline = flowkit.baseline_solve(inst)
            assert treesearch.quasi_solve(inst, baseline=baseline) == treesearch.quasi_solve(inst)

    def test_empty_interests(self):
        inst = Instance(Epsilon(1, 2), [Item(0, LIGHT)], [[0], []])
        rep = treesearch.quasi_solve(inst)
        assert rep.value.is_zero()

    def test_baseline_fallback_reports_probe_iterations(self):
        # the probe at T = 3/2 passes, but its allocation does not beat the
        # baseline's two lights per agent
        inst = Instance(Epsilon(1, 2), [Item(j, LIGHT) for j in range(4)],
                        [[0, 1, 2, 3], [0, 1, 2, 3]])
        rep = treesearch.quasi_solve(inst)
        assert rep.algo == "quasi(baseline)"
        assert (rep.certified_T, rep.r) == (LatticeValue(0, 3), 1)
        # against an empty baseline the same probe wins and reports its own count
        won = treesearch.quasi_solve(inst, baseline=(LatticeValue(0, 0), {0: frozenset(),
                                                                         1: frozenset()}))
        assert won.algo == "quasi" and won.certified_T == rep.certified_T
        assert rep.iterations == won.iterations > 0


class TestGap3Certify:
    def test_never_stalls_and_meets_third(self, corpus):
        for inst in corpus[::17]:
            eps = inst.epsilon
            tstar = clp.estimate_Tstar(inst)
            if tstar.is_zero():
                continue
            res = clp.solve_clp(inst, tstar)
            alloc = treesearch.gap3_certify(inst, res, tstar)
            achieved = min_value(inst, alloc).as_fraction(eps)
            assert 3 * achieved >= tstar.as_fraction(eps)
