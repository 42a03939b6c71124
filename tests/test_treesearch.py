import importlib
import random
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from maxminalloc import clp, exact, flowkit, gen, treesearch
from maxminalloc.model import (
    Epsilon,
    HEAVY,
    Instance,
    Item,
    LIGHT,
    LatticeValue,
    k_of,
    min_value,
)

from oracles import brute_candidates, brute_signature

BENCH = Path(__file__).resolve().parent.parent / "bench"


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

    def test_one_rebuild_per_cascade_step(self, monkeypatch):
        # the chain above: the contraction at agent 1 empties the root's
        # heavy edge, and the cascade then matches the root
        rebuilds = []
        rebuild = treesearch.TreeState.rebuild_items

        def counting_rebuild(self):
            rebuilds.append(1)
            rebuild(self)

        monkeypatch.setattr(treesearch.TreeState, "rebuild_items", counting_rebuild)
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT)],
            [[0], [0, 1, 2]],
        )
        M = {1: (treesearch.HEAVY_KIND, frozenset({0}))}
        stats = treesearch.ExtendStats()
        out = treesearch.extend_matching(inst, M, {0: 1}, 0, r=2, stats=stats)
        assert (out, stats.contractions) == (treesearch.MATCHED, 1)
        assert len(rebuilds) == 1

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


@contextmanager
def checked_steps():
    """Make every find_addable call first compare the tree's cached
    candidates with brute_candidates, and every step's signature with
    brute_signature; yields a list that gets each checked step's
    candidate count."""
    original = treesearch.find_addable
    signature = treesearch.TreeState.signature
    steps = []

    def checked(state):
        cands = state.candidates()
        assert [(c.agent, c.items, c.kind, c.dist) for c in cands] == brute_candidates(state)
        steps.append(len(cands))
        return original(state)

    def checked_signature(state):
        sig = signature(state)
        assert sig == brute_signature(state)
        return sig

    treesearch.find_addable = checked
    treesearch.TreeState.signature = checked_signature
    try:
        yield steps
    finally:
        treesearch.find_addable = original
        treesearch.TreeState.signature = signature


@contextmanager
def allowing_f1():
    """Fault F1, a CLOSEST signature that does not decrease, may end the
    search, once every step before it matched."""
    try:
        yield
    except treesearch.TreeInvariantError as exc:
        assert str(exc).startswith("signature did not decrease"), exc


def quasi_checked(inst):
    """quasi_solve with every step checked."""
    with checked_steps() as steps, allowing_f1():
        treesearch.quasi_solve(inst)
    return steps


@pytest.fixture(scope="module")
def planted():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("planted")


epsilons = st.builds(lambda q, p: Epsilon(p, q) if p < q else Epsilon(1, q),
                     st.integers(2, 8), st.integers(1, 3))


class TestCandidateCache:
    # Every step also checks the tree's signature against brute_signature.
    # Each @example has a contraction that leaves part of the tree standing
    # and frees items below a cached pick: candidates kept across it differ
    # from the oracle's.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.5, 0.7, 1.0]), epsilons, st.integers(0, 2**30))
    @example(3, 1, 12, 0.5, Epsilon(1, 7), 526503463)
    def test_random_matches_oracle(self, n, mh, ml, density, eps, seed):
        quasi_checked(gen.gen_random(n, mh, ml, density, eps, seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(3, 12), st.integers(1, 12), st.integers(0, 2**30))
    @example(10, 6, 6, 17)
    def test_noisy_planted_matches_oracle(self, planted, n, q, k, seed):
        inst, _, _ = planted.planted_instance(n, Epsilon(1, q), min(k, q), seed, True)
        assert quasi_checked(inst)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(2, 12),
           st.sampled_from([treesearch.ARBITRARY, treesearch.CLOSEST]),
           st.integers(1, 3), st.integers(0, 2**30))
    def test_several_light_pools_match_oracle(self, n, mh, ml, policy, r, seed):
        # each agent's lights split into up to four overlapping pools of at
        # least r items, as a CLP support table has them
        rng = random.Random(seed)
        inst = gen.gen_random(n, mh, ml, 0.7, Epsilon(1, 4), seed)
        light = {}
        for i in range(inst.n):
            lights = inst.beps(i)
            if len(lights) >= r:
                light[i] = [tuple(sorted(rng.sample(lights, rng.randint(r, len(lights)))))
                            for _ in range(rng.randint(1, 4))]
        table = clp.SupportHypergraph({i: inst.b1(i) for i in range(inst.n)}, light)
        with checked_steps(), allowing_f1() if policy == treesearch.CLOSEST else nullcontext():
            treesearch._probe(inst, r, policy, table, budget=2000)

    def test_gap3_certify_matches_oracle(self, corpus):
        several = 0
        for inst in corpus[::2]:
            tstar = clp.estimate_Tstar(inst)
            if tstar.is_zero():
                continue
            res = clp.solve_clp(inst, tstar)
            support = clp.build_support_hypergraph(
                clp.minimalize(inst, res, tstar), -(-k_of(tstar, inst.epsilon) // 3))
            several += any(len(pools) > 1 for pools in support.light.values())
            with checked_steps() as steps:
                treesearch.gap3_certify(inst, res, tstar)
            assert steps
        assert several >= 10
