import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxminalloc import clp, exact, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import (
    Epsilon, HEAVY, Instance, Item, LIGHT, k_of, min_value,
)

from oracles import midpoint_first

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

    def test_forced_chain(self):
        # agent i wants heavy items i and i + 1: items 0 and n start at
        # degree 1, the smaller goes first, and each pick makes the next
        # item degree 1, so all n agents are forced one after another
        n = 1000
        inst = Instance(Epsilon(1, 3), [Item(j, HEAVY) for j in range(n + 1)],
                        [[i, i + 1] for i in range(n)])
        agents, heavy, forced, matching = lazysearch.preprocess(inst)
        assert forced == {i: i for i in range(n)}
        assert agents == set() and heavy == {n} and matching == {}


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

    def test_one_digraph_per_probe(self, monkeypatch):
        # several roots, whose collapses reverse heavy paths: the probe builds
        # one digraph and updates it, and each invariant check builds its own
        builds, checks, reversed_arcs = [], [], []
        init = flowkit.ResidualDigraph.__init__
        check = lazysearch.LazyState.check_invariants
        reverse = lazysearch._reverse_path

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        def counting_check(self):
            checks.append(1)
            check(self)

        def counting_reverse(state, path):
            reversed_arcs.append(len(path) - 1)
            reverse(state, path)

        monkeypatch.setattr(flowkit.ResidualDigraph, "__init__", counting_init)
        monkeypatch.setattr(lazysearch.LazyState, "check_invariants", counting_check)
        monkeypatch.setattr(lazysearch, "_reverse_path", counting_reverse)
        inst = gen.gen_random(5, 3, 8, 0.6, Epsilon(1, 4), 3)
        outcome, _, stats = lazysearch._probe(inst, lazysearch.Params(1, 2), 1000,
                                              lazysearch.preprocess(inst))
        assert outcome == lazysearch.MATCHED
        assert stats.collapses >= 2 and sum(reversed_arcs) >= 6
        assert len(builds) == 1 + len(checks)

    def test_root_direct_builds_one_digraph(self, monkeypatch):
        # compute_W, a layer scan continuing its flow, compute_W again on
        # the same digraph, then the layer-0 collapse
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

    def test_unflipped_digraph_is_stale(self, monkeypatch):
        # the layer-1 collapse below moves heavy item 0 from agent 2 to
        # agent 1; without the in-place flips the check after it sees the
        # digraph of the old matching
        monkeypatch.setattr(flowkit.ResidualDigraph, "flip", lambda self, agent, item: None)
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 7)],
            [[1, 2, 3], [0, 1, 2], [0, 4, 5, 6]],
        )
        M = {1: (L, frozenset({1, 2})), 2: (H, frozenset({0}))}
        with pytest.raises(lazysearch.LazyInvariantError, match="residual digraph is stale"):
            lazysearch.extend_matching_poly(inst, M, 0, lazysearch.Params(r=2, p=3))

    def test_one_layer_scan(self, monkeypatch):
        # the root direct case and agent 2, whose lights no path reaches:
        # the scan adds agent 1's edge to I and reads the lowest free
        # lights of agents 0 and 1 once each, and never those of agent 2
        calls = []
        lowest_free = lazysearch.lowest_free

        def counting_lowest_free(items, taken, count):
            calls.append(tuple(items))
            return lowest_free(items, taken, count)

        monkeypatch.setattr(lazysearch, "lowest_free", counting_lowest_free)
        inst = Instance(
            Epsilon(1, 4),
            [Item(0, HEAVY)] + [Item(j, LIGHT) for j in range(1, 8)],
            [[0], [0, 1, 2, 3, 4], [5, 6, 7]],
        )
        state = lazysearch.LazyState(inst, {1: (H, frozenset({0}))}, 0,
                                     lazysearch.Params(r=2, p=3), {0, 1, 2}, {0})
        _, _, pf = lazysearch.compute_W(state)
        assert lazysearch.build_layer(state, pf) == (1, 0)
        assert calls == [(), (1, 2, 3, 4)]

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


@contextmanager
def checked_digraphs():
    """After every collapse, compare the digraph the search updated in
    place with a fresh build of the matching: its arcs and its node-split
    network.  Yields a list that gets, per probe, the set of digraphs its
    collapses used."""
    collapse, probe = lazysearch.collapse, lazysearch._probe
    used = []

    def checked_probe(*args):
        used.append(set())
        return probe(*args)

    def checked_collapse(state, *args):
        out = collapse(state, *args)
        g = state.digraph
        fresh = flowkit.ResidualDigraph(state.inst, state.heavy_matching(), state.agents,
                                        state.heavy_items)
        assert g.arcs == fresh.arcs
        fl, want = g.flow, fresh.flow
        assert (fl.head, fl.cap, fl.adj) == (want.head, want.cap, want.adj)
        used[-1].add(id(g))
        return out

    lazysearch.collapse, lazysearch._probe = checked_collapse, checked_probe
    try:
        yield used
    finally:
        lazysearch.collapse, lazysearch._probe = collapse, probe


epsilons = st.builds(lambda q, p: Epsilon(p, q) if p < q else Epsilon(1, q),
                     st.integers(2, 8), st.integers(1, 3))


class TestDigraphInPlace:
    # Each @example reverses heavy paths of several arcs in its collapses.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.6, 1.0]), epsilons, st.integers(0, 2**30))
    @example(5, 3, 8, 0.6, Epsilon(1, 4), 3)
    @example(8, 5, 16, 0.6, Epsilon(1, 4), 61)
    def test_random_matches_fresh_build(self, n, mh, ml, density, eps, seed):
        with checked_digraphs() as used:
            lazysearch.poly_solve(gen.gen_random(n, mh, ml, density, eps, seed))
        assert all(len(digraphs) <= 1 for digraphs in used)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(3, 12), st.integers(1, 12), st.integers(0, 2**30))
    @example(16, 10, 10, 7)
    def test_noisy_planted_matches_fresh_build(self, planted, n, q, k, seed):
        inst, _, _ = planted.planted_instance(n, Epsilon(1, q), min(k, q), seed, True)
        with checked_digraphs() as used:
            lazysearch.poly_solve(inst)
        assert all(len(digraphs) <= 1 for digraphs in used)


class TestPolySolve:
    def test_ratio_on_random(self, corpus):
        for inst in corpus[::13]:
            eps = inst.epsilon
            opt_v, _ = exact.opt(inst)
            rep = lazysearch.poly_solve(inst)
            assert 9 * rep.value.as_fraction(eps) >= opt_v.as_fraction(eps)
            assert min_value(inst, rep.allocation).key(eps) >= rep.value.key(eps)

    def test_precomputed_baseline_same_report(self, search_inputs, monkeypatch):
        # without one, the search skips the baseline where it cannot win
        real, calls = flowkit.baseline_solve, []
        monkeypatch.setattr(flowkit, "baseline_solve", lambda inst: calls.append(inst) or real(inst))
        skipped = 0
        for inst in search_inputs:
            del calls[:]
            rep = lazysearch.poly_solve(inst)
            skipped += not calls
            assert lazysearch.poly_solve(inst, baseline=real(inst)) == rep
        assert 0 < skipped < len(search_inputs)

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


SOLVES = {"quasi": treesearch.quasi_solve, "poly": lazysearch.poly_solve}


def unmemoized_report(inst, algo, budget):
    """The reference search: a walk over T values, not bundle sizes.

    oracles.midpoint_first over the T candidates, with a probe that runs
    the solver's _probe on every T it is asked about (a T whose k has no
    poly size p fails without a probe), and the better of its answer and
    the baseline."""
    eps = inst.epsilon
    interests = clp.SupportHypergraph.of_interests(inst)

    def raw_probe(T):
        k = k_of(T, eps)
        if algo == "quasi":
            r = treesearch._quasi_r(k, eps)
            outcome, M, stats = treesearch._probe(inst, r, interests, budget)
            if outcome == lazysearch.MATCHED:
                return r, treesearch.matching_allocation(M), stats.iterations, {}
            return None
        r = lazysearch._poly_r(k)
        for p in lazysearch._p_candidates(r, k):
            outcome, alloc, stats = lazysearch._probe(inst, lazysearch.Params(r, p), budget,
                                                      lazysearch.preprocess(inst))
            if outcome == lazysearch.MATCHED:
                meta = {"p": p, "layers_peak": stats.layers_peak, "collapses": stats.collapses}
                return r, alloc, stats.iterations, meta
        return None

    base_val, base_alloc = flowkit.baseline_solve(inst)
    cands = treesearch.t_probe_candidates(inst)
    idx, found = midpoint_first(cands, raw_probe)
    if found is None:
        return treesearch.SolveReport(base_val, base_alloc, f"{algo}(baseline)")
    r, alloc, iterations, meta = found
    value = min_value(inst, alloc)
    if value.key(eps) <= base_val.key(eps):
        value, alloc, algo = base_val, base_alloc, f"{algo}(baseline)"
    return treesearch.SolveReport(value, alloc, algo, cands[idx], r, iterations, meta)


@contextmanager
def probe_keys():
    """Record the key of every _probe call: r for the tree search, Params
    for the layered one."""
    tree, lazy = treesearch._probe, lazysearch._probe
    keys = []

    def tree_probe(inst, r, *args):
        keys.append(r)
        return tree(inst, r, *args)

    def lazy_probe(inst, params, *args):
        keys.append(params)
        return lazy(inst, params, *args)

    treesearch._probe, lazysearch._probe = tree_probe, lazy_probe
    try:
        yield keys
    finally:
        treesearch._probe, lazysearch._probe = tree, lazy


def top_key(inst, algo):
    """The largest bundle size r of the T candidates that has a probe."""
    eps = inst.epsilon
    rs = [0]
    for T in treesearch.t_probe_candidates(inst):
        k = k_of(T, eps)
        if algo == "quasi":
            rs.append(treesearch._quasi_r(k, eps))
        elif lazysearch._p_candidates(lazysearch._poly_r(k), k):
            rs.append(lazysearch._poly_r(k))
    return max(rs)


def check_against_t_walk(inst, budget):
    """Each solve probes a key at most once, and only the top r when the
    top passes.  quasi reports what the walk over T values reports, or
    the top passed and its value is no lower; poly reports a value at
    least the walk's.  Returns how many probes the walks over T values
    repeat."""
    repeats = 0
    for algo, solve in SOLVES.items():
        with probe_keys() as keys:
            rep = solve(inst, budget)
        assert len(keys) == len(set(keys)), (algo, keys)
        top = top_key(inst, algo)
        if rep.r == top:
            assert {getattr(key, "r", key) for key in keys} == {top}, (algo, keys)
        with probe_keys() as raw_keys:
            ref = unmemoized_report(inst, algo, budget)
        if algo == "quasi" and rep.r != top:
            assert rep == ref
        assert rep.value.key(inst.epsilon) >= ref.value.key(inst.epsilon)
        repeats += len(raw_keys) - len(set(raw_keys))
    return repeats


budgets = st.sampled_from([1, 6, treesearch.DEFAULT_BUDGET])


class TestKeySearch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.6, 1.0]), epsilons, st.integers(0, 2**30), budgets)
    def test_random_against_t_walk(self, n, mh, ml, density, eps, seed, budget):
        check_against_t_walk(gen.gen_random(n, mh, ml, density, eps, seed), budget)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 16), st.integers(3, 12), st.integers(1, 12), st.integers(0, 2**30),
           budgets)
    def test_noisy_planted_against_t_walk(self, planted, n, q, k, seed, budget):
        inst, _, _ = planted.planted_instance(n, Epsilon(1, q), min(k, q), seed, True)
        check_against_t_walk(inst, budget)

    def test_repeated_keys_run_once(self, planted):
        # at eps = 1/8 every candidate T has r <= 2; the poly top r = 2
        # fails at both p, so the key search goes on to r = 1, and the walk
        # over T values repeats its keys
        inst, _, _ = planted.planted_instance(12, Epsilon(1, 8), 3, 2, True)
        with probe_keys() as keys:
            assert lazysearch.poly_solve(inst).r == 1
        assert keys == [lazysearch.Params(2, 5), lazysearch.Params(2, 6),
                        lazysearch.Params(1, 2)]
        assert check_against_t_walk(inst, treesearch.DEFAULT_BUDGET) > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.6, 1.0]), epsilons, st.integers(0, 2**30),
           st.floats(0, 1, exclude_max=True), budgets)
    def test_probe_is_deterministic(self, n, mh, ml, density, eps, seed, at, budget):
        # what lets a key search stand in for the walk over T values: a
        # second _probe with the same arguments returns what the first did
        inst = gen.gen_random(n, mh, ml, density, eps, seed)
        cands = treesearch.t_probe_candidates(inst)
        assume(cands)
        k = k_of(cands[int(at * len(cands))], eps)
        interests = clp.SupportHypergraph.of_interests(inst)
        r = treesearch._quasi_r(k, eps)
        runs = [treesearch._probe(inst, r, interests, budget) for _ in range(2)]
        first, second = [(outcome, treesearch.matching_allocation(M), stats.iterations)
                         for outcome, M, stats in runs]
        assert first == second
        r = lazysearch._poly_r(k)
        for p in lazysearch._p_candidates(r, k):
            runs = [lazysearch._probe(inst, lazysearch.Params(r, p), budget,
                                      lazysearch.preprocess(inst)) for _ in range(2)]
            first, second = [(outcome, alloc, stats.iterations) for outcome, alloc, stats in runs]
            assert first == second


def check_shared_preprocess(inst, budget):
    """Every (r, p) probe over the T candidates, run in turn from one
    preprocess result, answers as a probe from a fresh result, and leaves
    the shared one as preprocess gives it."""
    eps = inst.epsilon
    keys = []
    for T in treesearch.t_probe_candidates(inst):
        k = k_of(T, eps)
        r = lazysearch._poly_r(k)
        keys += [lazysearch.Params(r, p) for p in lazysearch._p_candidates(r, k)]
    pre = lazysearch.preprocess(inst)
    for params in dict.fromkeys(keys):
        shared = lazysearch._probe(inst, params, budget, pre)
        assert shared == lazysearch._probe(inst, params, budget,
                                           lazysearch.preprocess(inst)), params
    assert pre == lazysearch.preprocess(inst)


class TestSharedPreprocess:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 20),
           st.sampled_from([0.3, 0.6, 1.0]), epsilons, st.integers(0, 2**30), budgets)
    def test_random_same_probe(self, n, mh, ml, density, eps, seed, budget):
        check_shared_preprocess(gen.gen_random(n, mh, ml, density, eps, seed), budget)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 16), st.integers(3, 12), st.integers(1, 12), st.integers(0, 2**30),
           budgets)
    def test_noisy_planted_same_probe(self, planted, n, q, k, seed, budget):
        inst, _, _ = planted.planted_instance(n, Epsilon(1, q), min(k, q), seed, True)
        check_shared_preprocess(inst, budget)

    def test_result_is_read_only(self):
        inst = gen.gen_random(4, 4, 6, 0.6, Epsilon(1, 3), 2)
        agents, heavy, forced, matching = lazysearch.preprocess(inst)
        assert isinstance(agents, frozenset) and isinstance(heavy, frozenset)
        for mapping in (forced, matching):
            with pytest.raises(TypeError):
                mapping[0] = 0

    def test_once_per_solve(self, planted, monkeypatch):
        calls = []
        real = lazysearch.preprocess

        def counted(inst):
            calls.append(inst)
            return real(inst)

        monkeypatch.setattr(lazysearch, "preprocess", counted)
        # at eps = 1/10 the top r = 2 fails at p = 5 and 6, and the search
        # goes on to (r, p) = (1, 2)
        inst, _, _ = planted.planted_instance(12, Epsilon(1, 10), 3, 2, True)
        with probe_keys() as keys:
            lazysearch.poly_solve(inst)
        assert keys == [lazysearch.Params(2, 5), lazysearch.Params(2, 6),
                        lazysearch.Params(1, 2)]
        assert calls == [inst]
        # at eps = 1/2 the candidates are T = 1/2, 1, 3/2 (k = 1, 2, 3); only
        # k = 3 has a size p in (r, k), so the search's one key is r = 1,
        # probed at p = 2
        del calls[:]
        inst = gen.gen_random(4, 2, 6, 0.6, Epsilon(1, 2), 0)
        with probe_keys() as keys:
            lazysearch.poly_solve(inst)
        assert keys == [lazysearch.Params(1, 2)] and calls == [inst]


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
