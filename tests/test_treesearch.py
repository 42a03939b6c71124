import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxminalloc import clp, exact, flowkit, gen, lazysearch, treesearch
from maxminalloc.model import (
    Epsilon,
    HEAVY,
    Instance,
    Item,
    LIGHT,
    LatticeValue,
    k_of,
    last_feasible,
    min_value,
)

from oracles import (
    brute_candidates, brute_signature, bundle_weight, midpoint_first, milp_opt,
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

    def test_3dm_yes_fully_matches(self):
        # r = 1 is within the guarantee at T = OPT = 2*eps (k = 2)
        eps = Epsilon(1, 2)
        for seed in range(4):
            h, _ = gen.gen_3dm_yes(3, 3, seed=seed)
            inst = gen.reduce_3dm(h, eps)
            M, owner = {}, {}
            for i0 in range(inst.n):
                out = treesearch.extend_matching(inst, M, owner, i0, r=1)
                assert out == treesearch.MATCHED
            alloc = treesearch.matching_allocation(M)
            assert min_value(inst, alloc).key(eps) >= LatticeValue(0, 1).key(eps)


class TestCheckStructure:
    @staticmethod
    def grown_tree():
        # one step: the root's heavy edge, blocked by agent 1; agent 2 is
        # matched but stays outside the tree
        inst = Instance(
            Epsilon(1, 2),
            [Item(0, HEAVY), Item(1, LIGHT), Item(2, LIGHT), Item(3, LIGHT)],
            [[0], [0, 1, 2], [3]],
        )
        M = {1: (treesearch.HEAVY_KIND, frozenset({0})),
             2: (treesearch.LIGHT_KIND, frozenset({1}))}
        table = clp.SupportHypergraph.of_interests(inst)
        state = treesearch.TreeState(M, {0: 1, 1: 2}, 0, 2, table)
        cand = treesearch.find_addable(state)
        treesearch.add_edge(state, cand, state.blocking_of(cand.items))
        state.check_structure()
        return state

    def test_edge_of_an_agent_outside_the_tree(self):
        state = self.grown_tree()
        state.edges.append(treesearch.AddEdge(2, frozenset({3}), treesearch.LIGHT_KIND, 1))
        with pytest.raises(treesearch.TreeInvariantError, match="agent outside the tree"):
            state.check_structure()

    def test_edge_lists_a_blocker_the_tree_dropped(self):
        state = self.grown_tree()
        del state.blockers[1]
        with pytest.raises(treesearch.TreeInvariantError, match="blocker outside the tree"):
            state.check_structure()

    def test_signature_counts_off_by_one(self):
        state = self.grown_tree()
        assert state.signature() == (-1, 1, math.inf)
        state._coords[0] -= 1  # one edge at distance 0 more than the tree holds
        with pytest.raises(treesearch.TreeInvariantError, match="signature counts"):
            state.check_structure()

    def test_edge_past_the_signature_counts(self):
        # a light edge of the blocker at distance 1, which no count saw
        state = self.grown_tree()
        state.edges.append(treesearch.AddEdge(1, frozenset({1, 2}), treesearch.LIGHT_KIND, 1))
        with pytest.raises(treesearch.TreeInvariantError, match="signature counts"):
            state.check_structure()


class TestQuasiSolve:
    def test_ratio_on_random(self, corpus):
        for inst in corpus[::13]:
            eps = inst.epsilon
            opt_v, _ = exact.opt(inst)
            rep = treesearch.quasi_solve(inst)
            bound = opt_v.as_fraction(eps) / (3 + 4 * eps.fraction)
            assert rep.value.as_fraction(eps) >= bound
            assert min_value(inst, rep.allocation).key(eps) >= rep.value.key(eps)

    def test_precomputed_baseline_same_report(self, search_inputs, monkeypatch):
        # without one, the search skips the baseline where it cannot win
        real, calls = flowkit.baseline_solve, []
        monkeypatch.setattr(flowkit, "baseline_solve", lambda inst: calls.append(inst) or real(inst))
        skipped = 0
        for inst in search_inputs:
            del calls[:]
            rep = treesearch.quasi_solve(inst)
            skipped += not calls
            assert treesearch.quasi_solve(inst, baseline=real(inst)) == rep
        assert 0 < skipped < len(search_inputs)

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


def test_baseline_solved_only_where_it_can_win(planted, monkeypatch):
    # on planted instances the baseline holds one item per agent (eps)
    # and half the agents want no heavy item, so its ceiling is top*eps
    real, calls = flowkit.baseline_solve, []
    monkeypatch.setattr(flowkit, "baseline_solve", lambda inst: calls.append(inst) or real(inst))
    inst, _, _ = planted.planted_instance(20, Epsilon(1, 10), 10, 3, False)
    rep = treesearch.quasi_solve(inst)
    # 5/10 > the ceiling 3/10
    assert (rep.algo, rep.value, flowkit.baseline_ceiling(inst)) == (
        "quasi", LatticeValue(0, 5), LatticeValue(0, 3))
    assert calls == []
    inst, _, _ = planted.planted_instance(20, Epsilon(1, 4), 4, 3, False)
    rep = lazysearch.poly_solve(inst)
    # 1/4 is below the ceiling 2/4, and ties the baseline, which wins
    assert (rep.algo, rep.value, flowkit.baseline_ceiling(inst)) == (
        "poly(baseline)", LatticeValue(0, 1), LatticeValue(0, 2))
    assert calls == [inst]


class TestTopFirst:
    @staticmethod
    def run(search, passes):
        """Search range(len(passes)) with a probe passing where passes[v];
        payload v * 10.  Returns the answer and the values asked, in order."""
        seen = []

        def probe(v):
            seen.append(v)
            return v * 10 if passes[v] else None

        return search(range(len(passes)), probe), seen

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_prefix_probes_answer_as_last_feasible(self, n, data):
        passing = data.draw(st.integers(0, n))
        passes = [v < passing for v in range(n)]
        got, seen = self.run(treesearch.top_first, passes)
        want, plain = self.run(last_feasible, passes)
        assert got == want
        assert len(set(seen) - set(plain)) <= 1
        assert set(seen) <= set(plain) | {n - 1}

    @given(st.integers(1, 40))
    def test_all_pass_asks_only_the_top(self, n):
        got, seen = self.run(treesearch.top_first, [True] * n)
        assert got == (n - 1, (n - 1) * 10)
        assert seen == [n - 1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=40))
    def test_any_pass_set_gives_a_passing_index_no_lower(self, passes):
        (idx, payload), _ = self.run(treesearch.top_first, passes)
        (plain_idx, _), _ = self.run(last_feasible, passes)
        assert idx >= plain_idx
        if idx >= 0:
            assert passes[idx] and payload == idx * 10
        else:
            assert payload is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=40))
    def test_no_value_asked_twice(self, passes):
        _, seen = self.run(treesearch.top_first, passes)
        assert len(seen) == len(set(seen))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_failing_top_walks_as_midpoint_first(self, passes):
        passes[-1] = False
        got, seen = self.run(treesearch.top_first, passes)
        want, ref_seen = self.run(midpoint_first, passes)
        top = len(passes) - 1
        assert got == want
        assert seen == [top] + [v for v in ref_seen if v != top]

    def test_failing_top_example(self):
        # top 9 fails, mid 4 passes; the walk above 4 then asks 7, 5, 6
        # (and would ask 9 only when it is the last value left)
        passes = [v < 7 for v in range(10)]
        assert self.run(midpoint_first, passes) == ((6, 60), [4, 9, 7, 5, 6])
        assert self.run(treesearch.top_first, passes) == ((6, 60), [9, 4, 7, 5, 6])


def fault_f1_instance():
    """The input on which the timestamp cut raised TreeInvariantError."""
    return gen.gen_random(80, 40, 400, 0.05, Epsilon(1, 10), seed=0)


class TestFaultF1:
    def test_quasi_solve_certifies_three_halves(self):
        rep = treesearch.quasi_solve(fault_f1_instance())
        assert rep.algo == "quasi(baseline)"
        assert rep.certified_T.as_fraction(Epsilon(1, 10)) == Fraction(3, 2)
        assert rep.r == 5


eps_to_30 = st.builds(lambda q, p: Epsilon(p, q) if p < q else Epsilon(1, q),
                      st.integers(2, 30), st.integers(1, 3))
planted_specs = st.tuples(st.just("planted"), st.integers(2, 16), st.integers(2, 30),
                          st.integers(1, 30), st.integers(0, 2**30))
random_specs = st.tuples(st.just("random"), st.integers(1, 4), st.integers(0, 5),
                         st.integers(0, 12), st.sampled_from([0.3, 0.6, 1.0]), eps_to_30,
                         st.integers(0, 2**30))


class TestQuasiRatio:
    # Only where OPT <= 3/2: above it the search certifies at most 3/2,
    # which can fall below OPT/(3+4eps) (fault F3).
    # The @examples raised TreeInvariantError under the timestamp cut.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(planted_specs, random_specs))
    @example(("planted", 9, 11, 11, 427111572))
    @example(("random", 4, 0, 11, 0.6, Epsilon(1, 16), 587755597))
    def test_value_at_least_opt_over_3_plus_4eps(self, planted, spec):
        if spec[0] == "planted":
            _, n, q, k, seed = spec
            # as many lights as keep m within the exact cap
            k = min(k, q, (exact.DEFAULT_SIZE_CAP - n // 2) // (n - n // 2))
            inst, _, _ = planted.planted_instance(n, Epsilon(1, q), k, seed, True)
        else:
            inst = gen.gen_random(*spec[1:])
        assert inst.m <= exact.DEFAULT_SIZE_CAP
        opt = milp_opt(inst)
        assume(opt <= Fraction(3, 2))
        rep = treesearch.quasi_solve(inst)
        eps = inst.epsilon
        taken = [j for items in rep.allocation.values() for j in items]
        assert len(taken) == len(set(taken))
        assert all(rep.allocation.get(i, frozenset()) <= inst.interests[i] for i in range(inst.n))
        value = min(bundle_weight(inst, rep.allocation.get(i, ())) for i in range(inst.n))
        assert value >= rep.value.as_fraction(eps) >= opt / (3 + 4 * eps.fraction)


def f3_instance(q):
    """Agent 0 wants heavy items {0, 1}, agent 1 wants 2/eps light items:
    OPT = 2, above the T = 3/2 where both searches stop probing."""
    lights = range(2, 2 + 2 * q)
    items = [Item(0, HEAVY), Item(1, HEAVY)] + [Item(j, LIGHT) for j in lights]
    return Instance(Epsilon(1, q), items, [[0, 1], list(lights)])


F3 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="F3, ROADMAP item 1")


class TestF3:
    # Where OPT = 2, quasi returns 1/2 and poly the baseline's 2*eps; at
    # eps = 1/6 poly's 1/3 still meets OPT/9 = 2/9, so that case runs unmarked.
    @F3
    @pytest.mark.parametrize("q", [6, 10])
    def test_quasi_at_least_opt_over_3_plus_4eps(self, q):
        inst = f3_instance(q)
        eps = inst.epsilon.fraction
        opt = milp_opt(inst)
        assert opt == 2
        assert treesearch.quasi_solve(inst).value.as_fraction(inst.epsilon) >= opt / (3 + 4 * eps)

    @pytest.mark.parametrize("q", [6, pytest.param(10, marks=F3)])
    def test_poly_at_least_opt_over_9(self, q):
        inst = f3_instance(q)
        opt = milp_opt(inst)
        assert opt == 2
        assert lazysearch.poly_solve(inst).value.as_fraction(inst.epsilon) >= opt / 9


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
    candidates with brute_candidates and its pick with their least under
    (dist, agent, items), every step's signature with brute_signature,
    and every cut of a contraction, cascade steps included, pass
    check_structure; yields a list that gets each checked step's
    candidate count.  Between two picks in one tree, signature() runs
    exactly once."""
    original = treesearch.find_addable
    signature = treesearch.TreeState.signature
    rebuild = treesearch.TreeState.rebuild_items
    steps = []
    last = {"state": None, "signatures": 0}

    def checked(state):
        cands = state.candidates()
        brute = brute_candidates(state)
        assert [(c.agent, c.items, c.kind, c.dist) for c in cands] == brute
        if last["state"] is state:
            assert last["signatures"] == 1
        last.update(state=state, signatures=0)
        steps.append(len(cands))
        pick = original(state)
        least = min(((dist, agent, items) for agent, items, _, dist in brute), default=None)
        assert (pick and (pick.dist, pick.agent, pick.items)) == least
        return pick

    def checked_signature(state):
        last["signatures"] += 1
        sig = signature(state)
        assert sig == brute_signature(state)
        return sig

    def checked_rebuild(state):
        rebuild(state)
        state.check_structure()

    treesearch.find_addable = checked
    treesearch.TreeState.signature = checked_signature
    treesearch.TreeState.rebuild_items = checked_rebuild
    try:
        yield steps
    finally:
        treesearch.find_addable = original
        treesearch.TreeState.signature = signature
        treesearch.TreeState.rebuild_items = rebuild


def quasi_checked(inst):
    """quasi_solve with every step checked."""
    with checked_steps() as steps:
        treesearch.quasi_solve(inst)
    return steps


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
           st.integers(1, 3), st.integers(0, 2**30))
    def test_several_light_pools_match_oracle(self, n, mh, ml, r, seed):
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
        with checked_steps():
            treesearch._probe(inst, r, table, budget=2000)

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
