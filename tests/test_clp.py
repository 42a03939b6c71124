import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from maxminalloc import clp, exact, flowkit, gen, simplex
from maxminalloc.model import (
    Epsilon,
    HEAVY,
    Instance,
    Item,
    LIGHT,
    LatticeValue,
    capped_values,
    k_of,
    lattice_values,
    packing_cap,
)

from oracles import brute_min_knapsack, naive_opt, networkx_weight_feasible


class TestSeparate:
    def test_matches_exhaustive(self):
        rng = random.Random(2)
        eps_pool = [Epsilon(1, 2), Epsilon(1, 3), Epsilon(1, 4)]
        for _ in range(300):
            inst = gen.gen_random(
                1, rng.randint(0, 4), rng.randint(0, 8), 1.0,
                rng.choice(eps_pool), rng.randrange(2**30),
            )
            z = [rng.uniform(0, 1) for _ in range(inst.m)]
            T = LatticeValue(rng.randint(0, 2), rng.randint(0, 4))
            want = brute_min_knapsack(inst, 0, T.as_fraction(inst.epsilon), z)
            if want is None:
                with pytest.raises(clp.NoConfiguration):
                    clp.separate(inst, 0, T, z)
            else:
                cost, items = clp.separate(inst, 0, T, z)
                assert cost == pytest.approx(want, abs=1e-9)
                assert inst.bundle_value(items).key(inst.epsilon) >= T.key(inst.epsilon)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([Epsilon(1, 2), Epsilon(1, 3), Epsilon(2, 5), Epsilon(1, 6)]),
           st.integers(0, 4), st.integers(0, 8), st.data())
    def test_matches_exhaustive_property(self, eps, mh, ml, data):
        items = [Item(j, HEAVY) for j in range(mh)] + [Item(mh + j, LIGHT) for j in range(ml)]
        wanted = data.draw(st.sets(st.integers(0, mh + ml - 1)) if items else st.just(set()))
        inst = Instance(eps, items, [wanted])
        # few distinct prices, so that ties between items come up
        z = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1),
                               min_size=inst.m, max_size=inst.m))
        T = LatticeValue(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 6)))
        want = brute_min_knapsack(inst, 0, T.as_fraction(eps), z)
        if want is None:
            with pytest.raises(clp.NoConfiguration):
                clp.separate(inst, 0, T, z)
            return
        cost, items = clp.separate(inst, 0, T, z)
        assert cost == pytest.approx(want, abs=1e-9)
        assert items <= inst.interests[0]
        assert inst.bundle_value(items).key(eps) >= T.key(eps)
        assert sum(z[j] for j in items) == pytest.approx(cost, abs=1e-9)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([Epsilon(1, 2), Epsilon(1, 3), Epsilon(2, 5), Epsilon(1, 6)]),
           st.integers(0, 4), st.integers(0, 8), st.data())
    def test_fraction_prices_match_their_float_images(self, eps, mh, ml, data):
        items = [Item(j, HEAVY) for j in range(mh)] + [Item(mh + j, LIGHT) for j in range(ml)]
        wanted = data.draw(st.sets(st.integers(0, mh + ml - 1)) if items else st.just(set()))
        inst = Instance(eps, items, [wanted])
        # few distinct prices, so that ties between items and pairs come up
        z = data.draw(st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2)])
                               | st.fractions(0, 1, max_denominator=12),
                               min_size=inst.m, max_size=inst.m))
        T = LatticeValue(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 6)))
        try:
            cost, got = clp.separate(inst, 0, T, z)
        except clp.NoConfiguration:
            with pytest.raises(clp.NoConfiguration):
                clp.separate(inst, 0, T, [float(p) for p in z])
            return
        fcost, want = clp.separate(inst, 0, T, [float(p) for p in z])
        assert got == want
        assert cost == sum((z[j] for j in got), Fraction(0))
        assert isinstance(cost, Fraction) or not z  # no price, no type to keep
        assert float(cost) == pytest.approx(fcost, abs=1e-12)

    def test_zero_duals_cost_zero(self):
        inst = gen.gen_random(1, 1, 3, 1.0, Epsilon(1, 2), 0)
        cost, _ = clp.separate(inst, 0, LatticeValue(1, 0), [0.0] * inst.m)
        assert cost == 0.0


class TestSolveClp:
    def test_single_agent_single_heavy(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0]])
        res = clp.solve_clp(inst, LatticeValue(1, 0))
        assert res.feasible and res.lambda_star == pytest.approx(1.0)

    def test_two_agents_share_one_heavy(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)], [[0], [0]])
        res = clp.solve_clp(inst, LatticeValue(1, 0))
        assert not res.feasible
        assert res.lambda_star == pytest.approx(0.5, abs=1e-6)

    def test_agent_without_configuration_infeasible(self):
        inst = Instance(Epsilon(1, 2), [Item(0, LIGHT)], [[0], []])
        res = clp.solve_clp(inst, LatticeValue(0, 1))
        assert not res.feasible and res.lambda_star == 0.0

    def test_columns_cover_and_pack(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = gen.gen_random(3, 2, 6, 0.7, Epsilon(1, 3), rng.randrange(2**30))
            T = LatticeValue(0, 2)
            res = clp.solve_clp(inst, T)
            if not res.feasible:
                continue
            cover = {i: 0.0 for i in range(inst.n)}
            load = [0.0] * inst.m
            for col, mass in res.columns:
                assert col.items <= inst.interests[col.agent]
                assert inst.bundle_value(col.items).key(inst.epsilon) >= T.key(inst.epsilon)
                cover[col.agent] += mass
                for j in col.items:
                    load[j] += mass
            assert all(v >= 1 - 1e-6 for v in cover.values())
            assert all(v <= 1 + 1e-6 for v in load)


def enumerated_lambda(inst, T):
    """max lambda of the configuration LP with every configuration listed."""
    cols = []  # (agent, items)
    for i in range(inst.n):
        likes = sorted(inst.interests[i])
        for size in range(1, len(likes) + 1):
            for s in combinations(likes, size):
                if inst.bundle_value(s).key(inst.epsilon) >= T.key(inst.epsilon):
                    cols.append((i, s))
    # variables: lambda, then one per configuration
    A = np.zeros((inst.n + inst.m, 1 + len(cols)))
    A[:inst.n, 0] = 1.0
    for idx, (i, s) in enumerate(cols):
        A[i, 1 + idx] = -1.0
        for j in s:
            A[inst.n + j, 1 + idx] = 1.0
    b = np.concatenate([np.zeros(inst.n), np.ones(inst.m)])
    c = np.zeros(1 + len(cols))
    c[0] = -1.0
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


@st.composite
def enumerable_instances(draw):
    """A gen_random instance with at most 4 agents and 8 items."""
    mh = draw(st.integers(0, 3))
    return gen.gen_random(
        draw(st.integers(1, 4)), mh, draw(st.integers(1, 8 - mh)),
        draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
        draw(st.sampled_from([Epsilon(1, 2), Epsilon(1, 3), Epsilon(2, 5)])),
        draw(st.integers(0, 2**30)),
    )


class TestSolveClpAgainstEnumeration:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(enumerable_instances())
    def test_lambda_matches_full_configuration_lp(self, inst):
        for T in lattice_values(inst)[1:]:
            want = enumerated_lambda(inst, T)
            res = clp.solve_clp(inst, T)
            assert res.converged
            # pricing stops once the restricted master reaches 1 - tol,
            # so from 1 up its lambda is a lower bound on the full one
            assert min(want, 1.0) - 1e-7 <= res.lambda_star <= want + 1e-7


class TestEarlyStop:
    @staticmethod
    def master_lambdas(monkeypatch):
        """Record lambda of every restricted master simplex.solve returns."""
        lams, real = [], simplex.solve

        def counted(*args):
            out = real(*args)
            lams.append(out[0][0])
            return out

        monkeypatch.setattr(simplex, "solve", counted)
        return lams

    def test_one_master_when_the_first_reaches_one(self, monkeypatch):
        """One agent, one heavy and three light items, eps = 1/2, T = 1: the
        seed columns {0} and {1, 2} alone give lambda = 2, although the
        full master's lambda is 5/2 (the three light pairs add 1/2)."""
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY)] + [Item(j, LIGHT) for j in (1, 2, 3)],
                        [[0, 1, 2, 3]])
        T = LatticeValue(0, 2)
        assert enumerated_lambda(inst, T) == pytest.approx(2.5)
        lams = self.master_lambdas(monkeypatch)
        res = clp.solve_clp(inst, T)
        assert lams == [pytest.approx(2.0)]
        assert res.feasible and res.converged and res.lambda_star == pytest.approx(2.0)

    def test_pricing_stops_at_the_first_feasible_master(self, monkeypatch):
        lams = self.master_lambdas(monkeypatch)
        rng = random.Random(9)
        for _ in range(10):
            inst = gen.gen_random(6, 4, 10, 0.5, Epsilon(1, 3), rng.randrange(2**30))
            for T in lattice_values(inst)[1:]:
                del lams[:]
                res = clp.solve_clp(inst, T)
                if not res.feasible:
                    continue
                assert lams[-1] >= 1 - clp.DEFAULT_TOL
                assert all(lam < 1 - clp.DEFAULT_TOL for lam in lams[:-1])


class TestEstimateTstar:
    def test_bounds_against_opt(self, corpus):
        # spot-check a slice of the corpus: OPT <= T* <= 3*OPT
        for inst in corpus[::9]:
            eps = inst.epsilon
            opt_v, _ = exact.opt(inst)
            tstar = clp.estimate_Tstar(inst)
            assert tstar.key(eps) >= opt_v.key(eps)
            assert tstar.as_fraction(eps) <= 3 * opt_v.as_fraction(eps) or opt_v.is_zero()

    def test_single_agent_ratio_one(self):
        inst = Instance(Epsilon(1, 2), [Item(0, HEAVY), Item(1, LIGHT)], [[0, 1]])
        tstar = clp.estimate_Tstar(inst)
        assert tstar.as_fraction(inst.epsilon) == Fraction(3, 2)

    @staticmethod
    def probed(monkeypatch):
        """Record the T of every solve_clp call."""
        seen, real = [], clp.solve_clp

        def counted(inst, T, pool=None):
            seen.append(T)
            return real(inst, T, pool)

        monkeypatch.setattr(clp, "solve_clp", counted)
        return seen

    def test_fault_f2_instance_matches_highs(self, monkeypatch):
        # fault F2 of bench/README.md: a master solved from the slack basis
        # in every round hits the simplex iteration cap here.  T* is the
        # packing cap, so the top probe is the only one.
        probes = self.probed(monkeypatch)
        inst = gen.gen_random(24, 24, 56, 0.3, Epsilon(1, 3), seed=0)
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 5)  # 5/3, as HiGHS
        assert probes == [LatticeValue(0, 5)]

    def test_fault_f2_n40_matches_highs(self):
        # F2's larger input, 176 rows.  T = 5/3 is the packing cap and the
        # only probe: from the crash basis of the congestion-priced seed
        # its one master takes 24 pivots (65 from the slack basis; 25
        # masters and 4,222 pivots from one column per agent).  Bland's
        # rule ran into the simplex iteration cap here.
        inst = gen.gen_random(40, 40, 96, 0.3, Epsilon(1, 3), seed=0)
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 5)  # 5/3, as HiGHS

    def test_lexicographic_ties_on_a_real_master(self, monkeypatch):
        # the fault F1 input, 520 rows: the seed stops at 538 columns, and
        # the one master of the top probe, T = 9/10, takes 645 pivots from
        # the crash basis (753 from the slack basis), so ratio ties past
        # simplex.LEX_AFTER go to the lexicographic rule
        calls, real = [], np.lexsort

        def counted(keys):
            calls.append(len(keys))
            return real(keys)

        results, solve = [], clp.solve_clp

        def recorded(inst, T, pool=None):
            results.append(solve(inst, T, pool))
            return results[-1]

        monkeypatch.setattr(np, "lexsort", counted)
        monkeypatch.setattr(clp, "solve_clp", recorded)
        inst = gen.gen_random(80, 40, 400, 0.05, Epsilon(1, 10), seed=0)
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 9)
        assert len(results) == 1 and results[0].pivots > simplex.LEX_AFTER
        assert calls

    def test_search_below_a_failed_top_probe(self, monkeypatch):
        # an lp-mid-shaped instance whose T* lies below the packing cap
        probes = self.probed(monkeypatch)
        inst = gen.gen_random(12, 12, 24, 0.35, Epsilon(1, 3), seed=0)
        assert packing_cap(inst) == 5  # 5/3
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 4)  # 4/3, as HiGHS
        assert probes[0] == LatticeValue(0, 5) and len(probes) > 1
        assert all(T.key(inst.epsilon) < 5 for T in probes[1:])

    def test_unconverged_probe_raises(self, monkeypatch):
        # the top probe, T = 1, is infeasible (lambda* = 2/3), and its
        # first master stops at lambda = 1/2 with columns left to price
        inst = gen.gen_random(4, 2, 6, 0.6, Epsilon(1, 3), seed=24)
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 2)
        assert packing_cap(inst) == 3
        monkeypatch.setattr(clp, "MAX_ROUNDS", 1)
        res = clp.solve_clp(inst, LatticeValue(0, 3))
        assert not res.converged and res.lambda_star < 1 - clp.DEFAULT_TOL
        with pytest.raises(clp.MasterNotConverged):
            clp.estimate_Tstar(inst)

    def test_gap_witness_ratio_two(self):
        eps = Epsilon(1, 2)
        inst, tstar, opt_v = gen.search_gap_witness(4, 6, eps, budget=300, seed=1)
        assert tstar.as_fraction(eps) == 2 * opt_v.as_fraction(eps)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def small_random_instances(draw):
    """A gen_random instance with at most 3 agents and 7 items."""
    n, mh = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return gen.gen_random(
        n, mh, draw(st.integers(1, 7 - mh)), draw(st.sampled_from([0.3, 0.6, 1.0])),
        draw(st.sampled_from([Epsilon(1, 2), Epsilon(1, 3), Epsilon(2, 5), Epsilon(1, 6)])),
        draw(st.integers(0, 2**30)),
    )


class TestPackingCap:
    @PROPERTY
    @given(small_random_instances())
    # the cap, key 3, is no lattice key: the keys are 0, 2, 5 and 7
    @example(Instance(Epsilon(2, 5), [Item(0, HEAVY), Item(1, LIGHT)], [[0, 1], [0, 1]]))
    # an agent that wants nothing: the cap is 0
    @example(Instance(Epsilon(1, 6), [Item(0, HEAVY), Item(1, LIGHT)], [[0, 1], []]))
    def test_bounds_opt_and_keeps_the_highs_threshold(self, inst):
        eps = inst.epsilon
        assert naive_opt(inst) <= Fraction(packing_cap(inst), eps.denominator)
        # the threshold over the whole lattice, by HiGHS on every configuration
        feasible = [T for T in lattice_values(inst)[1:]
                    if enumerated_lambda(inst, T) >= 1 - 1e-7]
        want = feasible[-1] if feasible else LatticeValue(0, 0)
        assert clp.estimate_Tstar(inst) == want


class TestFlowCap:
    @PROPERTY
    @given(small_random_instances())
    @example(gen.gen_random(3, 1, 2, 1.0, Epsilon(1, 6), 591010720))  # flow cap 1/6, cap 1/3
    @example(gen.gen_random(2, 1, 6, 0.6, Epsilon(1, 6), 148214350))  # T* 1/2, flow cap 2/3
    def test_lp_feasible_implies_saturated(self, inst):
        eps = inst.epsilon
        values = capped_values(inst)
        saturated = [flowkit.weight_feasible(inst, T) for T in values]
        assert saturated == [networkx_weight_feasible(inst, T.key(eps)) for T in values]
        assert saturated == sorted(saturated, reverse=True)  # the saturated values are a prefix
        for T, sat in zip(values, saturated):
            assert sat or not clp.feasible_at(inst, T)
        flow_cap = values[saturated.count(True) - 1]
        assert clp.estimate_Tstar(inst).key(eps) <= flow_cap.key(eps) <= packing_cap(inst)

    def test_no_lp_probe_between_the_flow_cap_and_the_top(self, monkeypatch):
        # keys in sixths: the top value 5 fails its LP probe, the networks
        # saturate up to 4, and T* is 3
        probes = TestEstimateTstar.probed(monkeypatch)
        inst = gen.gen_random(2, 1, 6, 0.6, Epsilon(1, 6), 148214350)
        assert clp.estimate_Tstar(inst) == LatticeValue(0, 3)
        assert [T.key(inst.epsilon) for T in probes[:2]] == [5, 4]
        assert all(T.key(inst.epsilon) < 4 for T in probes[2:])


class TestStartingColumns:
    @PROPERTY
    @given(small_random_instances(), st.data())
    def test_seed_columns_are_configurations(self, inst, data):
        eps = inst.epsilon
        T = data.draw(st.sampled_from(lattice_values(inst)[1:]))
        prices, real = [], clp._cheapest

        def recorded(shape, z):
            prices.extend(z)
            return real(shape, z)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clp, "_cheapest", recorded)
            if any(inst.bundle_value(s).key(eps) < T.key(eps) for s in inst.interests):
                with pytest.raises(clp.NoConfiguration):
                    clp._starting_columns(inst, clp._shapes(inst, T))
                return
            cols = clp._starting_columns(inst, clp._shapes(inst, T))
        assert len(set(cols)) == len(cols) < inst.n + inst.m + inst.n
        for col in cols:
            assert col.items <= inst.interests[col.agent]
            assert inst.bundle_value(col.items).key(eps) >= T.key(eps)
        assert prices and all(0 <= p < float("inf") for p in prices)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 8), st.integers(0, 3), st.integers(0, 12), st.integers(0, 2**30))
    def test_cap_on_larger_instances(self, n, mh, ml, seed):
        # up to 8 agents: without the n + m stop the seed grows past n + m + n here
        inst = gen.gen_random(n, mh, ml + 1, 0.6, Epsilon(1, 4), seed)
        for T in lattice_values(inst)[1:3]:
            try:
                cols = clp._starting_columns(inst, clp._shapes(inst, T))
            except clp.NoConfiguration:
                continue
            assert len(set(cols)) == len(cols) < inst.n + inst.m + inst.n


def crash_master_matrix(inst, first):
    """The master's constraint matrix restricted to the crash basis, column
    by basis row, for the first-pass columns `first`."""
    n, m = inst.n, inst.m
    block = clp._block(n, m, first)
    basis, inv = clp._crash_basis(block[n:])
    lam_col = np.zeros((n + m, 1))
    lam_col[:n] = 1.0
    # lambda, the first-pass columns, then the slacks of every row
    full = np.hstack([lam_col, block, np.eye(n + m)])
    B = full[:, [label if label >= 0 else n + 1 + (-1 - label) for label in basis]]
    return basis, inv, B


class TestCrashBasis:
    @PROPERTY
    @given(small_random_instances())
    # two agents, one heavy item each: both items have load 1, so r = 0
    @example(Instance(Epsilon(1, 2), [Item(0, HEAVY), Item(1, HEAVY)], [[0], [1]]))
    # three agents on two lights: at T = 1 every column holds both, so r = 0
    @example(Instance(Epsilon(1, 2), [Item(0, LIGHT), Item(1, LIGHT)], [[0, 1]] * 3))
    def test_closed_form_matches_numpy_inverse(self, inst):
        n, m = inst.n, inst.m
        b = np.concatenate([np.zeros(n), np.ones(m)])
        for T in lattice_values(inst)[1:]:
            try:
                shapes = clp._shapes(inst, T)
            except clp.NoConfiguration:
                continue
            first = clp._starting_columns(inst, shapes)[:n]
            assert [col.agent for col in first] == list(range(n))
            basis, inv, B = crash_master_matrix(inst, first)
            Binv = np.linalg.inv(B)
            cB = (basis == 0).astype(float)  # only lambda has a cost
            np.testing.assert_allclose(inv[:-1, :-1], Binv, rtol=0, atol=1e-12)
            np.testing.assert_allclose(inv[:-1, -1], Binv @ b, rtol=0, atol=1e-12)
            np.testing.assert_allclose(inv[-1, :-1], cB @ Binv, rtol=0, atol=1e-12)
            assert inv[-1, -1] == pytest.approx(cB @ Binv @ b, abs=1e-12)
            assert inv[:-1, -1].min() >= 0
            # the most-loaded item, lowest id on a tie, leaves its slack for lambda
            load = [sum(j in col.items for col in first) for j in range(m)]
            assert basis.tolist().index(0) == n + load.index(max(load))

    @PROPERTY
    @given(small_random_instances())
    def test_lambda_matches_the_slack_start(self, inst):
        # solve_clp, which starts from the crash basis, is checked against
        # enumerated_lambda in TestSolveClpAgainstEnumeration; here the
        # seed's restricted master reaches one optimum from either start
        n, m = inst.n, inst.m
        for T in lattice_values(inst)[1:]:
            try:
                shapes = clp._shapes(inst, T)
            except clp.NoConfiguration:
                continue
            cols = clp._starting_columns(inst, shapes)
            lams = []
            for crash in (True, False):
                master = simplex.Master(np.concatenate([np.zeros(n), np.ones(m)]))
                lam_col = np.zeros((n + m, 1))
                lam_col[:n] = 1.0
                master.add(lam_col, np.ones(1))
                block = clp._block(n, m, cols)
                master.add(block, np.zeros(len(cols)))
                if crash:
                    master.start(*clp._crash_basis(block[n:, :n]))
                lams.append(simplex.solve(master)[1])
            assert lams[0] == pytest.approx(lams[1], abs=1e-9)
            assert lams[0] <= enumerated_lambda(inst, T) + 1e-7


class TestPivotCounts:
    def test_lp_mid_seed_one_within_budget(self, monkeypatch):
        # the 30 instances of the benchmark's lp-mid workload at seed 1
        # (bench/workloads.py: n = 12, 12 heavy and 24 light items, density
        # 0.35, eps 1/3 and 1/4), each estimated and then solved at T*:
        # 1,997 pivots from the crash basis, 2,790 from the slack basis
        results, solve = [], clp.solve_clp

        def recorded(inst, T, pool=None):
            results.append(solve(inst, T, pool))
            return results[-1]

        monkeypatch.setattr(clp, "solve_clp", recorded)
        rng = random.Random(1)
        for _ in range(15):
            for eps in (Epsilon(1, 3), Epsilon(1, 4)):
                inst = gen.gen_random(12, 12, 24, 0.35, eps, rng.randrange(2**31))
                clp.solve_clp(inst, clp.estimate_Tstar(inst))
        assert len(results) == 61
        assert sum(res.pivots for res in results) <= 1997


class TestEstimateAbove:
    @PROPERTY
    @given(small_random_instances())
    @example(gen.gen_random(4, 2, 6, 0.6, Epsilon(1, 3), seed=24))  # T* 2/3, cap 1
    def test_tstar_above_or_none_and_no_probe_at_or_below(self, inst):
        eps = inst.epsilon
        tstar = clp.estimate_Tstar(inst)
        keys = [T.key(eps) for T in capped_values(inst)]
        probes, real = [], clp.solve_clp

        def counted(inst, T, pool=None):
            probes.append(T.key(eps))
            return real(inst, T, pool)

        for above in [-1] + keys:
            probes.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(clp, "solve_clp", counted)
                got = clp.estimate_Tstar(inst, above)
            assert got == (tstar if tstar.key(eps) > above else None)
            assert all(key > above for key in probes)
            if got is None:
                # the lowest value above is checked by its network, then by
                # one LP probe: none when the cap is not above or the network
                # does not saturate
                lowest = [key for key in keys if key > above][:1]
                assert probes == [key for key in lowest if networkx_weight_feasible(inst, key)]


class TestMinimalize:
    def test_shapes_and_constraints(self):
        rng = random.Random(11)
        checked = 0
        while checked < 10:
            inst = gen.gen_random(3, 2, 7, 0.8, Epsilon(1, 3), rng.randrange(2**30))
            tstar = clp.estimate_Tstar(inst)
            if tstar.is_zero():
                continue
            res = clp.solve_clp(inst, tstar)
            sol = clp.minimalize(inst, res, tstar)  # asserts internally
            k = k_of(tstar, inst.epsilon)
            for i, bucket in sol.heavy.items():
                for s in bucket:
                    assert s and s <= frozenset(inst.b1(i))
            for i, bucket in sol.light.items():
                for s in bucket:
                    assert len(s) >= k and s <= frozenset(inst.beps(i))
            checked += 1

    def test_support_hypergraph_r_guard(self):
        inst = Instance(Epsilon(1, 2), [Item(0, LIGHT), Item(1, LIGHT)], [[0, 1]])
        T = LatticeValue(0, 2)
        res = clp.solve_clp(inst, T)
        sol = clp.minimalize(inst, res, T)
        with pytest.raises(ValueError, match="smaller than r"):
            clp.build_support_hypergraph(sol, r=3)
        hg = clp.build_support_hypergraph(sol, r=2)
        assert hg.light[0] == [(0, 1)]
