import numpy as np
import pytest
from scipy.optimize import linprog

from maxminalloc import simplex


def random_lp(rng, m, n, low=-1.0):
    """max c.x s.t. Ax <= b, x >= 0 with b >= 0 (slack basis feasible);
    bounded when low >= 0."""
    A = rng.uniform(low, 1, size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    c = rng.uniform(-1, 1, size=n)
    return c, A, b


def solve_once(c, A, b):
    master = simplex.Master(b)
    master.add(A, c)
    return simplex.solve(master)


# Beale's LP, on which Dantzig's rule with lowest-label ties cycles
BEALE = (
    np.array([0.75, -20.0, 0.5, -6.0]),
    np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
)


def check_against_highs(c, A, b, x, obj, duals):
    ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert obj == pytest.approx(-ref.fun, abs=1e-7)
    assert duals == pytest.approx(-ref.ineqlin.marginals, abs=1e-7)
    assert float(c @ x) == pytest.approx(obj, abs=1e-7)
    assert np.all(A @ x <= b + 1e-7) and np.all(x >= -1e-9)


def assert_unbounded(c, A, b):
    # x = 0 is feasible, so the LP is unbounded iff its dual
    # A^T y >= c, y >= 0 is infeasible
    dual = linprog(np.zeros(len(b)), A_ub=-A.T, b_ub=-c, bounds=(0, None), method="highs")
    assert dual.status == 2


def check_batches(rng, count, max_m=5, max_n=6, low=-1.0):
    """Random LPs whose columns arrive in 1-3 batches, each batch solved
    from the basis the previous one left and checked against HiGHS."""
    checked = 0
    while checked < count:
        m, n = rng.integers(1, max_m + 1), rng.integers(1, max_n + 1)
        c, A, b = random_lp(rng, m, n, low)
        batches = min(int(rng.integers(1, 4)), n)
        cuts = sorted(rng.choice(np.arange(1, n), size=batches - 1, replace=False).tolist())
        master = simplex.Master(b)
        try:
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                master.add(A[:, lo:hi], c[lo:hi])
                x, obj, duals = simplex.solve(master)
                check_against_highs(c[:hi], A[:, :hi], b, x, obj, duals)
        except simplex.SimplexError:
            assert_unbounded(c[:hi], A[:, :hi], b)
            continue
        checked += 1


def check_appending():
    check_batches(np.random.default_rng(1), 100)
    # bounded LPs past the 16 columns a master first makes room for
    check_batches(np.random.default_rng(3), 20, max_m=10, max_n=60, low=0.0)


class TestAgainstScipy:
    def test_objective_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 6), rng.integers(1, 6)
            c, A, b = random_lp(rng, m, n)
            try:
                x, obj, duals = solve_once(c, A, b)
            except simplex.SimplexError:
                assert_unbounded(c, A, b)
                continue
            check_against_highs(c, A, b, x, obj, duals)
            # strong duality at the optimum: b.y == c.x, y >= 0
            assert np.all(duals >= -1e-9)
            assert float(b @ duals) == pytest.approx(obj, abs=1e-7)

    def test_degenerate_does_not_cycle(self):
        # many redundant constraints through the origin
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        _, obj, _ = solve_once(c, A, b)
        assert obj == pytest.approx(1.0)

    def test_dual_prices_identify_binding_rows(self):
        # max x+y s.t. x <= 1, y <= 2
        _, obj, duals = solve_once(
            np.array([1.0, 1.0]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([1.0, 2.0]),
        )
        assert obj == pytest.approx(3.0)
        assert duals == pytest.approx([1.0, 1.0])

    def test_warm_start_after_appending_columns(self):
        # an optimal basis stays primal feasible when columns are appended;
        # solving on from it must reach the HiGHS optimum after every batch
        check_appending()

    def test_pivots_are_counted(self):
        # max x+y s.t. x <= 1, y <= 2: each variable enters once
        master = simplex.Master(np.array([1.0, 2.0]))
        master.add(np.eye(2), np.array([1.0, 1.0]))
        simplex.solve(master)
        assert master.pivots == 2
        simplex.solve(master)  # already optimal: no pivot
        assert master.pivots == 2

    def test_negative_rhs_rejected(self):
        with pytest.raises(simplex.SimplexError):
            simplex.Master(np.array([1.0, -1.0]))


class TestStart:
    def test_from_an_optimal_basis_no_pivot(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c, A, b = random_lp(rng, 4, 5, low=0.0)
            first = simplex.Master(b)
            first.add(A, c)
            _, obj, duals = simplex.solve(first)
            again = simplex.Master(b)
            again.add(A, c)
            again.start(first.basis.copy(), first.inv.copy())
            x, obj2, duals2 = simplex.solve(again)
            assert again.pivots == 0
            assert obj2 == obj and np.array_equal(duals2, duals)
            check_against_highs(c, A, b, x, obj2, duals2)

    def test_infeasible_basis_rejected(self):
        master = simplex.Master(np.array([1.0, 1.0]))
        inv = np.zeros((3, 3))
        inv[:2, :2] = np.eye(2)
        inv[:2, 2] = [1.0, -1.0]
        with pytest.raises(simplex.SimplexError, match="infeasible"):
            master.start(-1 - np.arange(2), inv)


class TestLexicographicRule:
    def test_beale_cycles_until_the_lexicographic_rule(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_ITERS", simplex.LEX_AFTER)
        with pytest.raises(simplex.SimplexError, match="cap"):
            solve_once(*BEALE)
        monkeypatch.undo()
        _, obj, _ = solve_once(*BEALE)
        assert obj == pytest.approx(1.25)

    def test_from_the_first_pivot(self, monkeypatch):
        monkeypatch.setattr(simplex, "LEX_AFTER", 0)
        check_appending()
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        assert solve_once(c, A, b)[1] == pytest.approx(1.0)
        # Beale's LP from the slack basis, which is lexicographically
        # positive, ends in a handful of pivots
        monkeypatch.setattr(simplex, "MAX_ITERS", 10)
        x, obj, duals = solve_once(*BEALE)
        assert obj == pytest.approx(1.25)
        check_against_highs(*BEALE, x, obj, duals)

    def test_rows_stay_lexicographically_positive(self, monkeypatch):
        # the invariant that rules out cycling: from the slack basis every
        # row of [x_B | B^-1] keeps a positive first nonzero entry
        monkeypatch.setattr(simplex, "LEX_AFTER", 0)
        rng = np.random.default_rng(4)
        for _ in range(300):
            m, n = rng.integers(2, 7), rng.integers(2, 9)
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.choice([0.0, 0.0, 1.0], size=m)
            c = rng.integers(-1, 3, size=n).astype(float)
            master = simplex.Master(b)
            master.add(A, c)
            try:
                simplex.solve(master)
            except simplex.SimplexError:
                continue
            for row in master.inv[:m, np.r_[m, :m]]:
                first = row[np.abs(row) > 1e-9][0]
                assert first > 0
