import numpy as np
import pytest
from scipy.optimize import linprog

from maxminalloc import simplex


def random_lp(rng, m, n):
    """max c.x s.t. Ax <= b, x >= 0 with b >= 0 (slack basis feasible)."""
    A = rng.uniform(-1, 1, size=(m, n))
    b = rng.uniform(0.1, 2.0, size=m)
    c = rng.uniform(-1, 1, size=n)
    return c, A, b


class TestAgainstScipy:
    def test_objective_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, n = rng.integers(1, 6), rng.integers(1, 6)
            c, A, b = random_lp(rng, m, n)
            try:
                x, obj, duals, _ = simplex.solve(c, A, b)
            except simplex.SimplexError:
                # claimed unbounded: a huge box must yield a huge objective
                boxed = linprog(-c, A_ub=A, b_ub=b, bounds=(0, 1e9), method="highs")
                assert boxed.status == 0 and -boxed.fun > 1e6
                continue
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert obj == pytest.approx(-ref.fun, abs=1e-7)
            # primal feasibility
            assert np.all(A @ x <= b + 1e-7) and np.all(x >= -1e-9)
            # weak duality at optimum: b.y == c.x, y >= 0
            assert np.all(duals >= -1e-9)
            assert float(b @ duals) == pytest.approx(obj, abs=1e-7)

    def test_degenerate_does_not_cycle(self):
        # many redundant constraints through the origin
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        x, obj, _, _ = simplex.solve(c, A, b)
        assert obj == pytest.approx(1.0)

    def test_dual_prices_identify_binding_rows(self):
        # max x+y s.t. x <= 1, y <= 2
        x, obj, duals, _ = simplex.solve(
            np.array([1.0, 1.0]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([1.0, 2.0]),
        )
        assert obj == pytest.approx(3.0)
        assert duals == pytest.approx([1.0, 1.0])

    def test_warm_start_after_appending_columns(self):
        # an optimal basis stays primal feasible when columns are appended;
        # re-solving from it must reach the cold and the HiGHS optimum
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            m, n, k = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 4)
            c, A, b = random_lp(rng, m, n + k)
            try:
                _, _, _, basis = simplex.solve(c[:n], A[:, :n], b)
                _, cold_obj, cold_duals, _ = simplex.solve(c, A, b)
            except simplex.SimplexError:
                continue  # unbounded
            basis = [v + k if v >= n else v for v in basis]  # slacks shift by k
            assert simplex._tableau(c, A, b, basis) is not None  # warm path taken
            x, obj, duals, _ = simplex.solve(c, A, b, basis)
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert obj == pytest.approx(cold_obj, abs=1e-7)
            assert obj == pytest.approx(-ref.fun, abs=1e-7)
            assert duals == pytest.approx(cold_duals, abs=1e-7)
            assert duals == pytest.approx(-ref.ineqlin.marginals, abs=1e-7)
            assert np.all(A @ x <= b + 1e-7) and np.all(x >= -1e-9)
            checked += 1

    def test_unusable_basis_falls_back_to_slack_basis(self):
        # max x+y s.t. x <= 2, x+y <= 1
        c = np.array([1.0, 1.0])
        A = np.array([[1.0, 0.0], [1.0, 1.0]])
        b = np.array([2.0, 1.0])
        # a repeated column is singular; basis {x, y} gives y = -1
        for basis in ([0, 0], [0, 1]):
            assert simplex._tableau(c, A, b, basis) is None
            _, obj, duals, _ = simplex.solve(c, A, b, basis)
            assert obj == pytest.approx(1.0)
            assert duals == pytest.approx([0.0, 1.0])
