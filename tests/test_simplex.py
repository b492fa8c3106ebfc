"""LP feasibility verdicts against scipy's LP solver.

The phase-1 simplex is checked on general systems A x <= b, x >= 0.
Systems shaped like the LF power problem are decided by the closed form
of power.solve_lf_meb, which the src/ package uses instead.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from crmimo.network import LinkMetrics, NetworkConfig
from crmimo.power import lf_meb_constraints, solve_lf_meb
from crmimo.simplex import FEAS_TOL, FeasibilityResult, SimplexError, find_feasible


def oracle_feasible(a, b):
    res = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    return res.status == 0


class TestKnownCases:
    def test_origin_feasible(self):
        res = find_feasible(np.array([[1.0, 1.0]]), np.array([5.0]))
        assert res.feasible
        assert np.all(res.x >= 0) and res.x @ [1, 1] <= 5 + FEAS_TOL

    def test_negative_rhs_needs_positive_x(self):
        # -x1 <= -3 means x1 >= 3
        res = find_feasible(np.array([[-1.0, 0.0]]), np.array([-3.0]))
        assert res.feasible
        assert res.x[0] >= 3 - FEAS_TOL

    def test_plainly_infeasible(self):
        # x1 >= 3 and x1 <= 1
        a = np.array([[-1.0], [1.0]])
        b = np.array([-3.0, 1.0])
        res = find_feasible(a, b)
        assert not res.feasible
        assert res.residual > 1.0
        assert res.row_violation.max() > 0

    def test_infeasible_sign_constraint(self):
        # x <= -1 contradicts x >= 0
        res = find_feasible(np.array([[1.0]]), np.array([-1.0]))
        assert not res.feasible
        assert res.residual == pytest.approx(1.0, abs=1e-9)

    def test_tight_equality_like(self):
        # x1 + x2 >= 4 and x1 + x2 <= 4 pin the sum exactly
        a = np.array([[-1.0, -1.0], [1.0, 1.0]])
        b = np.array([-4.0, 4.0])
        res = find_feasible(a, b)
        assert res.feasible
        assert res.x.sum() == pytest.approx(4.0, abs=1e-9)

    def test_degenerate_zero_row(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = find_feasible(a, np.array([0.0, 2.0]))
        assert res.feasible
        res = find_feasible(a, np.array([-1.0, 2.0]))
        assert not res.feasible  # 0 <= -1 can never hold

    def test_redundant_rows(self):
        a = np.array([[-1.0, -2.0], [-1.0, -2.0], [-2.0, -4.0]])
        b = np.array([-2.0, -2.0, -4.0])
        res = find_feasible(a, b)
        assert res.feasible
        assert np.all(a @ res.x <= b + FEAS_TOL)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            find_feasible(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            find_feasible(np.ones(4), np.ones(4))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            find_feasible(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            find_feasible(np.array([[1.0]]), np.array([np.inf]))

    def test_budget_exhaustion_raises(self):
        a = -np.eye(8) + 0.01
        b = -np.ones(8)
        with pytest.raises(SimplexError):
            find_feasible(a, b, max_iter=1)


class TestAgainstLinprog:
    @pytest.mark.parametrize("trial", range(60))
    def test_random_dense_systems(self, trial):
        rng = np.random.default_rng(1000 + trial)
        m = rng.integers(1, 12)
        n = rng.integers(1, 8)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m) * rng.choice([0.2, 1.0, 5.0])
        res = find_feasible(a, b)
        assert isinstance(res, FeasibilityResult)
        assert res.feasible == oracle_feasible(a, b)
        if res.feasible:
            assert np.all(res.x >= 0)
            assert np.all(a @ res.x - b <= FEAS_TOL)

    @pytest.mark.parametrize("trial", range(30))
    def test_random_structured_systems(self, trial):
        # the power problem: rate rows (>=), two caps (<=) and a budget row,
        # decided by the closed-form minimum-power point
        rng = np.random.default_rng(7000 + trial)
        k = int(rng.integers(2, 9))
        cross = rng.uniform(0.0, 0.4, (k, k))
        cross[np.arange(k), np.arange(k)] = rng.uniform(0.5, 30.0, k)
        leak = rng.uniform(0.0, 2.0, (k, 2))
        links = LinkMetrics(cross=cross, pu_to_su_true=np.zeros(k),
                            pu_to_su_est=rng.uniform(0.0, 2.9, k), leak_true=leak,
                            leak_est=leak, noise=0.1)
        config = NetworkConfig(k_su=k, l_rx=2, r0=1.0, p0=10.0, i0=rng.uniform(0.05, 1.0))
        a, b, _ = lf_meb_constraints(links, config)
        alloc = solve_lf_meb(links, config)
        assert alloc.feasible == oracle_feasible(a, b)
        if alloc.feasible:
            assert np.all(alloc.p > 0)
            assert np.all(a @ alloc.p - b <= FEAS_TOL)
        else:
            assert alloc.blocking in ("rate", "interference", "power")

    def test_residual_matches_min_violation(self):
        # scipy cross-check of the phase-1 optimum for an infeasible system
        a = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = np.array([1.0, -4.0])  # sum <= 1 and sum >= 4
        res = find_feasible(a, b)
        assert not res.feasible
        assert res.residual == pytest.approx(3.0, abs=1e-9)
