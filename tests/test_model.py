import numpy as np
import pytest

from subreg.finite_sum import CustomProblem
from subreg.model import (
    AccuracyQuantities,
    RegularisedModel,
    accuracy_quantities,
    model_hessian_action,
)
from subreg.subproblem import quadratic_step

from oracles import central_diff_gradient, sphere_scan_max


def cubic_model(g, H, sigma):
    return RegularisedModel(np.asarray(g, dtype=float), sigma, lambda v: H @ v)


class TestModelValue:
    def test_zero_step_is_zero(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        assert m.value(np.zeros(2)) == 0.0

    def test_cubic_stationary_value(self):
        # scalar arithmetic: -t + t^2/2 + t^3/6 at t = sqrt(3) - 1
        t = np.sqrt(3.0) - 1.0
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        expected = -t + t**2 / 2.0 + t**3 / 6.0
        assert m.value(np.array([-t, 0.0])) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            cubic_model(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(TypeError):
            RegularisedModel(np.zeros(2), 1.0)  # missing Hessian action


class TestModelGradient:
    def test_at_zero_returns_estimate(self):
        g = np.array([0.3, -0.7])
        m = cubic_model(g, np.diag([2.0, -1.0]), 0.5)
        np.testing.assert_array_equal(m.gradient(np.zeros(2)), g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            g = rng.standard_normal(n)
            m = cubic_model(g, H, float(rng.uniform(0.2, 3.0)))
            s = rng.standard_normal(n)
            fd = central_diff_gradient(m.value, s)
            assert np.max(np.abs(m.gradient(s) - fd) / (1.0 + np.abs(fd))) <= 1e-6

    def test_value_and_gradient_consistent(self):
        rng = np.random.default_rng(1)
        H = np.diag([1.0, -2.0, 0.5])
        m = cubic_model(rng.standard_normal(3), H, 1.3)
        s = rng.standard_normal(3)
        v, g = m.value_and_gradient(s)
        assert v == m.value(s)
        np.testing.assert_array_equal(g, m.gradient(s))


class TestTaylorDecrease:
    def test_zero_step(self):
        m = cubic_model([1.0, 2.0], np.eye(2), 1.0)
        assert m.taylor_decrease(np.zeros(2)) == 0.0

    def test_quadratic_step_formula(self):
        # the p = 1 step's predicted decrease is the Taylor decrease -g @ s
        g = np.array([3.0, 4.0])
        s, dt = quadratic_step(g, 2.0)
        assert dt == pytest.approx(-float(g @ s), rel=1e-15)
        assert dt == pytest.approx(12.5, rel=1e-15)

    def test_regulariser_identity(self):
        # decrease equals regulariser(s) - value(s)
        rng = np.random.default_rng(2)
        s = rng.standard_normal(3)
        H = np.diag([0.5, -1.0, 2.0])
        m = cubic_model(rng.standard_normal(3), H, 0.9)
        reg = 0.9 * np.linalg.norm(s) ** 3 / 6.0
        assert m.taylor_decrease(s) == pytest.approx(reg - m.value(s), rel=1e-12)

    def test_descent_implies_decrease_dominates_regulariser(self):
        # the p = 1 step: decrease >= (sigma/2) ||s||^2
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal(2)
            sigma = float(rng.uniform(0.1, 4.0))
            s, dt = quadratic_step(g, sigma)
            assert dt >= 0.5 * sigma * np.linalg.norm(s) ** 2 - 1e-12

    def test_descent_domination_cubic(self):
        rng = np.random.default_rng(7)
        sigma = 1.3
        for _ in range(40):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            m = cubic_model(rng.standard_normal(n), 0.5 * (A + A.T), sigma)
            s = rng.standard_normal(n)
            if m.value(s) <= 0.0:
                reg = sigma * np.linalg.norm(s) ** 3 / 6.0
                assert m.taylor_decrease(s) >= reg - 1e-12 * max(1.0, reg)


class TestStationarityMeasure:
    def test_exact_minimiser_is_stationary(self):
        # g = e1, H = I, sigma = 1: the minimiser is -(sqrt(3) - 1) e1
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        assert m.stationarity(np.array([1.0 - np.sqrt(3.0), 0.0])) <= 1e-15

    def test_at_zero_equals_gradient_norm(self):
        m = cubic_model([3.0, 4.0], np.diag([1.0, -2.0]), 2.0)
        assert m.stationarity(np.zeros(2)) == 5.0

    def test_equals_sphere_maximum(self):
        rng = np.random.default_rng(4)
        m = cubic_model(rng.standard_normal(3), np.diag([1.0, -0.5, 2.0]), 1.1)
        s = rng.standard_normal(3)
        grad = m.gradient(s)
        scan = sphere_scan_max(lambda d: float(-grad @ d), 3, samples=10_000, seed=5)
        assert abs(m.stationarity(s) - scan) <= 1e-2 * m.stationarity(s)


class TestAccuracyQuantities:
    def test_degenerate_exact_minimiser(self):
        # zero gradient and positive definite H: s = 0 is a second-order point
        m = cubic_model([0.0, 0.0], np.diag([1.0, 2.0]), 2.0)
        q = accuracy_quantities(m, np.zeros(2))
        assert q.model_grad_norm == 0.0 and q.phi2_value == 0.0
        assert q.delta_t_min == 0.0  # targets collapse; the relative test takes over
        assert q.targets(0.2) == (0.0, 0.0)

    def test_tau_uses_unit_sphere_maximisers(self):
        m = cubic_model([0.4, 0.0], np.eye(2), 1.0)
        q = accuracy_quantities(m, np.array([0.5, 0.0]))
        assert q.tau == 1.0
        q2 = accuracy_quantities(m, np.array([2.5, 0.0]))
        assert q2.tau == 2.5

    def test_frozen_target_values(self):
        q = AccuracyQuantities(tau=2.0, delta_t_min=0.6, delta_t_f=0.6, model_grad_norm=1.0)
        nu1, nu2 = q.targets(0.2)
        assert nu1 == pytest.approx(0.01, rel=1e-15)
        assert nu2 == pytest.approx(0.005, rel=1e-15)

    def test_q2_includes_curvature_measure(self):
        H = np.diag([-2.0, 1.0])
        m = cubic_model([0.0, 0.0], H, 3.0)
        q = accuracy_quantities(m, np.zeros(2))
        # at s = 0 the curvature measure is 1 (leftmost eigenvalue -2)
        assert q.phi2_value == pytest.approx(1.0, abs=1e-8)
        assert q.delta_t_min == 0.0

    def test_supplied_phi2_skips_the_solve(self):
        H = np.diag([-2.0, 1.0])
        m = cubic_model([0.3, -0.1], H, 3.0)
        s = np.array([0.2, 0.1])
        computed = accuracy_quantities(m, s)
        supplied = accuracy_quantities(m, s, phi2=computed.phi2_value)
        assert supplied == computed
        # The passed value is used as is.
        assert accuracy_quantities(m, s, phi2=0.0).phi2_value == 0.0


class TestModelHessian:
    def test_matches_gradient_differences(self):
        rng = np.random.default_rng(6)
        H = np.diag([2.0, -1.0, 0.3])
        m = cubic_model(rng.standard_normal(3), H, 0.8)
        s = rng.standard_normal(3)
        action = model_hessian_action(m, s)
        h = 1e-7
        for _ in range(3):
            v = rng.standard_normal(3)
            fd = (m.gradient(s + h * v) - m.gradient(s - h * v)) / (2.0 * h)
            np.testing.assert_allclose(action(v), fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("zero_step", [False, True])
    def test_identity_block_equals_stacked_vectors(self, zero_step):
        rng = np.random.default_rng(9)
        n = 4
        mats = [rng.standard_normal((n, n)) for _ in range(3)]
        # A differenced Hessian action, as the solver builds for networks.
        prob = CustomProblem(
            n, 3,
            value=lambda i, x: float(x @ mats[i] @ x + 0.1 * (x @ x) ** 2),
            gradient=lambda i, x: (mats[i] + mats[i].T) @ x + 0.4 * (x @ x) * x,
        )
        x = rng.standard_normal(n)
        m = RegularisedModel(rng.standard_normal(n), 0.7, prob.hessian_action([0, 1, 2], x))
        s = np.zeros(n) if zero_step else rng.standard_normal(n)
        action = model_hessian_action(m, s)
        block = action(np.eye(n))
        np.testing.assert_array_equal(block, np.column_stack([action(e) for e in np.eye(n)]))
