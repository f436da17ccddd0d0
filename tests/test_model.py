import numpy as np
import pytest

from subreg.finite_sum import CustomProblem
from subreg.model import RegularisedModel, accuracy_quantities, model_hessian_action
from subreg.optimality import DENSE_MAX_N
from subreg.subproblem import cubic_step, quadratic_step

from oracles import central_diff_gradient, sphere_scan_max


def cubic_model(g, H, sigma):
    return RegularisedModel(np.asarray(g, dtype=float), sigma, lambda v: H @ v)


def value(m, s):
    return m.value_and_gradient(s)[0]


def gradient(m, s):
    return m.value_and_gradient(s)[1]


def targets(tau, delta_t, omega):
    """The accuracy targets omega * dt / (6 tau^l), l = 1, 2."""
    return tuple(omega * delta_t / (6.0 * tau**ell) for ell in (1, 2))


class TestModelValue:
    def test_zero_step_is_zero(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        assert value(m, np.zeros(2)) == 0.0

    def test_cubic_stationary_value(self):
        # scalar arithmetic: -t + t^2/2 + t^3/6 at t = sqrt(3) - 1
        t = np.sqrt(3.0) - 1.0
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        expected = -t + t**2 / 2.0 + t**3 / 6.0
        assert value(m, np.array([-t, 0.0])) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            cubic_model(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(TypeError):
            RegularisedModel(np.zeros(2), 1.0)  # missing Hessian action


class TestModelGradient:
    def test_at_zero_returns_estimate(self):
        g = np.array([0.3, -0.7])
        m = cubic_model(g, np.diag([2.0, -1.0]), 0.5)
        np.testing.assert_array_equal(gradient(m, np.zeros(2)), g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            g = rng.standard_normal(n)
            m = cubic_model(g, H, float(rng.uniform(0.2, 3.0)))
            s = rng.standard_normal(n)
            fd = central_diff_gradient(lambda z: value(m, z), s)
            assert np.max(np.abs(gradient(m, s) - fd) / (1.0 + np.abs(fd))) <= 1e-6

    def test_value_and_gradient_consistent(self):
        # value and gradient of the model formula, from the one action H s
        rng = np.random.default_rng(1)
        H = np.diag([1.0, -2.0, 0.5])
        m = cubic_model(rng.standard_normal(3), H, 1.3)
        s = rng.standard_normal(3)
        v, g, hs = m.value_and_gradient(s)
        norm_s = np.linalg.norm(s)
        assert v == pytest.approx(m.grad @ s + 0.5 * s @ H @ s + 1.3 * norm_s**3 / 6.0, rel=1e-14)
        np.testing.assert_allclose(g, m.grad + H @ s + 0.65 * norm_s * s, rtol=1e-14)
        np.testing.assert_array_equal(hs, H @ s)
        assert m.hessian_action.columns == 1


def measured(m, s):
    """The diagnostics ``cubic_step`` reports at its step s, computed at s."""
    _, grad, hs = m.value_and_gradient(s)
    return {
        "taylor_decrease": -float(m.grad @ s) - 0.5 * float(s @ hs),
        "grad_norm": float(np.linalg.norm(grad)),
    }


class TestTaylorDecrease:
    """The Taylor decrease the cubic solve reports at its step."""

    def test_zero_step(self):
        m = cubic_model([0.0, 0.0], np.eye(2), 1.0)
        s, diag = cubic_step(m, eps1=1e-3, theta=0.5)
        np.testing.assert_array_equal(s, np.zeros(2))
        assert diag["taylor_decrease"] == 0.0

    def test_quadratic_step_formula(self):
        # the p = 1 step's predicted decrease is the Taylor decrease -g @ s
        g = np.array([3.0, 4.0])
        s, dt = quadratic_step(g, 2.0)
        assert dt == pytest.approx(-float(g @ s), rel=1e-15)
        assert dt == pytest.approx(12.5, rel=1e-15)

    def test_regulariser_identity(self):
        # decrease equals regulariser(s) - value(s)
        rng = np.random.default_rng(2)
        H = np.diag([0.5, -1.0, 2.0])
        m = cubic_model(rng.standard_normal(3), H, 0.9)
        s, diag = cubic_step(m, eps1=1e-6, theta=0.5)
        reg = 0.9 * np.linalg.norm(s) ** 3 / 6.0
        assert diag["taylor_decrease"] == pytest.approx(reg - value(m, s), rel=1e-12)

    def test_descent_implies_decrease_dominates_regulariser(self):
        # the p = 1 step: decrease >= (sigma/2) ||s||^2
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal(2)
            sigma = float(rng.uniform(0.1, 4.0))
            s, dt = quadratic_step(g, sigma)
            assert dt >= 0.5 * sigma * np.linalg.norm(s) ** 2 - 1e-12

    def test_descent_domination_cubic(self):
        # every step the solve returns has m(s) <= 0, so dT >= regulariser(s)
        rng = np.random.default_rng(7)
        sigma = 1.3
        for _ in range(40):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            m = cubic_model(rng.standard_normal(n), 0.5 * (A + A.T), sigma)
            s, diag = cubic_step(m, eps1=1e-6, theta=0.5)
            reg = sigma * np.linalg.norm(s) ** 3 / 6.0
            assert diag["taylor_decrease"] >= reg - 1e-12 * max(1.0, reg)


class TestStationarityMeasure:
    """The model gradient norm the cubic solve reports at its step."""

    def test_exact_minimiser_is_stationary(self):
        # g = e1, H = I, sigma = 1: the minimiser is -(sqrt(3) - 1) e1
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        s, diag = cubic_step(m, eps1=1e-12, theta=0.5)
        assert diag["grad_norm"] <= 0.5e-12
        assert abs(s[0] - (1.0 - np.sqrt(3.0))) <= 1e-12

    def test_at_zero_equals_gradient_norm(self):
        # a gradient within the tolerance theta * eps1 grows no basis: the
        # solve returns s = 0, where grad m = g
        m = cubic_model([3.0, 4.0], np.diag([1.0, -2.0]), 2.0)
        s, diag = cubic_step(m, eps1=10.0, theta=0.5)
        np.testing.assert_array_equal(s, np.zeros(2))
        assert diag["grad_norm"] == 5.0 and diag["taylor_decrease"] == 0.0

    def test_equals_sphere_maximum(self):
        # a loose tolerance stops the solve after one basis vector, short
        # of the model's stationary point
        rng = np.random.default_rng(4)
        m = cubic_model(rng.standard_normal(3), np.diag([1.0, -0.5, 2.0]), 1.1)
        s, diag = cubic_step(m, eps1=1.0, theta=0.5)
        assert diag["iterations"] == 1
        grad = gradient(m, s)
        scan = sphere_scan_max(lambda d: float(-grad @ d), 3, samples=10_000, seed=5)
        assert diag["grad_norm"] > 0.0
        assert abs(diag["grad_norm"] - scan) <= 1e-2 * diag["grad_norm"]


class TestAccuracyQuantities:
    def test_degenerate_exact_minimiser(self):
        # zero gradient and positive definite H: s = 0 predicts no decrease
        m = cubic_model([0.0, 0.0], np.diag([1.0, 2.0]), 2.0)
        s, diag = cubic_step(m, eps1=1e-3, theta=0.5, eps2=1e-3)
        assert diag["grad_norm"] == 0.0 and diag["taylor_decrease"] == 0.0
        # zero targets, which only the full sums meet
        assert accuracy_quantities(s, diag, 0.2) == (0.0, 0.0)

    def test_tau_is_the_step_norm_at_least_one(self):
        m = cubic_model([0.4, 0.0], np.eye(2), 1.0)
        for s, tau in ((np.array([0.5, 0.0]), 1.0), (np.array([2.5, 0.0]), 2.5)):
            nu1, nu2 = accuracy_quantities(s, measured(m, s), 0.2)
            assert nu1 / nu2 == pytest.approx(tau, rel=1e-15)  # nu_l ~ 1 / tau^l

    def test_targets_follow_the_taylor_decrease_alone(self):
        # The model gradient norm at the step does not enter the targets,
        # however small a tight solve has made it.
        m = cubic_model([0.3, -0.1], np.diag([-2.0, 1.0]), 3.0)
        s = np.array([-0.1, 0.05])
        diag = measured(m, s)
        assert diag["taylor_decrease"] > 0.0
        expected = targets(1.0, diag["taylor_decrease"], 0.2)
        for grad_norm in (0.0, 1e-12, diag["grad_norm"], 5.0):
            assert accuracy_quantities(s, dict(diag, grad_norm=grad_norm), 0.2) == expected
        # a zero step keeps tau = 1
        diag = dict(measured(m, np.zeros(2)), taylor_decrease=1.0)
        assert accuracy_quantities(np.zeros(2), diag, 0.2) == targets(1.0, 1.0, 0.2)

    def test_frozen_target_values(self):
        # tau = ||s|| = 2 and dt = 0.6
        diag = {"taylor_decrease": 0.6, "grad_norm": 1.0}
        nu1, nu2 = accuracy_quantities(np.array([2.0, 0.0]), diag, 0.2)
        assert nu1 == pytest.approx(0.01, rel=1e-15)
        assert nu2 == pytest.approx(0.005, rel=1e-15)

    def test_zero_step_measures_no_curvature(self):
        # A first-order solve whose gradient is within its tolerance ends
        # at s = 0 and takes no measure for the targets: it asks no column,
        # and its zero decrease gives zero targets.  Above DENSE_MAX_N, at
        # a saddle of the model.
        n = DENSE_MAX_N + 1
        m = cubic_model(np.full(n, 1e-5), np.diag(np.r_[-2.0, np.ones(n - 1)]), 3.0)
        s, diag = cubic_step(m, eps1=1e-3, theta=0.5)
        assert diag["converged"]
        np.testing.assert_array_equal(s, np.zeros(n))
        assert diag["hvp_evals"] == m.hessian_action.columns == 0
        assert accuracy_quantities(s, diag, 0.2) == (0.0, 0.0)

    def test_targets_are_arithmetic_on_the_report(self):
        # The quantities ask no Hessian action of a q = 2 solve's model.
        m = cubic_model([0.3, -0.1], np.diag([-2.0, 1.0]), 3.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        before = m.hessian_action.columns
        tau = max(1.0, float(np.linalg.norm(s)))
        assert accuracy_quantities(s, diag, 0.2) == targets(tau, diag["taylor_decrease"], 0.2)
        assert m.hessian_action.columns == before


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
            fd = (gradient(m, s + h * v) - gradient(m, s - h * v)) / (2.0 * h)
            np.testing.assert_allclose(action(v), fd, rtol=1e-5, atol=1e-7)

    def test_vector_action_is_the_rank_one_update_bit_for_bit(self):
        # H v + (sigma / 2) (||s|| v + (s @ v / ||s||) s), as written out
        rng = np.random.default_rng(8)
        H = np.diag([2.0, -1.0, 0.3])
        m = cubic_model(rng.standard_normal(3), H, 0.8)
        s = rng.standard_normal(3)
        norm_s = float(np.linalg.norm(s))
        action = model_hessian_action(m, s)
        for v in rng.standard_normal((4, 3)):
            expected = H @ v + 0.5 * 0.8 * (norm_s * v + (float(s @ v) / norm_s) * s)
            np.testing.assert_array_equal(action(v), expected)

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
