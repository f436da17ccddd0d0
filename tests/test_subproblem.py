import numpy as np
import pytest

from subreg import subproblem
from subreg.finite_sum import SampleHessian
from subreg.model import RegularisedModel, model_hessian_action
from subreg.optimality import phi_2
from subreg.subproblem import bb_step_length, cubic_step, quadratic_step

from oracles import cubic_model_oracle

SQRT3_MINUS_1 = 0.7320508075688772


def cubic_model(g, H, sigma):
    H = np.asarray(H, dtype=float)
    return RegularisedModel(np.asarray(g, dtype=float), sigma, lambda v: H @ v)


class TestQuadraticStep:
    def test_closed_form(self):
        s, dt = quadratic_step(np.array([3.0, 4.0]), 2.0)
        np.testing.assert_array_equal(s, [-1.5, -2.0])
        assert dt == 12.5

    def test_zero_gradient(self):
        s, dt = quadratic_step(np.zeros(3), 0.7)
        np.testing.assert_array_equal(s, np.zeros(3))
        assert dt == 0.0

    def test_model_gradient_vanishes_at_step(self):
        g = np.random.default_rng(0).standard_normal(5)
        sigma = 1.7
        s, _ = quadratic_step(g, sigma)
        # gradient of the quadratic model g @ s + (sigma/2) ||s||^2
        assert np.linalg.norm(g + sigma * s) <= 1e-15 * np.linalg.norm(g)

    def test_step_is_scaled_negative_gradient(self):
        # the accepted update is x - g / sigma: a learning rate of 1 / sigma
        g = np.array([2.0, -6.0])
        s, _ = quadratic_step(g, 4.0)
        np.testing.assert_allclose(s, -g / 4.0)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            quadratic_step(np.ones(2), 0.0)


class TestBBStepLength:
    def test_quadratic_with_hessian_2i(self):
        ds = np.array([1.0, -2.0])
        assert bb_step_length(ds, 2.0 * ds) == 0.5

    def test_nonpositive_curvature_safeguard(self):
        assert bb_step_length(np.array([1.0, 0.0]), np.array([-1.0, 0.5])) == 1e10

    def test_closed_form(self):
        assert bb_step_length(np.array([1.0, 0.0]), np.array([4.0, 1.0])) == 0.25

    def test_clamped(self):
        assert bb_step_length(np.array([1e-12, 0.0]), np.array([1.0, 0.0])) == 1e-10
        assert bb_step_length(np.array([1.0, 0.0]), np.array([1e-12, 0.0])) == 1e10


class TestCubicStep:
    def test_frozen_stationary_point(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert np.linalg.norm(s - np.array([-SQRT3_MINUS_1, 0.0])) <= 1e-4
        assert diag["converged"]

    def test_zero_gradient_psd_returns_zero(self):
        m = cubic_model([0.0, 0.0], np.eye(2), 1.0)
        s, diag = cubic_step(m, eps1=1e-3, theta=0.5)
        np.testing.assert_array_equal(s, np.zeros(2))
        assert diag["converged"]

    def test_saddle_escape_frozen_value(self):
        # stationary magnitude solves -2 t + (3/2) t^2 = 0, value -16/27
        m = cubic_model([0.0, 0.0], np.diag([-2.0, 1.0]), 3.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert abs(abs(s[0]) - 4.0 / 3.0) <= 1e-6
        assert abs(s[1]) <= 1e-8
        assert diag["model_value"] == pytest.approx(-16.0 / 27.0, rel=1e-10)

    def test_descent_always(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((n, n))
            m = cubic_model(rng.standard_normal(n), 0.5 * (A + A.T), float(rng.uniform(0.2, 4.0)))
            s, diag = cubic_step(m, eps1=1e-6, theta=0.5)
            assert m.value(s) <= 0.0

    def test_matches_global_oracle_on_convex_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            H = A @ A.T + 0.1 * np.eye(n)
            g = rng.standard_normal(n)
            sigma = float(rng.uniform(0.3, 3.0))
            m = cubic_model(g, H, sigma)
            s, _ = cubic_step(m, eps1=1e-9, theta=0.5)
            assert abs(m.value(s) - cubic_model_oracle(g, H, sigma)) <= 1e-6

    def test_second_order_tolerance_escapes_model_saddle(self):
        # gradient points along the positive-curvature axis; the first-order
        # solution sits at a saddle of the model
        m = cubic_model([0.0, 0.5], np.diag([-1.0, 2.0]), 1.0)
        s1, _ = cubic_step(m, eps1=1e-8, theta=0.5)
        s2, diag2 = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert m.value(s2) <= m.value(s1) + 1e-12
        assert abs(s2[0]) > 1e-3  # moved off the negative-curvature axis

    def test_budget_exhaustion_keeps_descent(self, monkeypatch):
        monkeypatch.setattr(subproblem, "_MAX_INNER_ITERATIONS", 3)
        m = cubic_model(np.ones(6), np.diag(np.linspace(-2.0, 5.0, 6)), 0.4)
        s, diag = cubic_step(m, eps1=1e-12, theta=0.5)
        assert not diag["converged"]
        assert m.value(s) <= 0.0

    def test_counts_hessian_work(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        _, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert diag["hvp_evals"] >= diag["iterations"] > 0

    def test_materialisation_counts_one_action_per_column(self):
        # A stationary start probes curvature once through the dense
        # leftmost eigenpair: one (n, n) block, counted as n actions.
        n = 4
        m = cubic_model(np.zeros(n), np.eye(n), 1.0)
        _, diag = cubic_step(m, eps1=1e-3, theta=0.5)
        assert diag["hvp_evals"] == n
        # The second-order test materialises the model Hessian once more.
        _, diag = cubic_step(m, eps1=1e-3, theta=0.5, eps2=1e-3)
        assert diag["hvp_evals"] == 2 * n

    def saddle_instance(self, build=None, kind=SampleHessian):
        """The gradient misses the negative-curvature axis, so the first
        solve stops at a saddle of the model: the second-order test fails,
        the solver escapes and tests again, materialising H each time.
        Returns the model and the columns its callable was asked for."""
        n = 6
        H = np.diag(np.linspace(-2.0, 5.0, n))
        columns = []

        def apply(v):
            columns.append(1 if v.ndim == 1 else v.shape[1])
            return H @ v

        hessian = kind(n, apply, None if build is None else lambda: build(H))
        return RegularisedModel(np.r_[0.0, np.ones(n - 1)], 0.4, hessian), columns

    def test_dense_matrix_built_once_per_model(self):
        builds = []

        def build(H):
            builds.append(H.shape)
            return H.copy()

        m, columns = self.saddle_instance(build)
        _, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and diag["escapes"] == 1
        assert builds == [(6, 6)]
        assert columns == []  # every action was answered from the matrix
        cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert builds == [(6, 6)]

    def test_default_build_is_one_identity_block_call(self):
        m, columns = self.saddle_instance()
        cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert columns == [6]

    def test_hvp_evals_counts_requested_columns_however_answered(self):
        # Without the dense matrix every requested column reaches the
        # callable.  H is diagonal, so products with the cached matrix equal
        # the callable's bit for bit and both solves take the same path.
        class Uncached(SampleHessian):
            def dense(self):
                return None

        cached, _ = self.saddle_instance()
        uncached, columns = self.saddle_instance(kind=Uncached)
        s1, diag1 = cubic_step(cached, eps1=1e-8, theta=0.5, eps2=1e-6)
        s2, diag2 = cubic_step(uncached, eps1=1e-8, theta=0.5, eps2=1e-6)
        np.testing.assert_array_equal(s1, s2)
        assert diag1["hvp_evals"] == diag2["hvp_evals"] == sum(columns)
        # BB actions plus n per materialisation: three materialisations
        # (two second-order tests and the escape's eigenpair).
        assert diag1["hvp_evals"] == 87

    def test_first_order_escape_symmetrises_without_a_check(self):
        # Without eps2 nothing builds the dense matrix: the escape's
        # eigenpair symmetrises the identity-block action unchecked, so an
        # action asymmetric beyond the dense build's tolerance still escapes.
        m = cubic_model([0.0, 0.0], [[-2.0, 0.5], [-0.5, 1.0]], 3.0)
        with pytest.raises(ValueError):
            SampleHessian(2, m.hessian_action).dense()
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert diag["escapes"] >= 1
        assert m.value(s) < 0.0

    def test_reports_phi2_at_the_returned_step(self):
        m = cubic_model([0.0, 0.5], np.diag([-1.0, 2.0]), 1.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"]
        assert diag["phi2"] == phi_2(m.gradient(s), model_hessian_action(m, s), 2).value
        _, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert diag["phi2"] is None

    def test_theta_validated(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError):
            cubic_step(m, 1e-3, 0.7)
