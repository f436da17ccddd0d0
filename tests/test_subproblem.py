from dataclasses import replace

import numpy as np
import pytest

from subreg import optimality, subproblem
from subreg.finite_sum import SampleHessian
from subreg.harness import synthesize_dataset
from subreg.model import RegularisedModel, model_hessian_action, step_norm
from subreg.optimality import DENSE_MAX_N, dense_path, phi_2
from subreg.problems import NetworkSpec, SquaredLossProblem, initial_point
from subreg.subproblem import cubic_step, quadratic_step

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


def fresh_measures(m, s):
    """The model value, Taylor decrease and gradient norm at s from a fresh
    action, and the scales of those three sums of terms."""
    value, grad, hs = m.value_and_gradient(s)
    norm_s = step_norm(s)
    gs, shs, cube = abs(float(m.grad @ s)), 0.5 * abs(float(s @ hs)), m.sigma * norm_s**3 / 6.0
    measures = (value, -float(m.grad @ s) - 0.5 * float(s @ hs), float(np.linalg.norm(grad)))
    grad_scale = float(np.linalg.norm(m.grad) + np.linalg.norm(hs)) + 0.5 * m.sigma * norm_s**2
    return measures, (gs + shs + cube, gs + shs, grad_scale)


def assert_reported_within(m, s, diag, bound):
    """The solve's reported measures at s are within ``bound`` of the scale
    of fresh ones."""
    reported = (diag["model_value"], diag["taylor_decrease"], diag["grad_norm"])
    measures, scales = fresh_measures(m, s)
    for got, want, scale in zip(reported, measures, scales):
        assert abs(got - want) <= bound * scale


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

    @pytest.mark.parametrize("n", [2, DENSE_MAX_N + 1])
    def test_saddle_escape_frozen_value(self, n):
        # stationary magnitude solves -2 t + (3/2) t^2 = 0, value -16/27.
        # The q = 2 step leaves the stationary saddle: exactly on the dense
        # path, by adding the leftmost eigenvector to an empty basis above.
        m = cubic_model(np.zeros(n), np.diag(np.r_[-2.0, np.ones(n - 1)]), 3.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and diag["escapes"] == (0 if dense_path(n) else 1)
        assert abs(abs(s[0]) - 4.0 / 3.0) <= 1e-6
        assert np.abs(s[1:]).max() <= 1e-8
        assert diag["model_value"] == pytest.approx(-16.0 / 27.0, rel=1e-10)

    @pytest.mark.parametrize("n", [2, DENSE_MAX_N + 1])
    def test_first_order_step_stops_at_a_stationary_saddle(self, n):
        # g = 0 spans no Krylov space: without eps2 the step is s = 0,
        # converged, and no column is asked.
        m = cubic_model(np.zeros(n), np.diag(np.r_[-2.0, np.ones(n - 1)]), 3.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        np.testing.assert_array_equal(s, np.zeros(n))
        assert diag["converged"] and diag["taylor_decrease"] == 0.0
        assert diag["hvp_evals"] == diag["iterations"] == diag["escapes"] == 0

    def test_descent_always(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((n, n))
            m = cubic_model(rng.standard_normal(n), 0.5 * (A + A.T), float(rng.uniform(0.2, 4.0)))
            s, diag = cubic_step(m, eps1=1e-6, theta=0.5)
            assert m.value_and_gradient(s)[0] <= 0.0

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
            assert abs(m.value_and_gradient(s)[0] - cubic_model_oracle(g, H, sigma)) <= 1e-6

    def test_second_order_tolerance_escapes_model_saddle(self):
        # gradient points along the positive-curvature axis; the first-order
        # solution sits at a saddle of the model
        m = cubic_model([0.0, 0.5], np.diag([-1.0, 2.0]), 1.0)
        s1, _ = cubic_step(m, eps1=1e-8, theta=0.5)
        s2, diag2 = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert m.value_and_gradient(s2)[0] <= m.value_and_gradient(s1)[0] + 1e-12
        assert abs(s2[0]) > 1e-3  # moved off the negative-curvature axis

    def test_exhausted_space_keeps_descent(self):
        # At eps1 = 0 no tolerance can be met: the basis grows until it
        # spans the space, n columns and no more, and the step is the
        # global minimiser.
        n = 6
        g, H, sigma = np.ones(n), np.diag(np.linspace(-2.0, 5.0, n)), 0.4
        m = cubic_model(g, H, sigma)
        s, diag = cubic_step(m, eps1=0.0, theta=0.5)
        assert not diag["converged"]
        assert diag["hvp_evals"] == diag["iterations"] == n
        assert m.value_and_gradient(s)[0] <= 0.0
        exact = cubic_model(g, H, sigma)
        s_exact, _ = cubic_step(exact, eps1=0.0, theta=0.5, eps2=0.0)
        np.testing.assert_allclose(s, s_exact, rtol=0, atol=1e-12)

    def test_counts_hessian_work(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        _, diag = cubic_step(m, eps1=1e-8, theta=0.5)
        assert diag["hvp_evals"] >= diag["iterations"] > 0

    def test_materialisation_counts_one_action_per_column(self):
        # A stationary start asks nothing of a first-order solve.
        n = 4
        m = cubic_model(np.zeros(n), np.eye(n), 1.0)
        _, diag = cubic_step(m, eps1=1e-3, theta=0.5)
        assert diag["hvp_evals"] == 0
        # The exact solve reads the n columns of the matrix, once.
        _, diag = cubic_step(m, eps1=1e-3, theta=0.5, eps2=1e-3)
        assert diag["hvp_evals"] == n

    def saddle_instance(self, build=None):
        """The gradient misses the negative-curvature axis, so a first-order
        solve stops at a saddle of the model.  Returns the model and the
        columns its callable was asked for."""
        n = 6
        H = np.diag(np.linspace(-2.0, 5.0, n))
        columns = []

        def apply(v):
            columns.append(1 if v.ndim == 1 else v.shape[1])
            return H @ v

        hessian = SampleHessian(n, apply, None if build is None else lambda: build(H))
        return RegularisedModel(np.r_[0.0, np.ones(n - 1)], 0.4, hessian), columns

    def test_dense_matrix_built_once_per_model(self, monkeypatch):
        builds, decompositions = [], []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda H: (decompositions.append(1), eigh(H))[1])

        def build(H):
            builds.append(H.shape)
            return H.copy()

        m, columns = self.saddle_instance(build)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and diag["escapes"] == diag["iterations"] == 0
        assert abs(s[0]) > 1e-3  # the exact solve leaves the saddle
        assert builds == [(6, 6)] and decompositions == [1]
        assert columns == []  # the solve read the matrix
        cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert builds == [(6, 6)] and decompositions == [1]

    def test_default_build_is_one_identity_block_call(self):
        m, columns = self.saddle_instance()
        cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert columns == [6]

    def test_hvp_evals_counts_requested_columns_however_answered(self):
        # A subspace solve (here without eps2) asks the cached matrix when
        # the model's SampleHessian holds one, and the callable otherwise.
        # H is diagonal, so products with the cached matrix equal the
        # callable's bit for bit and both solves take the same path.
        cached, cached_columns = self.saddle_instance()
        cached.hessian_action.dense()
        uncached, columns = self.saddle_instance()
        s1, diag1 = cubic_step(cached, eps1=1e-8, theta=0.5)
        s2, diag2 = cubic_step(uncached, eps1=1e-8, theta=0.5)
        np.testing.assert_array_equal(s1, s2)
        assert cached_columns == [6]  # the build alone reached the callable
        assert diag1["hvp_evals"] == diag2["hvp_evals"] == sum(columns)
        # A column per basis vector, and none at the step.
        assert diag1["hvp_evals"] == diag1["iterations"] > 0

    def test_curvature_test_refuses_an_asymmetric_action(self):
        # Above DENSE_MAX_N nothing builds the dense matrix, but the
        # order-two measure of a q = 2 solve checks the action's symmetry.
        n = DENSE_MAX_N + 1
        A = np.diag(np.r_[-2.0, np.ones(n - 1)])
        A[0, 1], A[1, 0] = 0.5, -0.5
        m = cubic_model(np.zeros(n), A, 3.0)
        with pytest.raises(ValueError, match="not symmetric"):
            cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)

    def test_curvature_solve_continues_the_first_order_one(self):
        # Above DENSE_MAX_N a solve with eps2 on a model that a solve
        # without it left continues that solve's subspace: it returns what
        # a solve from scratch returns, bit for bit, and asks only the
        # columns it adds.  The gradient misses the negative-curvature
        # axis, so the first-order solve stops at a saddle of the model.
        n = DENSE_MAX_N + 1
        H = np.diag(np.linspace(-2.0, 5.0, n))
        g = np.r_[0.0, np.full(n - 1, (n - 1) ** -0.5)]
        m = cubic_model(g, H, 0.4)
        _, first = cubic_step(m, eps1=1e-8, theta=0.5)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        s_scratch, scratch = cubic_step(cubic_model(g, H, 0.4), eps1=1e-8, theta=0.5, eps2=1e-6)
        assert s.tobytes() == s_scratch.tobytes()
        assert first["converged"] and diag["converged"] and diag["escapes"] == scratch["escapes"] >= 1
        for key in ("hvp_evals", "iterations"):
            assert first[key] + diag[key] == scratch[key]
        # After a solve with eps2, or after a first-order solve at another
        # tolerance, it starts afresh.
        assert m.subspace is None
        assert cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)[1] == scratch
        cubic_step(m, eps1=1e-6, theta=0.5)
        assert cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)[1] == scratch

    @pytest.mark.parametrize("n", [DENSE_MAX_N + 1])
    def test_escape_does_not_depend_on_the_eigenvector_sign(self, n, monkeypatch):
        # The model is even in the negative-curvature coordinate, so a step
        # either way along it decreases the model alike and only the
        # orientation of the added eigenvector d1 picks one.  Above
        # DENSE_MAX_N a q = 2 solve adds d1 from its phi_2's leftmost
        # pair, here from a gradient orthogonal to the negative-curvature
        # axis.  The action is odd only up to round-off, as a differenced
        # one is, so a basis vector of the other sign changes the step's
        # bits: an exactly odd action carries the flip through the solve
        # and would pass without the orientation.
        H = np.diag(np.linspace(-2.0, 5.0, n))
        g = np.r_[0.0, np.full(n - 1, (n - 1) ** -0.5)]
        action = lambda v: H @ (v + 1.0) - H @ np.ones_like(v)  # noqa: E731
        solves = []
        for sign in (1.0, -1.0):

            def flipped(*args, sign=sign):
                measure = phi_2(*args)
                lam1, d1 = measure.leftmost
                return replace(measure, leftmost=(lam1, sign * d1))

            monkeypatch.setattr(subproblem, "phi_2", flipped)
            model = RegularisedModel(g, 0.4, action)
            solves.append(cubic_step(model, eps1=1e-8, theta=0.5, eps2=1e-6))
        (s_plus, diag_plus), (s_minus, diag_minus) = solves
        assert diag_plus["escapes"] >= 1
        assert s_plus.tobytes() == s_minus.tobytes()
        assert diag_plus == diag_minus

    def test_converged_step_passes_the_second_order_test(self):
        # The solve reports no order-two measure: a converged q = 2 solve's
        # last test passed at the step it returns.
        m = cubic_model([0.0, 0.5], np.diag([-1.0, 2.0]), 1.0)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and "phi2" not in diag
        _, grad, _ = m.value_and_gradient(s)
        assert phi_2(grad, model_hessian_action(m, s), 2).value <= 0.5 * 1e-6

    def test_reports_taylor_decrease_and_grad_norm_at_the_step(self):
        """An exact solve's measures equal fresh ones at its step, bit for
        bit: a fresh action repeats its product with the matrix.  A
        subspace solve's, converged, after an eigenvector addition or
        stopped by a spanning basis, come from its basis's actions, and
        differ from fresh ones by round-off."""
        m, _ = self.saddle_instance()
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and diag["escapes"] == diag["iterations"] == 0
        assert (diag["taylor_decrease"], diag["grad_norm"]) == fresh_measures(m, s)[0][1:]

        n = DENSE_MAX_N + 1
        H = [[1.5, 1.0, -0.5], [1.0, 1.0, 0.0], [-0.5, 0.0, 0.5]]
        cases = [
            (cubic_model([1.0, 0.3], [[2.0, 0.5], [0.5, 1.0]], 0.7), 1e-8, None, True, 0),
            (cubic_model(np.zeros(n), np.diag(np.r_[-2.0, np.ones(n - 1)]), 3.0), 1e-8, 1e-6, True, 1),
            (cubic_model([0.0, 0.5, -0.5], H, 0.25), 0.0, None, False, 0),
        ]
        for m, eps1, eps2, converged, escapes in cases:
            s, diag = cubic_step(m, eps1=eps1, theta=0.5, eps2=eps2)
            assert (diag["converged"], diag["escapes"]) == (converged, escapes)
            assert_reported_within(m, s, diag, 1e-14)

    def test_dense_q2_solve_continues_a_spanning_sizing_solve(self):
        # On the dense path a solve with eps2 after one without it at the
        # same tolerance takes the exact step, unless that solve's basis
        # spans the space: its step is then the model's global minimiser,
        # and the solve asks nothing more.
        n = 6
        g, H, sigma = np.ones(n), np.diag(np.linspace(-2.0, 5.0, n)), 0.4
        s_exact, exact = cubic_step(cubic_model(g, H, sigma), eps1=0.0, theta=0.5, eps2=1e-6)
        assert exact["hvp_evals"] == n and exact["iterations"] == 0
        m = cubic_model(g, H, sigma)
        s_first, first = cubic_step(m, eps1=0.0, theta=0.5)
        s, diag = cubic_step(m, eps1=0.0, theta=0.5, eps2=1e-6)
        assert first["iterations"] == first["hvp_evals"] == n
        assert diag["iterations"] == diag["hvp_evals"] == diag["escapes"] == 0
        assert diag["converged"] and not first["converged"]
        assert s.tobytes() == s_first.tobytes()
        np.testing.assert_allclose(s, s_exact, rtol=0, atol=1e-12)
        # A basis short of the space: the exact step, with its n columns.
        m = cubic_model(g, H, sigma)
        _, first = cubic_step(m, eps1=4.0, theta=0.5)
        s, diag = cubic_step(m, eps1=4.0, theta=0.5, eps2=1e-6)
        assert 0 < first["iterations"] < n and diag["hvp_evals"] == n
        assert s.tobytes() == s_exact.tobytes() and diag == exact

    @pytest.mark.parametrize("hidden, bound", [((), 1e-13), ((4,), 1e-6)])
    def test_report_is_within_the_action_error_of_a_fresh_evaluation(self, hidden, bound):
        # The sigmoid's action is exact, so its basis's combined actions
        # miss H s by round-off; the tanh net's is differenced, so they
        # miss it by the differencing error of each column, about
        # sqrt(machine epsilon) of its scale.
        spec = NetworkSpec(8, hidden)
        prob = SquaredLossProblem(synthesize_dataset(3, 500, 8, 2.0), spec)
        rng = np.random.default_rng(5)
        for trial in range(6):
            x = initial_point(spec, rng) if hidden else 0.5 * rng.standard_normal(prob.n)
            idx = np.arange(0, prob.N, 1 + trial)
            g, H = prob.gradient_mean(idx, x), prob.hessian_action(idx, x)
            m = RegularisedModel(g, 0.1 * (1 + trial), H)
            s, diag = cubic_step(m, eps1=1e-9, theta=0.5)
            assert diag["iterations"] >= 4
            assert_reported_within(m, s, diag, bound)

    def test_theta_validated(self):
        m = cubic_model([1.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(ValueError):
            cubic_step(m, 1e-3, 0.7)


class TestSubspaceSolve:
    """Solves without eps2, or above DENSE_MAX_N: the model minimised on a
    basis grown from g, one Hessian column per basis vector and none at
    the step."""

    def test_matches_the_global_oracle_on_small_instances(self):
        # n <= 3, convex and indefinite, with a generic gradient, which
        # the Krylov space of every such instance reaches.
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            g, H, sigma = rng.standard_normal(n), 0.5 * (A + A.T), float(rng.uniform(0.3, 3.0))
            m = cubic_model(g, H, sigma)
            s, diag = cubic_step(m, eps1=1e-9, theta=0.5)
            assert diag["converged"] and diag["hvp_evals"] <= n
            assert abs(diag["model_value"] - cubic_model_oracle(g, H, sigma)) <= 1e-8

    def test_meets_the_tolerance_within_n_columns(self):
        rng = np.random.default_rng(27)
        for trial in range(30):
            n = int(rng.integers(2, 61))
            A = rng.standard_normal((n, n))
            g = rng.standard_normal(n) * float(rng.uniform(1e-3, 10.0))
            sigma = float(rng.uniform(0.05, 5.0))
            eps1 = [1e-2, 1e-5, 1e-8][trial % 3]
            m = cubic_model(g, 0.5 * (A + A.T), sigma)
            s, diag = cubic_step(m, eps1=eps1, theta=0.5)
            value, grad, _ = m.value_and_gradient(s)
            assert value <= 0.0 and diag["converged"]
            assert np.linalg.norm(grad) <= 0.5 * eps1
            assert diag["hvp_evals"] == diag["iterations"] <= n


EXACT_KINDS = ("indefinite", "hard", "saddle", "zero", "psd_singular", "definite")


def exact_case(seed):
    """A seeded cubic model (g, H, sigma) with n <= 3, of kind
    EXACT_KINDS[seed // 6].  ``hard``: leftmost eigenvalue -1, with the
    gradient orthogonal to its eigenvector and too short to reach the
    radius 2 / sigma; ``saddle``: g = 0 at an indefinite H; ``zero``: H = 0,
    with g = 0 on odd seeds."""
    rng = np.random.default_rng([seed, 24])
    n = 1 + seed % 3
    kind = EXACT_KINDS[seed // 6]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 2.0, n)
    w = rng.standard_normal(n)
    sigma = float(rng.uniform(0.2, 4.0))
    if kind in ("indefinite", "saddle"):
        lam[0] = -lam[0]
    if kind == "hard":
        lam[0], w[0] = -1.0, 0.0
        w *= 1.0 / (sigma * max(np.linalg.norm(w), 1e-300))
    elif kind == "saddle":
        w[:] = 0.0
    elif kind == "zero":
        lam[:] = 0.0
        w *= seed % 2 == 0
    elif kind == "psd_singular":
        lam[0] = 0.0
    H = (Q * lam) @ Q.T
    return Q @ w, 0.5 * (H + H.T), sigma


@pytest.fixture
def secular_evaluations(monkeypatch):
    """Evaluations of the secular function per multiplier search."""
    counts = []
    search = optimality._boundary_multiplier

    def counting(newton, lo, hi):
        counts.append(0)

        def counted(mu):
            counts[-1] += 1
            return newton(mu)

        return search(counted, lo, hi)

    monkeypatch.setattr(optimality, "_boundary_multiplier", counting)
    return counts


class TestExactSolve:
    """q = 2 solves on the dense path: the model's global minimiser from one
    eigendecomposition per SampleHessian."""

    @pytest.mark.parametrize("seed", range(6 * len(EXACT_KINDS)))
    def test_global_minimiser_from_one_decomposition(self, seed, monkeypatch, secular_evaluations):
        g, H, sigma = exact_case(seed)
        n = g.size
        decompositions = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (decompositions.append(1), eigh(A))[1])
        m = cubic_model(g, H, sigma)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert diag["converged"] and (diag["iterations"], diag["escapes"]) == (0, 0)
        assert diag["hvp_evals"] == m.hessian_action.columns == n
        value, grad, _ = m.value_and_gradient(s)
        assert diag["model_value"] == value
        assert value <= cubic_model_oracle(g, H, sigma) + 1e-10
        assert np.linalg.norm(grad) <= 1e-10 * (1.0 + np.linalg.norm(g))
        # H + (sigma ||s|| / 2) I is positive semidefinite at the global minimiser.
        lam = np.linalg.eigvalsh(H)
        assert lam[0] + 0.5 * sigma * np.linalg.norm(s) >= -1e-12 * max(1.0, np.abs(lam).max())
        # A second solve on the same sample and the termination test's
        # phi_2 read the decomposition back.
        cubic_step(RegularisedModel(-g, sigma, m.hessian_action), eps1=1e-8, theta=0.5, eps2=1e-6)
        phi_2(g, m.hessian_action, n)
        assert decompositions == [1]
        assert max(secular_evaluations, default=0) <= 10

    def test_huge_regulariser(self, secular_evaluations):
        # At sigma = 1e300 the multiplier is about sqrt(sigma ||g|| / 2),
        # and the radius 2 mu / sigma of a hard case about 1e-300: the
        # search starts near the root, and neither overflows (tier-1 turns
        # any warning into an error).
        for seed in range(6 * len(EXACT_KINDS)):
            g, H, _ = exact_case(seed)
            m = cubic_model(g, H, 1e300)
            s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
            assert np.isfinite(s).all() and diag["model_value"] <= 0.0
            assert diag["grad_norm"] <= 1e-10 * (1.0 + np.linalg.norm(g))
        assert max(secular_evaluations) <= 10

    @pytest.mark.parametrize("seed", [6, 9, 12, 13, 14, 15, 16, 17])
    def test_huge_regulariser_keeps_the_cubic_term_of_a_tiny_step(self, seed):
        # Hard cases and saddles at sigma = 1e300 step 2e-300 along the
        # leftmost eigenvector, whose entries square to 0.  The model
        # value there, about -(2/3) |lambda_min|^3 / sigma^2, is below the
        # smallest double, but the step norm, the (sigma/2) ||s|| s term of
        # the model gradient and the model Hessian must keep it.
        g, H, _ = exact_case(seed)
        sigma = 1e300
        m = cubic_model(g, H, sigma)
        s, diag = cubic_step(m, eps1=1e-8, theta=0.5, eps2=1e-6)
        assert 0.0 < np.abs(s).max() < 1e-290
        _, grad, _ = m.value_and_gradient(s)
        assert np.abs(grad).max() <= 1e-12 * np.abs(s).max()
        curvature = model_hessian_action(m, s)(np.eye(g.size))
        assert np.linalg.eigvalsh(0.5 * (curvature + curvature.T))[0] >= -1e-12
        assert 0.5 * sigma * step_norm(s) >= -np.linalg.eigvalsh(H)[0] * (1.0 - 1e-12)
        assert diag["model_value"] <= 0.0

    @pytest.mark.parametrize("seed", [6, 7, 8, 12, 13, 14])
    @pytest.mark.parametrize("flip", ["all", "first"])
    def test_hard_case_does_not_depend_on_the_eigenvector_sign(self, seed, flip, monkeypatch):
        # Hard cases and saddles: the step runs along the leftmost
        # eigenvector, whose sign eigh does not fix.  The gradient is
        # orthogonal to it up to round-off (hard) or exactly (saddle, where
        # its largest entry orients it).
        g, H, sigma = exact_case(seed)
        eigh = np.linalg.eigh
        signs = -np.ones(g.size) if flip == "all" else np.r_[-1.0, np.ones(g.size - 1)]
        steps = []
        for flip_signs in (np.ones(g.size), signs):
            monkeypatch.setattr(
                np.linalg, "eigh", lambda A, f=flip_signs: (lambda lam, Q: (lam, Q * f))(*eigh(A))
            )
            s, _ = cubic_step(cubic_model(g, H, sigma), eps1=1e-8, theta=0.5, eps2=1e-6)
            steps.append(s)
        assert np.linalg.norm(steps[0]) > 0.1
        assert steps[0].tobytes() == steps[1].tobytes()
