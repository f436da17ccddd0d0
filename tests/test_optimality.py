import numpy as np
import pytest

from subreg import optimality
from subreg.finite_sum import SampleHessian
from subreg.optimality import (
    DENSE_MAX_N,
    _phi2_dense,
    check_termination,
    dense_path,
    leftmost_eigenpair,
    phi_1,
    phi_2,
)

from oracles import phi2_dense_brentq, phi2_disc_oracle, phi2_spectral, sphere_scan_max


def action_of(H):
    H = np.asarray(H, dtype=float)
    return lambda v: H @ v


def phi2_dense(g, H):
    """The dense path's phi_2 of (g, H), whatever the order of H."""
    hessian = SampleHessian(g.size, action_of(H))
    return _phi2_dense(g, hessian.dense(), hessian.eigh())


class TestPhi1:
    def test_closed_forms(self):
        assert phi_1(np.array([3.0, 4.0])) == 5.0
        assert phi_1(np.zeros(3)) == 0.0

    def test_equals_sphere_maximum(self):
        g = np.random.default_rng(0).standard_normal(4)
        scan = sphere_scan_max(lambda d: float(-g @ d), 4, samples=10_000, seed=1)
        assert abs(phi_1(g) - scan) <= 1e-2 * phi_1(g)


class TestPhi2Dense:
    def test_pure_negative_curvature(self):
        r = phi_2(np.zeros(2), action_of(np.diag([-2.0, 1.0])), 2)
        assert r.value == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(r.direction[0]) - 1.0) <= 1e-8

    def test_psd_with_zero_gradient(self):
        r = phi_2(np.zeros(2), action_of(np.eye(2)), 2)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_mixed_frozen_instance(self):
        r = phi_2(np.array([1.0, 0.0]), action_of(np.diag([-2.0, 1.0])), 2)
        assert r.value == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(r.direction, [-1.0, 0.0], atol=1e-8)

    def test_interior_solution(self):
        H = np.diag([4.0, 2.0])
        g = np.array([0.4, 0.2])
        r = phi_2(g, action_of(H), 2)
        assert not r.boundary
        assert r.multiplier == 0.0
        d = -np.linalg.solve(H, g)
        np.testing.assert_allclose(r.direction, d, atol=1e-10)

    def test_hard_case(self):
        # gradient orthogonal to the leftmost eigenvector
        H = np.diag([-2.0, 1.0])
        g = np.array([0.0, 0.3])
        r = phi_2(g, action_of(H), 2)
        oracle = phi2_disc_oracle(g, H)
        assert abs(r.value - oracle) <= 1e-8
        assert r.boundary
        assert abs(np.linalg.norm(r.direction) - 1.0) <= 1e-8

    def test_matches_disc_oracle_randomised(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A = rng.standard_normal((2, 2))
            H = 0.5 * (A + A.T)
            g = rng.standard_normal(2)
            r = phi_2(g, action_of(H), 2)
            assert abs(r.value - phi2_disc_oracle(g, H)) <= 1e-6

    def test_value_dominates_sampled_directions(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        H = 0.5 * (A + A.T)
        g = rng.standard_normal(3)
        r = phi_2(g, action_of(H), 3)
        D = rng.standard_normal((1000, 3))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        vals = -(D @ g) - 0.5 * np.einsum("ij,jk,ik->i", D, H, D)
        assert r.value >= vals.max() - 1e-9
        assert r.value >= 0.0

    def test_feasibility(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            r = phi_2(rng.standard_normal(3), action_of(0.5 * (A + A.T)), 3)
            assert np.linalg.norm(r.direction) <= 1.0 + 1e-10

    def test_asymmetric_operator_rejected(self):
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            phi_2(np.ones(2), action_of(H), 2)


EPS = np.finfo(float).eps
SPECTRAL_KINDS = ("indefinite", "psd_singular", "near_hard")
GRADIENT_NORMS = (1e-12, 1.0, 1e8)
ORDERS = (2, 6, 50, DENSE_MAX_N)
ITERATIVE_KINDS = SPECTRAL_KINDS + ("hard",)
ITERATIVE_GRADIENT_NORMS = (1e-6, 1e-2, 1.0, 1e2)
ITERATIVE_ORDERS = (DENSE_MAX_N + 1, DENSE_MAX_N + 60)


def spectral_case(kind, n, gnorm, seed):
    """g, H and the spectral data (lam, w) they are built from, H = Q diag(lam) Q^T, g = Q w.

    ``indefinite``: a third of the eigenvalues negative.  ``psd_singular``:
    a quarter of them zero, with the gradient off that null space on odd
    seeds.  ``near_hard``: leftmost eigenvalue -1 with a gradient component
    of 1e-10 ||g|| on its eigenvector, the rest too short to reach the
    sphere at mu = 1 when ||g|| = 1.  ``hard``: the same with no component
    on that eigenvector.
    """
    rng = np.random.default_rng([seed, n])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 2.0, n)
    w = rng.standard_normal(n)
    if kind == "indefinite":
        lam[: max(1, n // 3)] *= -1.0
    elif kind == "psd_singular":
        lam[: max(1, n // 4)] = 0.0
        if seed % 2:
            w[: max(1, n // 4)] = 0.0
    else:
        lam[0] = -1.0
    w *= gnorm / np.linalg.norm(w)
    if kind == "near_hard":
        w[0] = 1e-10 * gnorm
    elif kind == "hard":
        w[0] = 0.0
    H = (Q * lam) @ Q.T
    return Q @ w, 0.5 * (H + H.T), lam, w


@pytest.fixture
def multiplier_searches(monkeypatch):
    """Evaluations of the secular function per multiplier search."""
    counts = []
    search = optimality._boundary_multiplier

    def counting(norm_and_slope, lo, hi):
        counts.append(0)

        def counted(mu):
            counts[-1] += 1
            return norm_and_slope(mu)

        return search(counted, lo, hi)

    monkeypatch.setattr(optimality, "_boundary_multiplier", counting)
    return counts


class TestPhi2DenseNewtonSearch:
    """numpy's eigh and the Newton multiplier search against SciPy's eigh
    and brentq (the reference) and against the value from the spectral data."""

    @pytest.mark.parametrize("gnorm", GRADIENT_NORMS)
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("kind", SPECTRAL_KINDS)
    def test_value_matches_the_spectral_data(self, kind, n, gnorm, multiplier_searches):
        # H holds its spectral data only to about eps * ||H||, which moves
        # the value by as much; beyond that the value is good to 1e-12.
        # The reference misses here where ||g|| = 1e-12 (by up to the whole
        # value on indefinite H) and in the near-hard case at ||g|| = 1.
        for seed in range(3):
            g, H, lam, w = spectral_case(kind, n, gnorm, seed)
            r = phi2_dense(g, H)
            truth = phi2_spectral(lam, w)
            assert abs(r.value - truth) <= 1e-12 * abs(truth) + EPS * np.abs(lam).max()
            assert np.linalg.norm(r.direction) <= 1.0 + 4.0 * EPS
        assert max(multiplier_searches, default=0) <= 20 < optimality._MULTIPLIER_MAX_ITERATIONS

    @pytest.mark.parametrize(
        "kind, gnorm",
        [(k, gn) for k in SPECTRAL_KINDS for gn in GRADIENT_NORMS[1:]
         if (k, gn) != ("near_hard", 1.0)],
    )
    @pytest.mark.parametrize("n", ORDERS)
    def test_value_matches_the_brentq_reference(self, kind, n, gnorm, multiplier_searches):
        for seed in range(3):
            g, H, _, _ = spectral_case(kind, n, gnorm, seed)
            r = phi2_dense(g, H)
            ref = phi2_dense_brentq(g, H)
            assert r.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
            assert r.boundary == ref.boundary
            assert np.linalg.norm(r.direction) <= 1.0 + 4.0 * EPS
        assert max(multiplier_searches, default=0) <= 20

    def test_tiny_gradient_on_indefinite_hessian_keeps_the_curvature(self):
        # A gradient component just above the 1e-13 zero threshold put the
        # root inside the 1e-12 shift cut-off, where the brentq search
        # dropped that component: it returned d = 0 and phi2 = 0 at a saddle
        # whose curvature alone gives -0.5 * lam_min = 0.5.
        H = np.diag([-1.0, 2.0])
        g = np.array([5e-13, 0.0])
        r = phi2_dense(g, H)
        assert r.value == pytest.approx(0.5 + 5e-13, rel=1e-12)
        assert np.linalg.norm(r.direction) == pytest.approx(1.0, abs=4.0 * EPS)

    def test_search_gives_up_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(optimality, "_MULTIPLIER_MAX_ITERATIONS", 1)
        g, H, _, _ = spectral_case("indefinite", 6, 1.0, 0)
        with pytest.raises(RuntimeError, match="did not converge"):
            phi2_dense(g, H)


class TestPhi2Iterative:
    @pytest.mark.parametrize("gnorm", ITERATIVE_GRADIENT_NORMS)
    @pytest.mark.parametrize("kind", ITERATIVE_KINDS)
    def test_value_matches_the_dense_path(self, kind, gnorm, multiplier_searches):
        # Beyond the representation error of H, the Krylov path leaves the
        # value within 1e-9 of the dense one, near-hard cases, tiny gradients
        # on indefinite H and singular H included.
        for n in ITERATIVE_ORDERS:
            for seed in range(3):
                g, H, lam, _ = spectral_case(kind, n, gnorm, seed)
                dense = phi2_dense(g, H)
                r = phi_2(g, action_of(H), n)
                assert abs(r.value - dense.value) <= 1e-9 * abs(dense.value) + EPS * np.abs(lam).max()
                assert np.linalg.norm(r.direction) <= 1.0 + 4.0 * EPS
        assert max(multiplier_searches, default=0) <= 20

    @pytest.mark.parametrize("n", [DENSE_MAX_N, DENSE_MAX_N + 1])
    def test_both_paths_share_the_search_and_the_hard_case(self, n, monkeypatch, multiplier_searches):
        # The dense path solves once; the Krylov path solves its projected
        # problem once per basis vector, and its last solve decides.
        solves = []
        for name in ("_boundary_multiplier", "_inside_or_hard_case"):
            inner = getattr(optimality, name)
            monkeypatch.setattr(
                optimality, name, lambda *args, inner=inner, name=name: solves.append(name) or inner(*args)
            )
        for kind, last in (("indefinite", "_boundary_multiplier"), ("hard", "_inside_or_hard_case")):
            solves.clear()
            g, H, _, _ = spectral_case(kind, n, 1.0, 0)
            phi_2(g, action_of(H), n)
            assert solves[-1] == last
            assert len(solves) == 1 or not dense_path(n)

    def test_agrees_with_dense_path(self):
        rng = np.random.default_rng(7)
        n = DENSE_MAX_N + 10  # the Krylov path
        for trial in range(5):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            H = 0.5 * (A + A.T)
            if trial % 2 == 0:
                H -= 0.5 * np.eye(n)  # force indefiniteness
            g = rng.standard_normal(n) / np.sqrt(n)
            dense = phi2_dense(g, H)
            iterative = phi_2(g, action_of(H), n)
            assert abs(dense.value - iterative.value) <= 1e-9 * dense.value + EPS * np.linalg.norm(H, 2)

    def test_iterative_hard_case(self):
        n = DENSE_MAX_N + 10
        lam = np.linspace(1.0, 2.0, n)
        lam[0] = -1.5
        H = np.diag(lam)
        g = np.zeros(n)
        g[1:] = 0.01
        dense = phi2_dense(g, H)
        iterative = phi_2(g, action_of(H), n)
        assert abs(dense.value - iterative.value) <= 1e-9 * dense.value + EPS * 2.0

    @pytest.mark.parametrize("n", ITERATIVE_ORDERS)
    def test_zero_gradient_at_a_strict_saddle(self, n):
        # g spans nothing: only the random start finds the curvature, and
        # phi2 is -lam_min / 2 along the leftmost eigenvector.
        lam = np.linspace(1.0, 2.0, n)
        lam[0] = -1.5
        H = np.diag(lam)
        g = np.zeros(n)
        dense = phi2_dense(g, H)
        iterative = phi_2(g, action_of(H), n)
        assert dense.value == pytest.approx(0.75, rel=1e-12)
        assert abs(dense.value - iterative.value) <= 1e-9 * dense.value + EPS * 2.0
        assert abs(iterative.direction[0]) == pytest.approx(1.0, rel=1e-6)

    def test_asymmetric_operator_rejected(self):
        n = DENSE_MAX_N + 1
        H = np.eye(n) + np.triu(np.ones((n, n)), 1)
        with pytest.raises(ValueError, match="not symmetric"):
            phi_2(np.ones(n), action_of(H), n)

    def test_dense_path_ends_at_the_constant(self):
        assert dense_path(DENSE_MAX_N)
        assert not dense_path(DENSE_MAX_N + 1)


class TestLeftmost:
    @staticmethod
    def leftmost(gradient, H, Q):
        """The leftmost pair of H from ``leftmost_eigenpair`` (g = 0) or
        from phi_2 at a generic g or a hard-case g, short and orthogonal to
        the leftmost eigenvector ``Q[:, 0]``."""
        n = len(H)
        if gradient == "zero":
            return leftmost_eigenpair(action_of(H), n)
        g = np.random.default_rng(10).standard_normal(n)
        if gradient == "hard":
            g = 1e-3 * (g - (g @ Q[:, 0]) * Q[:, 0])
        r = phi_2(g, action_of(H), n)
        lam1, _ = r.leftmost
        assert r.boundary and (r.multiplier == pytest.approx(-lam1, rel=1e-9)) == (gradient == "hard")
        return r.leftmost

    @pytest.mark.parametrize("n", [2, DENSE_MAX_N + 1])
    def test_asymmetric_action_refused_on_both_paths(self, n):
        # Above DENSE_MAX_N by phi_2's probabilistic check (4 columns).
        H = np.eye(n) + np.triu(np.ones((n, n)), 1)
        with pytest.raises(ValueError, match="not symmetric"):
            leftmost_eigenpair(action_of(H), n)

    def test_iterative_finds_a_repeated_zero_eigenvalue(self):
        # A 50-fold zero eigenvalue, which no eigenvalue-relative test meets.
        g, H, lam, _ = spectral_case("psd_singular", DENSE_MAX_N + 1, 1.0, 0)
        lam1, vec = leftmost_eigenpair(action_of(H), DENSE_MAX_N + 1)
        assert abs(lam1) <= 1e-9
        assert np.linalg.norm(H @ vec) <= 1e-9

    def test_iterative_on_a_zero_hessian(self):
        # Every action is zero: the basis cannot grow past its start.
        n = DENSE_MAX_N + 1
        zero = lambda v: 0.0 * v  # noqa: E731
        lam1, vec = leftmost_eigenpair(zero, n)
        assert lam1 == 0.0
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        # phi2 is then the linear term's unit-ball maximum, ||g||.
        assert phi_2(np.ones(n), zero, n).value == pytest.approx(np.sqrt(n), rel=1e-12)

    def test_iterative_keeps_the_relative_shift_at_a_tiny_scale(self):
        # The residual test is relative to the projected spectrum, so an
        # absolute floor cannot swamp a Hessian of scale 1e-20.
        n = DENSE_MAX_N + 1
        lam = 1e-20 * np.concatenate([[-1.0], np.linspace(1.0, 2.0, n - 1)])
        lam1, vec = leftmost_eigenpair(lambda v: lam * v, n)
        assert lam1 == pytest.approx(-1e-20, rel=1e-6)
        assert abs(vec[0]) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize(
        "diagonal, leftmost",
        [
            (np.linspace(-1.0, 1.0, 201), -1.0),
            (np.arange(-1.0, 200.0) / 200.0, -0.005),
        ],
    )
    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e8])
    def test_iterative_at_any_scale(self, diagonal, leftmost, scale):
        # The same relative accuracy at every scale, 1e-20 included, where
        # an eigensolver whose test floors |lambda| near 1e-11 stops early.
        d = scale * diagonal
        lam1, vec = leftmost_eigenpair(lambda v: d * v, d.size)
        assert lam1 == pytest.approx(scale * leftmost, rel=1e-12)
        assert abs(vec[np.argmin(d)]) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("gradient", ["zero", "generic", "hard"])
    def test_dense_matches_numpy(self, gradient):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        H = 0.5 * (A + A.T)
        w, Q = np.linalg.eigh(H)
        lam, vec = self.leftmost(gradient, H, Q)
        assert lam == pytest.approx(w[0], rel=1e-12)
        assert abs(abs(vec @ Q[:, 0]) - 1.0) <= 1e-10

    @pytest.mark.parametrize("gradient", ["zero", "generic", "hard"])
    def test_iterative_matches_dense(self, gradient):
        rng = np.random.default_rng(9)
        n = DENSE_MAX_N + 10
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        w, Q = np.linalg.eigh(H)
        lam_i, vec = self.leftmost(gradient, H, Q)
        assert abs(w[0] - lam_i) <= 1e-6 * max(1.0, abs(w[0]))
        assert abs(abs(vec @ Q[:, 0]) - 1.0) <= 1e-6
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n", ITERATIVE_ORDERS)
    def test_iterative_at_a_strict_saddle(self, n):
        # The escape direction at g = 0: the leftmost eigenvector of a
        # diagonal saddle, which no g-started space contains.
        lam = np.linspace(1.0, 2.0, n)
        lam[0] = -1.5
        lam1, vec = leftmost_eigenpair(lambda v: lam * v, n)
        assert lam1 == pytest.approx(-1.5, rel=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, rel=1e-6)


class TestMaterialise:
    """``SampleHessian.dense()``, the one builder of the eigensolvers' matrices."""

    def test_reconstructs_matrix(self):
        H = np.array([[2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_allclose(SampleHessian(2, action_of(H)).dense(), H)

    def test_asymmetry_detected(self):
        H = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SampleHessian(2, action_of(H)).dense()

    def test_one_call_with_the_identity_block(self):
        H = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        calls = []

        def action(v):
            calls.append(np.array(v))
            return H @ v

        np.testing.assert_array_equal(SampleHessian(3, action).dense(), H)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.eye(3))

    def test_vector_only_action_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SampleHessian(2, lambda v: np.ones(2)).dense()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dense_eigensolvers_refuse_a_non_finite_action(self, bad):
        # They used to build the matrix themselves and then die in eigh
        # ("Eigenvalues did not converge"), after a RuntimeWarning from the
        # symmetrisation when the action was infinite.  Above DENSE_MAX_N
        # the Krylov basis died the same way in the eigh of its projected
        # matrix.
        action = lambda v: np.full(v.shape, bad)  # noqa: E731
        for n in (3, DENSE_MAX_N + 1):
            with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
                leftmost_eigenpair(action, n)
            with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
                phi_2(np.ones(n), action, n)

    def test_dense_eigensolvers_call_the_action_once_on_the_identity(self):
        H = np.diag([-1.0, 0.5, 2.0])
        calls = []

        def action(v):
            calls.append(v.shape)
            return H @ v

        leftmost_eigenpair(action, 3)
        phi_2(np.ones(3), action, 3)
        assert calls == [(3, 3), (3, 3)]


class TestTermination:
    def test_first_order(self):
        assert check_termination([9e-4], [1e-3])
        assert not check_termination([2e-3], [1e-3])

    def test_second_order_divisor(self):
        # phi_2 must be at most eps_2 / 2
        assert not check_termination([0.0, 0.6], [1e-3, 1.0])
        assert check_termination([0.0, 0.5], [1e-3, 1.0])

    def test_boundary_inclusive(self):
        assert check_termination([1e-3, 5e-4], [1e-3, 1e-3])

    def test_zero_tolerances_only_at_stationary_points(self):
        assert check_termination([0.0, 0.0], [0.0, 0.0])
        assert not check_termination([1e-300, 0.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_termination([1.0], [1.0, 1.0])
