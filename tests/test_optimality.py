import numpy as np
import pytest

from subreg.optimality import (
    DENSE_MAX_N,
    _phi2_dense,
    _phi2_iterative,
    check_termination,
    dense_path,
    leftmost_eigenpair,
    materialise_operator,
    phi_1,
    phi_2,
)

from oracles import phi2_disc_oracle, sphere_scan_max


def action_of(H):
    H = np.asarray(H, dtype=float)
    return lambda v: H @ v


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


class TestPhi2Iterative:
    def test_agrees_with_dense_path(self):
        rng = np.random.default_rng(7)
        n = DENSE_MAX_N + 10  # the iterative path's eigsh, as phi_2 runs it
        for trial in range(5):
            A = rng.standard_normal((n, n)) / np.sqrt(n)
            H = 0.5 * (A + A.T)
            if trial % 2 == 0:
                H -= 0.5 * np.eye(n)  # force indefiniteness
            g = rng.standard_normal(n) / np.sqrt(n)
            dense = _phi2_dense(g, H)
            iterative = _phi2_iterative(g, action_of(H), n)
            assert abs(dense.value - iterative.value) <= 2e-3

    def test_iterative_hard_case(self):
        n = DENSE_MAX_N + 10
        lam = np.linspace(1.0, 2.0, n)
        lam[0] = -1.5
        H = np.diag(lam)
        g = np.zeros(n)
        g[1:] = 0.01
        dense = _phi2_dense(g, H)
        iterative = _phi2_iterative(g, action_of(H), n)
        assert abs(dense.value - iterative.value) <= 2e-3

    def test_asymmetric_operator_rejected(self):
        n = DENSE_MAX_N + 1
        H = np.eye(n) + np.triu(np.ones((n, n)), 1)
        with pytest.raises(ValueError, match="not symmetric"):
            phi_2(np.ones(n), action_of(H), n)

    def test_dense_path_ends_at_the_constant(self):
        assert dense_path(DENSE_MAX_N)
        assert not dense_path(DENSE_MAX_N + 1)


class TestLeftmost:
    def test_dense_matches_numpy(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 6))
        H = 0.5 * (A + A.T)
        lam, vec = leftmost_eigenpair(action_of(H), 6)
        w, Q = np.linalg.eigh(H)
        assert lam == pytest.approx(w[0], rel=1e-12)
        assert abs(abs(vec @ Q[:, 0]) - 1.0) <= 1e-10

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(9)
        n = DENSE_MAX_N + 10
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        lam_i, vec = leftmost_eigenpair(action_of(H), n)
        w, Q = np.linalg.eigh(H)
        assert abs(w[0] - lam_i) <= 1e-6 * max(1.0, abs(w[0]))
        assert abs(abs(vec @ Q[:, 0]) - 1.0) <= 1e-6


class TestMaterialise:
    def test_reconstructs_matrix(self):
        H = np.array([[2.0, -1.0], [-1.0, 3.0]])
        np.testing.assert_allclose(materialise_operator(action_of(H), 2), H)

    def test_asymmetry_detected(self):
        H = np.array([[1.0, 5.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            materialise_operator(action_of(H), 2)

    def test_one_call_with_the_identity_block(self):
        H = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        calls = []

        def action(v):
            calls.append(np.array(v))
            return H @ v

        np.testing.assert_array_equal(materialise_operator(action, 3), H)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.eye(3))

    def test_vector_only_action_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            materialise_operator(lambda v: np.ones(2), 2)


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
