import numpy as np
import pytest

from subreg.finite_sum import CustomProblem, full_gradient, full_hvp, full_value
from subreg.problems import Dataset, NetworkSpec, SquaredLossProblem

from oracles import central_diff_gradient


def quadratic_problem(n=2, N=5):
    """Identical components f_i(x) = ||x||^2 with exact derivatives."""
    return CustomProblem(
        n,
        N,
        value=lambda i, x: float(x @ x),
        gradient=lambda i, x: 2.0 * x,
        hvp=lambda i, x, v: 2.0 * v,
    )


def random_smooth_problem(seed=0, n=4, N=7):
    """Per-component quartics with distinct coefficient matrices."""
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) * 0.3 for _ in range(N)]
    shifts = [rng.standard_normal(n) for _ in range(N)]

    def value(i, x):
        z = mats[i] @ x - shifts[i]
        return float(z @ z + 0.1 * (x @ x) ** 2)

    def gradient(i, x):
        z = mats[i] @ x - shifts[i]
        return 2.0 * mats[i].T @ z + 0.4 * (x @ x) * x

    return CustomProblem(n, N, value, gradient)


class TestFullReductions:
    def test_value_single_quadratic(self):
        prob = CustomProblem(2, 1, lambda i, x: float(x @ x), lambda i, x: 2 * x)
        assert full_value(prob, np.array([1.0, 2.0])) == 5.0

    def test_value_no_net_all_labels_one(self):
        # sigmoid(0) = 0.5 forces every residual to 0.5
        ds = Dataset(np.random.default_rng(0).standard_normal((6, 3)), np.ones(6))
        prob = SquaredLossProblem(ds, NetworkSpec(3))
        assert full_value(prob, np.zeros(3)) == pytest.approx(0.25, abs=1e-15)

    def test_gradient_identical_components(self):
        prob = quadratic_problem()
        np.testing.assert_allclose(full_gradient(prob, np.array([1.0, 0.0])), [2.0, 0.0])

    def test_hvp_identical_components(self):
        prob = quadratic_problem()
        np.testing.assert_allclose(full_hvp(prob, np.zeros(2), np.array([1.0, 1.0])), [2.0, 2.0])

    def test_hvp_zero_direction(self):
        prob = random_smooth_problem()
        np.testing.assert_array_equal(full_hvp(prob, np.ones(4), np.zeros(4)), np.zeros(4))

    def test_dimension_mismatch(self):
        prob = quadratic_problem()
        with pytest.raises(ValueError):
            full_value(prob, np.zeros(3))
        with pytest.raises(ValueError):
            full_hvp(prob, np.zeros(2), np.zeros(3))

    def test_full_index_set_bundle(self):
        prob = quadratic_problem()
        x = np.array([0.5, -1.0])
        idx = np.arange(prob.N)
        assert prob.value_mean(idx, x) == full_value(prob, x)
        np.testing.assert_array_equal(prob.gradient_mean(idx, x), full_gradient(prob, x))
        np.testing.assert_allclose(prob.hessian_action(idx, x)(np.array([1.0, 0.0])), [2.0, 0.0])


class TestContractInvariants:
    def test_mean_convention_duplication_invariant(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((8, 4))
        labels = (rng.random(8) > 0.5).astype(float)
        base = SquaredLossProblem(Dataset(features, labels), NetworkSpec(4))
        doubled = SquaredLossProblem(
            Dataset(np.repeat(features, 2, axis=0), np.repeat(labels, 2)), NetworkSpec(4)
        )
        x = rng.standard_normal(4)
        assert full_value(doubled, x) == pytest.approx(full_value(base, x), rel=1e-12)
        np.testing.assert_allclose(
            full_gradient(doubled, x), full_gradient(base, x), rtol=1e-12
        )

    def test_gradient_matches_central_differences(self):
        prob = random_smooth_problem()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(prob.n)
            fd = central_diff_gradient(lambda z: full_value(prob, z), x)
            g = full_gradient(prob, x)
            denom = 1.0 + np.abs(fd)
            assert np.max(np.abs(g - fd) / denom) <= 1e-5

    def test_component_gradient_matches_central_differences(self):
        prob = random_smooth_problem(seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(prob.n)
        for i in range(prob.N):
            fd = central_diff_gradient(lambda z: prob.component_value(i, z), x)
            g = prob.component_gradient(i, x)
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) <= 1e-5

    def test_exact_hvp_linearity(self):
        prob = quadratic_problem(n=3)
        rng = np.random.default_rng(2)
        x, u, w = rng.standard_normal((3, 3))
        lhs = full_hvp(prob, x, 2.0 * u + 0.5 * w)
        rhs = 2.0 * full_hvp(prob, x, u) + 0.5 * full_hvp(prob, x, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_fd_hvp_linearity(self):
        prob = random_smooth_problem(seed=9)
        rng = np.random.default_rng(4)
        x, v = rng.standard_normal((2, prob.n))
        lhs = full_hvp(prob, x, 2.0 * v)
        rhs = 2.0 * full_hvp(prob, x, v)
        assert np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)) <= 1e-5

    def test_exact_hvp_symmetry(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        sym = [0.5 * (m + m.T) for m in mats]
        prob = CustomProblem(
            3,
            4,
            value=lambda i, x: 0.5 * float(x @ sym[i] @ x),
            gradient=lambda i, x: sym[i] @ x,
            hvp=lambda i, x, v: sym[i] @ v,
        )
        x, u, v = rng.standard_normal((3, 3))
        left = float(u @ full_hvp(prob, x, v))
        right = float(v @ full_hvp(prob, x, u))
        assert abs(left - right) <= 1e-8 * (1.0 + abs(left))

    def test_hessian_action_closure_matches_fresh_action(self):
        prob = random_smooth_problem(seed=13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(prob.n)
        idx = np.array([0, 2, 5])
        action = prob.hessian_action(idx, x)
        for _ in range(3):
            v = rng.standard_normal(prob.n)
            np.testing.assert_array_equal(action(v), prob.hessian_action(idx, x)(v))


class TestHessianAction:
    def test_supplied_base_is_bit_identical(self):
        ds = Dataset(np.random.default_rng(4).standard_normal((15, 3)),
                     (np.random.default_rng(5).random(15) > 0.5).astype(float))
        prob = SquaredLossProblem(ds, NetworkSpec(3, (2,)))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(prob.n)
        idx = np.array([9, 1, 4, 12])  # unsorted on purpose
        with_base = prob.hessian_action(idx, x, base=prob.gradient_mean(idx, x))
        without = prob.hessian_action(idx, x)
        for _ in range(3):
            v = rng.standard_normal(prob.n)
            np.testing.assert_array_equal(with_base(v), without(v))

    def test_exact_path_is_mean_of_callable(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((3, 3)) for _ in range(6)]
        prob = CustomProblem(
            3, 6,
            value=lambda i, x: 0.5 * float(x @ mats[i] @ x),
            gradient=lambda i, x: 0.5 * (mats[i] + mats[i].T) @ x,
            hvp=lambda i, x, v: mats[i] @ v + float(x @ x) * v,
        )
        x, v = rng.standard_normal((2, 3))
        idx = [5, 0, 2]
        expected = np.mean([mats[i] @ v + float(x @ x) * v for i in idx], axis=0)
        np.testing.assert_allclose(prob.hessian_action(idx, x)(v), expected, rtol=1e-14)
        np.testing.assert_allclose(prob.component_hvp(2, x, v), mats[2] @ v + float(x @ x) * v,
                                   rtol=1e-14)

    def test_exact_path_does_not_alias_caller_indices(self):
        prob = CustomProblem(
            2, 4,
            value=lambda i, x: float(x @ x),
            gradient=lambda i, x: 2.0 * x,
            hvp=lambda i, x, v: (i + 1.0) * v,
        )
        idx = np.arange(4)
        action = prob.hessian_action(idx, np.zeros(2))
        idx[:] = 0
        np.testing.assert_array_equal(action(np.ones(2)), np.full(2, 2.5))

    def test_exact_path_rejects_wrong_shape(self):
        prob = CustomProblem(
            3, 4,
            value=lambda i, x: float(x @ x),
            gradient=lambda i, x: 2.0 * x,
            hvp=lambda i, x, v: np.append(2.0 * v, 0.0),
        )
        action = prob.hessian_action([0, 1], np.zeros(3))
        with pytest.raises(ValueError, match="hvp"):
            action(np.ones(3))

    @pytest.mark.parametrize("kind", ["differenced", "custom-hvp", "net"])
    def test_block_equals_stacked_vectors(self, kind):
        rng = np.random.default_rng(17)
        if kind == "differenced":
            prob = random_smooth_problem(seed=3)
        elif kind == "custom-hvp":
            mats = [rng.standard_normal((4, 4)) for _ in range(5)]
            prob = CustomProblem(
                4, 5,
                value=lambda i, x: 0.5 * float(x @ mats[i] @ x),
                gradient=lambda i, x: 0.5 * (mats[i] + mats[i].T) @ x,
                hvp=lambda i, x, v: 0.5 * (mats[i] + mats[i].T) @ v + float(x @ v) * x,
            )
        else:
            ds = Dataset(rng.standard_normal((30, 3)), (rng.random(30) > 0.5).astype(float))
            prob = SquaredLossProblem(ds, NetworkSpec(3, (2,)))
        x = rng.standard_normal(prob.n)
        action = prob.hessian_action([4, 0, 2], x)
        for V in (np.eye(prob.n), rng.standard_normal((prob.n, 3))):
            stacked = np.column_stack([action(column) for column in V.T])
            np.testing.assert_array_equal(action(V), stacked)

    def test_invalid_sample_rejected(self):
        prob = random_smooth_problem()
        with pytest.raises(ValueError):
            prob.hessian_action([], np.zeros(prob.n))
        with pytest.raises(ValueError):
            prob.hessian_action([prob.N], np.zeros(prob.n))
        with pytest.raises(ValueError):
            prob.hessian_action([0], np.zeros(prob.n))(np.zeros(prob.n + 1))
        with pytest.raises(ValueError):
            prob.hessian_action([0], np.zeros(prob.n))(np.zeros((prob.n + 1, 2)))
