import numpy as np
import pytest

from subreg.finite_sum import (
    CustomProblem,
    SampleHessian,
    as_index_set,
    full_gradient,
    full_hvp,
    full_value,
)
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


class TestIndexSets:
    def sigmoid_problem(self):
        rng = np.random.default_rng(21)
        ds = Dataset(rng.standard_normal((6, 3)), (rng.random(6) > 0.5).astype(float))
        return SquaredLossProblem(ds, NetworkSpec(3)), rng.standard_normal(3)

    def test_float_indices_rejected(self):
        # Truncated to an integer, [1.9] would read component 1.
        prob, x = self.sigmoid_problem()
        with pytest.raises(TypeError, match="float64"):
            prob.value_mean([1.9], x)
        with pytest.raises(TypeError, match="float64"):
            prob.gradient_mean(np.array([0.0, 2.0]), x)
        with pytest.raises(TypeError, match="float32"):
            as_index_set(np.array([1, 2], dtype=np.float32), 6)

    def test_boolean_mask_rejected(self):
        # Read as indices, the mask would select components 0 and 1 with repeats.
        prob, x = self.sigmoid_problem()
        mask = np.array([True, False, True, False, False, False])
        with pytest.raises(TypeError, match="bool"):
            prob.value_mean(mask, x)
        with pytest.raises(TypeError, match="bool"):
            as_index_set(mask, 6)
        with pytest.raises(TypeError, match="bool"):
            quadratic_problem().gradient_mean([True, False], np.zeros(2))

    def test_empty_set_refused_before_dtype(self):
        for empty in ([], np.array([], dtype=bool), np.empty(0, dtype=np.intp)):
            with pytest.raises(ValueError, match="non-empty"):
                as_index_set(empty, 5)

    def test_integer_dtypes_accepted(self):
        want = np.array([0, 2, 2, 4], dtype=np.intp)
        for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
            got = as_index_set(np.array([4, 2, 0, 2], dtype=dtype), 5)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.intp
        np.testing.assert_array_equal(as_index_set([4, 2, 0, 2], 5), want)

    def test_range_checked(self):
        for bad in ([5], [-1, 0], np.array([2**63], dtype=np.uint64)):
            with pytest.raises(ValueError, match="out of range"):
                as_index_set(bad, 5)


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
    @pytest.mark.parametrize("kind", ["net", "custom"])
    def test_differenced_action_is_a_function_of_the_set_and_x(self, kind):
        # The differenced default computes its own base gradient: two builds
        # on one set give the same matrix, and a column is the forward
        # difference about the set's gradient mean at x.
        if kind == "net":
            ds = Dataset(np.random.default_rng(4).standard_normal((15, 3)),
                         (np.random.default_rng(5).random(15) > 0.5).astype(float))
            prob = SquaredLossProblem(ds, NetworkSpec(3, (2,)))
        else:
            prob = random_smooth_problem(seed=13, N=15)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(prob.n)
        idx = np.array([9, 1, 4, 12])  # unsorted on purpose
        first, second = prob.hessian_action(idx, x), prob.hessian_action(idx, x)
        assert first.dense().tobytes() == second.dense().tobytes()
        v = rng.standard_normal(prob.n)
        u = float(np.finfo(float).eps)
        scale = float(np.sqrt(u)) * (1.0 + float(np.linalg.norm(x)))
        h = scale / max(float(np.linalg.norm(v)), u)
        column = (prob.gradient_mean(idx, x + h * v) - prob.gradient_mean(idx, x)) / h
        np.testing.assert_array_equal(prob.hessian_action(idx, x)(v), column)

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


class TestSampleHessian:
    def test_counts_columns_and_caches_the_dense_matrix(self):
        H = np.array([[2.0, 1.0], [1.0, 3.0]])
        shapes = []

        def apply(v):
            shapes.append(v.shape)
            return H @ v

        hessian = SampleHessian(2, apply)
        hessian(np.ones(2))
        hessian(np.ones((2, 3)))
        assert hessian.columns == 4
        dense = hessian.dense()
        assert hessian.dense() is dense
        np.testing.assert_array_equal(dense, H)
        assert shapes == [(2,), (2, 3), (2, 2)]  # the build is one identity block
        np.testing.assert_array_equal(hessian(np.eye(2)), H)
        assert hessian.columns == 6  # requests count, the build does not
        assert len(shapes) == 3  # and the data is not read again

    def test_differenced_dense_is_the_symmetrised_identity_block(self):
        prob = random_smooth_problem()
        x = np.full(prob.n, 0.3)
        raw = prob.hessian_action([0, 2, 5], x)(np.eye(prob.n))
        np.testing.assert_array_equal(
            prob.hessian_action([0, 2, 5], x).dense(), 0.5 * (raw + raw.T)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_raises(self, bad):
        def apply(v):
            out = np.array(v, dtype=float)
            out[-1] = bad
            return out

        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            SampleHessian(2, apply)(np.ones(2))
        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            SampleHessian(2, apply)(np.ones((2, 3)))
        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            SampleHessian(2, apply).dense()
        H = np.eye(2)
        H[1, 1] = bad
        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            SampleHessian(2, lambda v: v, lambda: H).dense()

    def test_asymmetric_or_misshapen_build_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SampleHessian(2, lambda v: np.array([[0.0, 1.0], [0.0, 0.0]]) @ v).dense()
        with pytest.raises(ValueError):
            SampleHessian(2, lambda v: np.eye(2) @ v, lambda: np.eye(3)).dense()
