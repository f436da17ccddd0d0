import numpy as np
import pytest

from subreg.finite_sum import full_value
from subreg.problems import (
    Dataset,
    NetworkSpec,
    SquaredLossProblem,
    classification_rate,
    initial_point,
    predict,
    sigmoid,
    testing_loss,
)

from oracles import central_diff_gradient, second_diff_quadform


def make_problem(seed=0, N=12, d=4, hidden=()):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.standard_normal((N, d)), (rng.random(N) > 0.5).astype(float))
    spec = NetworkSpec(d, hidden)
    return SquaredLossProblem(ds, spec), ds, spec


class TestPredict:
    def test_zero_parameters_give_half(self):
        spec = NetworkSpec(3)
        assert predict(spec, np.zeros(3), np.array([0.4, -2.0, 7.0])) == 0.5

    def test_log3_closed_form(self):
        spec = NetworkSpec(2)
        x = np.array([np.log(3.0), 0.0])
        assert predict(spec, x, np.array([1.0, 0.0])) == pytest.approx(0.75, abs=1e-15)

    def test_layered_zero_weights_give_half(self):
        spec = NetworkSpec(3, (2,))
        assert predict(spec, np.zeros(spec.parameter_count), np.ones(3)) == 0.5

    def test_strictly_inside_unit_interval(self):
        spec = NetworkSpec(1)
        for z in (-1e9, -50.0, 0.0, 50.0, 1e9):
            p = predict(spec, np.array([z]), np.array([1.0]))
            assert 0.0 < p < 1.0

    def test_non_finite_input_rejected(self):
        spec = NetworkSpec(2)
        with pytest.raises(FloatingPointError):
            predict(spec, np.zeros(2), np.array([np.inf, 0.0]))

    def test_sigmoid_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)


class TestNetworkSpec:
    def test_no_net_parameter_count(self):
        assert NetworkSpec(7).parameter_count == 7

    def test_layered_parameter_count(self):
        # (d+1)*15 + 16*2 + 3*1 for a (15, 2) net on d inputs
        spec = NetworkSpec(10, (15, 2))
        assert spec.parameter_count == 11 * 15 + 16 * 2 + 3

    def test_initial_point_no_net_is_zero(self):
        np.testing.assert_array_equal(initial_point(NetworkSpec(4)), np.zeros(4))

    def test_initial_point_layered_needs_rng(self):
        spec = NetworkSpec(4, (3,))
        with pytest.raises(ValueError):
            initial_point(spec)
        x = initial_point(spec, np.random.default_rng(0))
        assert x.shape == (spec.parameter_count,)
        assert np.any(x != 0.0)

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            NetworkSpec(3, (0,))


class TestComponents:
    def test_value_residual_half(self):
        prob, ds, spec = make_problem()
        # every prediction is 0.5 at x = 0
        for i in range(3):
            assert prob.component_value(i, np.zeros(prob.n)) == pytest.approx(0.25, abs=1e-15)

    def test_value_closed_form(self):
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        prob = SquaredLossProblem(ds, NetworkSpec(2))
        x = np.array([np.log(3.0), 0.0])
        assert prob.component_value(0, x) == pytest.approx(0.0625, abs=1e-15)

    def test_value_bounded(self):
        prob, _, _ = make_problem(seed=5, hidden=(3,))
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = prob.component_value(int(rng.integers(prob.N)), rng.standard_normal(prob.n))
            assert 0.0 <= v <= 1.0

    def test_gradient_no_net_at_zero(self):
        ds = Dataset(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
        prob = SquaredLossProblem(ds, NetworkSpec(3))
        np.testing.assert_allclose(
            prob.component_gradient(0, np.zeros(3)), [-0.25, 0.0, 0.0], atol=1e-15
        )

    def test_gradient_saturated_residual_vanishes(self):
        ds = Dataset(np.array([[1.0]]), np.array([1.0]))
        prob = SquaredLossProblem(ds, NetworkSpec(1))
        g = prob.component_gradient(0, np.array([60.0]))
        assert np.linalg.norm(g) <= 1e-10

    @pytest.mark.parametrize("hidden", [(), (5,), (15, 2)])
    def test_gradient_matches_finite_differences(self, hidden):
        prob, _, spec = make_problem(seed=7, N=6, d=4, hidden=hidden)
        rng = np.random.default_rng(17)
        x = initial_point(spec, rng) if hidden else rng.standard_normal(prob.n)
        x = x + 0.1 * rng.standard_normal(prob.n)
        for i in range(prob.N):
            fd = central_diff_gradient(lambda z: prob.component_value(i, z), x)
            g = prob.component_gradient(i, x)
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) <= 1e-5

    def test_label_symmetry(self):
        rng = np.random.default_rng(9)
        features = rng.standard_normal((10, 3))
        labels = (rng.random(10) > 0.5).astype(float)
        p1 = SquaredLossProblem(Dataset(features, labels), NetworkSpec(3))
        p2 = SquaredLossProblem(Dataset(features, 1.0 - labels), NetworkSpec(3))
        x = rng.standard_normal(3)
        for i in range(10):
            assert p1.component_value(i, x) == pytest.approx(
                p2.component_value(i, -x), rel=1e-12
            )


class TestHessianAction:
    def test_zero_direction(self):
        prob, _, _ = make_problem()
        np.testing.assert_array_equal(
            prob.component_hvp(0, np.ones(prob.n), np.zeros(prob.n)), np.zeros(prob.n)
        )

    def test_against_second_differences(self):
        prob, _, _ = make_problem(seed=3, N=5, d=3)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(prob.n) * 0.5
        for i in range(prob.N):
            v = rng.standard_normal(prob.n)
            hv = prob.component_hvp(i, x, v)
            for _ in range(2):
                u = rng.standard_normal(prob.n)
                ref = second_diff_quadform(lambda z: prob.component_value(i, z), x, u, v)
                assert abs(u @ hv - ref) <= 1e-3 * (1.0 + abs(ref))

    def test_linearity_within_fd_error(self):
        prob, _, _ = make_problem(seed=4)
        rng = np.random.default_rng(31)
        x, v = rng.standard_normal((2, prob.n))
        h2 = prob.component_hvp(1, x, 2.0 * v)
        h1 = prob.component_hvp(1, x, v)
        assert np.linalg.norm(h2 - 2.0 * h1) <= 1e-3 * (1.0 + np.linalg.norm(h2))


class TestMetrics:
    def test_testing_loss_at_zero(self):
        rng = np.random.default_rng(0)
        test = Dataset(rng.standard_normal((9, 4)), (rng.random(9) > 0.3).astype(float))
        assert testing_loss(NetworkSpec(4), np.zeros(4), test) == pytest.approx(0.25, abs=1e-15)

    def test_testing_loss_equals_training_loss_on_same_set(self):
        prob, ds, spec = make_problem(seed=2)
        x = np.random.default_rng(1).standard_normal(prob.n)
        assert testing_loss(spec, x, ds) == pytest.approx(full_value(prob, x), rel=1e-15)

    def test_rate_at_zero_counts_ones(self):
        ds = Dataset(np.ones((4, 2)), np.array([1.0, 0.0, 1.0, 1.0]))
        # ties at 0.5 classify as 1
        assert classification_rate(NetworkSpec(2), np.zeros(2), ds) == 0.75

    def test_perfect_separator(self):
        features = np.array([[1.0], [2.0], [-1.0], [-3.0]])
        ds = Dataset(features, np.array([1.0, 1.0, 0.0, 0.0]))
        assert classification_rate(NetworkSpec(1), np.array([4.0]), ds) == 1.0

    def test_empty_test_set_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            classification_rate(NetworkSpec(2), np.zeros(2), empty)

    def test_dimension_mismatch(self):
        ds = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError):
            testing_loss(NetworkSpec(3), np.zeros(3), ds)


class TestDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.ones((3, 2))
        features[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(features, np.ones(3))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0.0, 2.0]))

    def test_label_shape_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.ones(3))
