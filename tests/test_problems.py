import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subreg
from subreg.finite_sum import FiniteSumProblem, full_value
from subreg.problems import (
    Dataset,
    NetworkSpec,
    SquaredLossProblem,
    _forward,
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


class TestFullSetInPlace:
    """The full set 0..N-1 reads the dataset in place; other sets gather rows.

    A problem whose dataset has one extra trailing row sees 0..N-1 as a
    partial set, so comparing against it compares the two paths.
    """

    N = 40

    def pair(self, hidden, order="C"):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((self.N + 1, 20))
        labels = (rng.random(self.N + 1) > 0.5).astype(float)
        spec = NetworkSpec(20, hidden)
        head = np.asarray(features[: self.N], order=order)
        full = SquaredLossProblem(Dataset(head, labels[: self.N]), spec)
        padded = SquaredLossProblem(Dataset(features, labels), spec)
        x = initial_point(spec, rng) if hidden else 0.1 * rng.standard_normal(spec.parameter_count)
        x = x + 0.05 * rng.standard_normal(spec.parameter_count)
        v = rng.standard_normal(spec.parameter_count)
        return full, padded, x, v

    @pytest.mark.parametrize("hidden", [(), (6,)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_matches_gathered_rows(self, hidden, order):
        # Column-major features are stored row-major, as gathered rows are.
        full, padded, x, v = self.pair(hidden, order)
        idx = np.arange(self.N)
        assert full.value_mean(idx, x) == padded.value_mean(idx, x)
        np.testing.assert_array_equal(full.gradient_mean(idx, x), padded.gradient_mean(idx, x))
        np.testing.assert_array_equal(
            full.hessian_action(idx, x)(v), padded.hessian_action(idx, x)(v)
        )

    @pytest.mark.parametrize("hidden", [(), (6,)])
    def test_shuffled_full_set_is_bit_identical(self, hidden):
        full, _, x, v = self.pair(hidden)
        idx = np.arange(self.N)
        shuffled = np.random.default_rng(3).permutation(self.N)
        assert full.value_mean(shuffled, x) == full.value_mean(idx, x)
        np.testing.assert_array_equal(full.gradient_mean(shuffled, x), full.gradient_mean(idx, x))
        np.testing.assert_array_equal(
            full.hessian_action(shuffled, x)(v), full.hessian_action(idx, x)(v)
        )

    @pytest.mark.parametrize("hidden", [(), (6,)])
    def test_size_n_set_with_duplicates_is_not_full(self, hidden):
        rng = np.random.default_rng(12)
        spec = NetworkSpec(20, hidden)
        prob = SquaredLossProblem(
            Dataset(rng.standard_normal((3, 20)), np.array([1.0, 0.0, 1.0])), spec
        )
        x = initial_point(spec, rng) if hidden else 0.1 * rng.standard_normal(prob.n)
        f = [prob.component_value(i, x) for i in range(3)]
        g = [prob.component_gradient(i, x) for i in range(3)]
        assert prob.value_mean([0, 0, 2], x) == pytest.approx((2 * f[0] + f[2]) / 3, rel=1e-14)
        assert prob.value_mean([0, 0, 2], x) != pytest.approx(sum(f) / 3, rel=1e-6)
        np.testing.assert_allclose(
            prob.gradient_mean([0, 0, 2], x), (2 * g[0] + g[2]) / 3, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("hidden", [(), (6,)])
    @pytest.mark.parametrize("partial", [False, True])
    def test_action_does_not_alias_caller_indices(self, hidden, partial):
        full, _, x, v = self.pair(hidden)
        idx = np.arange(0, self.N, 2 if partial else 1)
        action = full.hessian_action(idx, x)
        before = action(v)
        idx[:] = 0
        np.testing.assert_array_equal(action(v), before)


class TestExactSigmoidAction:
    """The sigmoid's closed-form action over full, partial and repeated sets.

    At d = 2000 a row block holds 64 rows, so the 150-row problem spans
    three blocks.
    """

    @pytest.fixture(params=[(12, 4), (150, 2000)], ids=["one-block", "three-blocks"])
    def case(self, request):
        N, d = request.param
        rng = np.random.default_rng(N + d)
        features = rng.standard_normal((N, d)) / np.sqrt(d)
        prob = SquaredLossProblem(
            Dataset(features, (rng.random(N) > 0.5).astype(float)), NetworkSpec(d)
        )
        sets = {
            "full": np.arange(N),
            "partial": rng.choice(N, 2 * N // 3, replace=False),
            "repeated": rng.integers(0, N, N),
        }
        return prob, rng.standard_normal(d), sets, rng

    def unit(self, rng, n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    def test_against_second_differences(self, case):
        prob, x, sets, rng = case
        for idx in sets.values():
            action = prob.hessian_action(idx, x)
            for _ in range(2):
                u, v = self.unit(rng, prob.n), self.unit(rng, prob.n)
                ref = second_diff_quadform(lambda z: prob.value_mean(idx, z), x, u, v)
                assert abs(u @ action(v) - ref) <= 1e-6 * (1.0 + abs(ref))

    def test_matches_differenced_default(self, case):
        prob, x, sets, rng = case
        for idx in sets.values():
            exact = prob.hessian_action(idx, x)
            differenced = FiniteSumProblem.hessian_action(prob, idx, x)
            for _ in range(2):
                v = rng.standard_normal(prob.n)
                np.testing.assert_allclose(exact(v), differenced(v), rtol=1e-6, atol=1e-9)

    def test_block_equals_stacked_vectors(self, case):
        prob, x, sets, rng = case
        for idx in sets.values():
            action = prob.hessian_action(idx, x)
            for V in (np.eye(prob.n), rng.standard_normal((prob.n, 3))):
                stacked = np.column_stack([action(column) for column in V.T])
                np.testing.assert_allclose(action(V), stacked, rtol=1e-12, atol=1e-15)

    def test_base_is_ignored(self, case):
        prob, x, sets, rng = case
        v = rng.standard_normal(prob.n)
        idx = sets["partial"]
        np.testing.assert_array_equal(
            prob.hessian_action(idx, x, base=np.zeros(prob.n))(v), prob.hessian_action(idx, x)(v)
        )

    def test_operand_shape_checked(self, case):
        prob, x, sets, _ = case
        action = prob.hessian_action(sets["full"], x)
        for bad in (np.zeros(prob.n + 1), np.zeros((prob.n + 1, 2)), np.zeros((prob.n, 2, 2))):
            with pytest.raises(ValueError):
                action(bad)


def one_shot_mismatches():
    """Cases where a partial-set ``value_mean`` differs from the parent's
    formula, one forward pass over all gathered rows.

    Sizes sit around the row-block boundaries; each set is drawn with
    repeats, so even a size-N set is partial.
    """
    cases = [
        (20, (), 14000), (50, (), 8000), (5000, (), 600), (20, (6,), 14000), (20, (15,), 14000),
    ]
    mismatches = []
    for d, hidden, N in cases:
        rng = np.random.default_rng(d + len(hidden))
        features = rng.standard_normal((N, d))
        labels = (rng.random(N) > 0.5).astype(float)
        spec = NetworkSpec(d, hidden)
        prob = SquaredLossProblem(Dataset(features, labels), spec)
        x = initial_point(spec, rng) if hidden else rng.standard_normal(d) / np.sqrt(d)
        B = prob._block
        sizes = {1, 2, 63, 64, 65, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1, 3 * B - 1, N}
        for m in sorted(size for size in sizes if size <= N):
            idx = np.sort(rng.integers(0, N, m))
            p, _ = _forward(spec, x, features[idx])
            r = labels[idx] - p
            if prob.value_mean(idx, x) != float(np.sum(r * r) / m):
                mismatches.append((d, hidden, m))
    return mismatches


class TestPartialValueMean:
    def test_bit_identical_to_one_shot_gather(self):
        # Bit for bit only with one BLAS thread: a threaded product splits
        # its rows among the threads by the product's own row count.  The
        # child process fixes the thread count before numpy loads.
        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(subreg.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_problems as t; print(t.one_shot_mismatches())"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_row_blocks(self):
        # d = 2000 gives 64-row blocks.  A lone trailing row would be
        # evaluated as a vector product, so it joins the block before it.
        rng = np.random.default_rng(22)
        prob = SquaredLossProblem(
            Dataset(rng.standard_normal((200, 2000)), np.zeros(200)), NetworkSpec(2000)
        )
        for m, sizes in [(1, [1]), (64, [64]), (65, [65]), (66, [64, 2]), (129, [64, 65]),
                         (130, [64, 64, 2])]:
            idx = np.arange(m)
            blocks = list(prob._row_blocks(idx))
            assert [rows.stop - rows.start for rows, _ in blocks] == sizes
            for rows, take in blocks:
                np.testing.assert_array_equal(idx[rows], np.arange(200)[take])

    def test_peak_memory_stays_below_a_gather(self):
        # Gathering 18000 of 20000 rows at d = 50 would take about 7 MB.
        rng = np.random.default_rng(21)
        prob = SquaredLossProblem(
            Dataset(rng.standard_normal((20000, 50)), (rng.random(20000) > 0.5).astype(float)),
            NetworkSpec(50),
        )
        idx = np.sort(rng.choice(20000, 18000, replace=False))
        x = rng.standard_normal(50) / np.sqrt(50)
        tracemalloc.start()
        try:
            prob.value_mean(idx, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
