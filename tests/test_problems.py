import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import subreg
from subreg import problems
from subreg.finite_sum import FiniteSumProblem, SampleHessian, full_value
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

from oracles import central_diff_gradient, gathered_sigmoid, masked_sigmoid, second_diff_quadform


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

    def test_sigmoid_equals_masked_branches_bit_for_bit(self):
        rng = np.random.default_rng(3)
        special = [0.0, -0.0, 500.0, -500.0, 500.5, -500.5, 37.0, -37.0, 745.2, -745.2,
                   np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-17, -1e-17]
        z = np.concatenate([
            special,
            np.linspace(-40.0, 40.0, 8001),
            rng.standard_normal(20000) * 10.0,
            rng.standard_normal(2000) * 400.0,
        ])
        got = sigmoid(z)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, masked_sigmoid(z))
        block = z[:700].reshape(100, 7)
        np.testing.assert_array_equal(sigmoid(block), masked_sigmoid(block))
        strided = z[::3]
        np.testing.assert_array_equal(sigmoid(strided), masked_sigmoid(strided))
        np.testing.assert_array_equal(sigmoid(block[:, 1::2]), masked_sigmoid(block[:, 1::2]))
        # As many mixed-sign entries as a tall problem's full set.
        tall = rng.standard_normal(200_000) * rng.choice([0.5, 5.0, 50.0], 200_000)
        np.testing.assert_array_equal(sigmoid(tall), masked_sigmoid(tall))
        for value in special:
            np.testing.assert_array_equal(sigmoid(np.float64(value)), masked_sigmoid(np.array(value)))
            assert np.ndim(sigmoid(value)) == 0
            frozen = np.array(value)  # 0-d and read-only
            frozen.flags.writeable = False
            np.testing.assert_array_equal(sigmoid(frozen), masked_sigmoid(np.array(value)))
            assert np.ndim(sigmoid(frozen)) == 0

    @pytest.mark.parametrize("make", [
        lambda z: z,
        lambda z: z[::3],
        lambda z: z[:700].reshape(100, 7)[:, 1::2],
        lambda z: z.reshape(-1, 1)[:, 0],
    ], ids=["array", "strided", "2-d strided", "column"])
    def test_sigmoid_leaves_its_argument_unchanged(self, make):
        z = np.random.default_rng(8).standard_normal(3000) * 30.0
        view = make(z)
        before = view.copy()
        p = sigmoid(view)
        np.testing.assert_array_equal(view, before)
        assert not np.shares_memory(p, z)
        np.testing.assert_array_equal(p, masked_sigmoid(before))
        view.flags.writeable = False
        np.testing.assert_array_equal(sigmoid(view), p)


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

    def test_dense_is_the_identity_block_action_bit_for_bit(self, case):
        # The Gram build equals the materialisation through the row passes
        # (the action on the identity block, symmetrised), bit for bit.
        prob, x, sets, _ = case
        for idx in sets.values():
            row_passes = SampleHessian(prob.n, prob.hessian_action(idx, x)).dense()
            np.testing.assert_array_equal(prob.hessian_action(idx, x).dense(), row_passes)

    def test_actions_after_dense_are_products_with_it(self, case):
        prob, x, sets, rng = case
        for idx in sets.values():
            action = prob.hessian_action(idx, x)
            H = action.dense()
            assert action.dense() is H  # built once
            for V in (rng.standard_normal(prob.n), rng.standard_normal((prob.n, 3))):
                np.testing.assert_array_equal(action(V), H @ V)
            assert action.columns == 4

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


def product_sets(prob, rng):
    """Partial sets around the in-place product's size threshold, sets that
    hold the dataset's last rows, and sets with repeats."""
    N, B = prob.N, prob._block
    t = next(m for m in range(1, N + 1) if prob._streams(m))
    sets = [np.sort(rng.choice(N, m, replace=False)) for m in (t - 1, t, t + 1)]
    # Sets ending in the dataset's last j rows; j = 63 is every row past
    # N - N % 64 when N % 64 = 63.  At m = kB + 2 the last block holds two
    # rows and the block before it the other 38 of the last 40.
    edge = -(-(t - 2) // B) * B + 2
    for j, m in [(1, t + 5), (3, t + 5), (63, t + 5), (64, t + 5), (40, edge)]:
        head = rng.choice(N - j, m - j, replace=False)
        sets.append(np.sort(np.concatenate([head, np.arange(N - j, N)])))
    sets.append(np.sort(rng.integers(0, N, t + 2)))
    sets.append(np.sort(rng.integers(0, N, N)))
    return t, sets


def sigmoid_cases():
    """``(problem, x, rng)`` for the bias-free sigmoid at d = 20, 50 and
    2000 with N mod 64 in {0, 1, 3, 63}; ``rng`` goes on with the case's
    stream."""
    for d, N0 in [(20, 14080), (50, 5120), (2000, 640)]:
        for extra in (0, 1, 3, 63):
            N = N0 + extra
            rng = np.random.default_rng(d * 100 + extra)
            features = rng.standard_normal((N, d))
            labels = (rng.random(N) > 0.5).astype(float)
            prob = SquaredLossProblem(Dataset(features, labels), NetworkSpec(d))
            yield prob, rng.standard_normal(d) / np.sqrt(d), rng


def product_mismatches():
    """Cases where the sigmoid's value, Hessian action or dense Hessian
    over a partial set differs from the products of gathered row blocks,
    or a network's value from one forward pass over gathered rows.

    N mod 64 takes 0, 1, 3 and 63; d = 20 and 50 give blocks of 6528 and
    2560 rows, d = 2000 blocks of 64.  Each returned entry names the case.
    """
    mismatches = []
    for prob, x, rng in sigmoid_cases():
        ds = prob.dataset
        N, d = ds.features.shape
        V = rng.standard_normal((d, 3))
        t, sets = product_sets(prob, rng)
        for k, idx in enumerate(sets):
            value, action, dense = gathered_sigmoid(prob, idx, x)
            H = prob.hessian_action(idx, x)
            case = (d, N, idx.size, k)
            if prob.value_mean(idx, x) != value:
                mismatches.append(("value",) + case)
            if not np.array_equal(H(V), action(V)):
                mismatches.append(("action",) + case)
            # A dense build at d = 2000 costs m d^2: two sets suffice.
            if (d < 2000 or k in (2, 7)) and not np.array_equal(H.dense(), dense()):
                mismatches.append(("dense",) + case)
        if d == 20:
            spec = NetworkSpec(d, (6,))
            net = SquaredLossProblem(ds, spec)
            w = initial_point(spec, rng)
            for k, idx in enumerate(sets):
                r = ds.labels[idx] - _forward(spec, w, ds.features[idx])[0]
                if net.value_mean(idx, w) != float(np.sum(r * r) / idx.size):
                    mismatches.append(("net", d, N, idx.size, k))
    return mismatches


def in_child(call):
    """Run ``call`` (an expression over this module as ``t``) in a child
    process with one BLAS thread and return what it prints.

    Products are bit for bit only with one BLAS thread: a threaded product
    splits its rows among the threads by the product's own row count.  The
    child fixes the thread count before numpy loads.
    """
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(subreg.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_problems as t; print({call})"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def gradient_mismatches():
    """Cases where a gradient over a partial or full set differs from its
    reference: for the sigmoid, one gather of all the set's rows (the full
    set and sets of at most N/8 rows) or the sum over the gathered row
    blocks of ``_row_blocks`` (larger partial sets); for a network, one
    gather at every size.

    Partial sets are drawn with repeats, so even a size-N set is partial.
    Each returned entry names the case.
    """

    def row_sum(prob, idx, x):
        a, y = prob.dataset.features[idx], prob.dataset.labels[idx]
        p, _ = _forward(prob.spec, x, a)
        return a.T @ (-2.0 * (y - p) * p * (1.0 - p))

    def one_gather(prob, idx, x):
        return row_sum(prob, idx, x) / idx.size

    def gathered_blocks(prob, idx, x):
        total = None
        for _, take in prob._row_blocks(idx):
            part = row_sum(prob, take, x)
            total = part if total is None else total + part
        return total / idx.size

    mismatches = []
    for prob, x, rng in sigmoid_cases():
        N, B = prob.N, prob._block
        sizes = {1, 2, 63, 64, 65, N // 8, N // 8 + 1, B + 1, 2 * B + 1, N}
        sets = [np.sort(rng.integers(0, N, m)) for m in sorted(sizes) if m <= N]
        for idx in sets + [np.arange(N)]:
            partial = not np.array_equal(idx, np.arange(N))
            ref = gathered_blocks if partial and 8 * idx.size > N else one_gather
            if prob.gradient_mean(idx, x).tobytes() != ref(prob, idx, x).tobytes():
                mismatches.append((ref.__name__, prob.dataset.d, N, idx.size))
        if prob.dataset.d == 20:
            spec = NetworkSpec(20, (6,))
            net = SquaredLossProblem(prob.dataset, spec)
            w = initial_point(spec, rng)
            for idx in sets:
                got = net.gradient_mean(idx, w)
                a, y = prob.dataset.features[idx], prob.dataset.labels[idx]
                p, acts = _forward(spec, w, a)
                layers = problems._unpack(spec, w)
                delta = (-2.0 * (y - p) * p * (1.0 - p))[:, None]
                grads = []
                for ell in range(len(layers) - 1, -1, -1):
                    grads.insert(0, np.concatenate([(delta.T @ acts[ell]).ravel(), delta.sum(axis=0)]))
                    if ell > 0:
                        delta = (delta @ layers[ell][0]) * (1.0 - acts[ell] ** 2)
                if got.tobytes() != (np.concatenate(grads) / idx.size).tobytes():
                    mismatches.append(("net", 20, N, idx.size))
    return mismatches


def peak_bytes(m, evaluate):
    """Peak traced allocation of ``evaluate`` ("value_mean" or
    "gradient_mean") over m of 20000 rows at d = 50, and whether the set
    reads the dataset in place."""
    rng = np.random.default_rng(21)
    prob = SquaredLossProblem(
        Dataset(rng.standard_normal((20000, 50)), (rng.random(20000) > 0.5).astype(float)),
        NetworkSpec(50),
    )
    idx = np.sort(rng.choice(20000, m, replace=False))
    x = rng.standard_normal(50) / np.sqrt(50)
    tracemalloc.start()
    try:
        getattr(prob, evaluate)(idx, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, prob._streams(m)


class TestPartialValueMean:
    def test_bit_identical_to_one_shot_gather(self):
        assert in_child("t.one_shot_mismatches()") == "[]"

    def test_in_place_products_bit_identical_to_gathered_blocks(self):
        assert in_child("t.product_mismatches()") == "[]"

    def test_product_sets_cover_both_paths(self):
        # The sets straddle the threshold and end in the dataset's last rows.
        for d, N in [(20, 14080 + 63), (2000, 640 + 3)]:
            rng = np.random.default_rng(d)
            prob = SquaredLossProblem(
                Dataset(rng.standard_normal((N, d)), np.zeros(N)), NetworkSpec(d)
            )
            t, sets = product_sets(prob, rng)
            assert not prob._streams(t - 1) and prob._streams(t)
            assert [idx.size >= t for idx in sets[:3]] == [False, True, True]
            assert all(idx[-1] == N - 1 for idx in sets[3:8])
            assert sets[7][-40 - 1] < N - 40 <= sets[7][-40]
            assert all((np.diff(idx) == 0).any() for idx in sets[8:])

    def test_size_rule(self):
        # Rows of at most 1 KB read the dataset in place from m = N / 2 on,
        # longer ones from m = 0.75 N.
        rng = np.random.default_rng(4)
        for d, first in [(20, 500), (128, 500), (129, 750), (5000, 750)]:
            prob = SquaredLossProblem(
                Dataset(rng.standard_normal((1000, d)), np.zeros(1000)), NetworkSpec(d)
            )
            assert not prob._streams(first - 1) and prob._streams(first)

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
        # Gathering 18000 of 20000 rows at d = 50 would take about 7 MB; the
        # set reads the dataset in place.
        peak, streams = peak_bytes(18000, "value_mean")
        assert streams
        assert peak < 2 * 2**20

    def test_peak_memory_of_gathered_blocks(self):
        # 6000 rows would gather 2.4 MB at once; they are gathered by block.
        peak, streams = peak_bytes(6000, "value_mean")
        assert not streams
        assert peak < 2 * 2**20


class TestPartialGradientMean:
    def test_bits_of_one_gather_and_of_gathered_blocks(self):
        # At most N/8 rows keep the one gather, and its bits, at every
        # block size; d = 2000 puts 80 rows of N = 640 in two blocks.
        assert in_child("t.gradient_mismatches()") == "[]"

    def test_peak_memory_of_gathered_blocks(self):
        # 15000 of 20000 rows at d = 50 would gather 6 MB at once; they are
        # gathered by block.
        peak, _ = peak_bytes(15000, "gradient_mean")
        assert peak < 2.5 * 2**20


class CountingExecutor(ThreadPoolExecutor):
    """A thread pool that counts the slabs submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0
        self._count_lock = threading.Lock()

    def submit(self, *args, **kwargs):
        with self._count_lock:
            self.submitted += 1
        return super().submit(*args, **kwargs)


class SplittingPool(problems._SlabPool):
    """A slab pool that splits every product it is asked about, over an
    executor that counts the slabs submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.executor = CountingExecutor(workers)

    def split_pays(self):
        return True


def use_workers(workers):
    """Split every row product, however small, among ``workers`` threads
    and the caller, and return the counting executor."""
    problems._SPLIT_BYTES = 0
    problems._pool = SplittingPool(workers)
    return problems._pool.executor


def split_cases():
    """``(problem, x, sets)`` for each of ``sigmoid_cases``; ``sets`` holds
    the full set, then ``product_sets``: sets on both sides of the in-place
    product's size threshold and sets ending in the dataset's last rows."""
    for prob, x, rng in sigmoid_cases():
        yield prob, x, [np.arange(prob.N)] + product_sets(prob, rng)[1]


def split_evaluations(prob, x, sets):
    """Every result that reads a row product ``_row_product`` may split:
    the product over the dataset, each set's margins and value, the full
    gradient, and the testing loss and classification rate of the dataset
    as a held-out set."""
    ds = prob.dataset
    out = [problems._row_product(ds.features, x)]
    for idx in sets:
        out += [prob._margins(idx, x)[0], prob.value_mean(idx, x)]
    return out + [prob.gradient_mean(sets[0], x), testing_loss(prob.spec, x, ds),
                  classification_rate(prob.spec, x, ds)]


def same_bits(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def unsplit_evaluations(cases):
    """``split_evaluations`` of each case with no product split."""
    problems._SPLIT_BYTES = math.inf
    return [split_evaluations(*case) for case in cases]


def split_mismatches():
    """Cases where results over row products split among one or three
    workers differ from those over unsplit products, and a pool that got
    no slab to compute."""
    cases = list(split_cases())
    want = unsplit_evaluations(cases)
    mismatches = []
    for workers in (1, 3):
        executor = use_workers(workers)
        for case, expected in zip(cases, want):
            if not same_bits(split_evaluations(*case), expected):
                mismatches.append((workers, case[0].dataset.d, case[0].N))
        if not executor.submitted:
            mismatches.append(("no slab", workers))
    return mismatches


def guard_mismatches():
    """Departures from the guard: the probe must read this process's one
    BLAS thread, a count of 2 or none must split nothing and change no bit,
    and the process's own pool must have one worker per core but one."""
    mismatches = []
    if problems._blas_threads() != 1:
        mismatches.append(("probe", problems._blas_threads()))
    cases = [next(split_cases())]
    want = unsplit_evaluations(cases)
    executor = use_workers(1)
    for count in (2, None):
        problems._blas_threads = lambda count=count: count
        if not same_bits(split_evaluations(*cases[0]), want[0]):
            mismatches.append(("bits", count))
    if executor.submitted:
        mismatches.append(("submitted", executor.submitted))
    problems._forget_pool()
    own = problems._slab_pool()
    if own.workers != len(os.sched_getaffinity(0)) - 1 or (own.executor is None) != (own.workers == 0):
        mismatches.append(("pool", own.workers, own.executor))
    return mismatches


def concurrent_mismatches(threads=4, rounds=5):
    """Failures of ``threads`` threads evaluating one problem at once, with
    every product split, to get one unsplit thread's bits in every round."""
    cases = [next(split_cases())]
    want = unsplit_evaluations(cases)[0]
    use_workers(1)
    results = []

    def work():
        for _ in range(rounds):
            results.append(same_bits(split_evaluations(*cases[0]), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    mismatches = [("hung", t.name) for t in workers if t.is_alive()]
    if results != [True] * (threads * rounds):
        mismatches.append(("bits", results.count(False), len(results)))
    return mismatches


def forked_value(prob, x, out):
    out.put(prob.value_mean(np.arange(prob.N), x))


def fork_mismatches():
    """A child forked after a split must evaluate with threads of its own,
    not hang on the parent's pool, whose threads it does not have."""
    prob, x, _ = next(split_cases())
    executor = use_workers(1)
    want = prob.value_mean(np.arange(prob.N), x)
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=forked_value, args=(prob, x, out))
    child.start()
    try:
        got = out.get(timeout=60)
    except queue.Empty:
        got = None
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    if got == want and child.exitcode == 0 and executor.submitted:
        return []
    return [("fork", got, want, child.exitcode, executor.submitted)]


class TestSplitRowProducts:
    """Row products split into 64-row-aligned slabs across cores keep the
    bits of one product.  Each check runs in a one-BLAS-thread child with
    the split threshold lowered to 0, so that small data are split."""

    def test_split_products_bit_identical_to_one_product(self):
        assert in_child("t.split_mismatches()") == "[]"

    def test_no_split_unless_blas_reports_one_thread(self):
        assert in_child("t.guard_mismatches()") == "[]"

    def test_concurrent_callers_get_one_threads_bits(self):
        assert in_child("t.concurrent_mismatches()") == "[]"

    def test_forked_child_makes_its_own_pool(self):
        assert in_child("t.fork_mismatches()") == "[]"

    def test_split_follows_the_measured_cost(self):
        # The first large product runs whole and the second split; then the
        # way with the lower moving average of seconds per byte, except that
        # every _PROBE-th product (counting from the first) takes the other.
        pool = problems._SlabPool(0)
        assert not pool.split_pays()
        pool.record(False, 2.0, 100)
        assert pool.split_pays()
        pool.record(True, 1.0, 100)
        P = problems._PROBE
        picks = [pool.split_pays() for _ in range(2 * P)]
        assert [k + 3 for k, split in enumerate(picks) if not split] == [P, 2 * P]
        # Splitting turns slower: the average moves a quarter of the way to
        # each new time, so it passes 2.0 s at the second product of 4.0 s.
        for split_after in (True, False):
            pool.record(True, 4.0, 100)
            assert pool.split_pays() == split_after
        picks = [pool.split_pays() for _ in range(2 * P)]
        assert [k + 2 * P + 5 for k, split in enumerate(picks) if split] == [3 * P, 4 * P]

    @pytest.mark.parametrize("m", [problems._CHUNK - 1, problems._CHUNK, problems._CHUNK + 1,
                                   2 * problems._CHUNK + 1])
    def test_chunked_value_tail_bit_identical(self, m):
        # The full-set value's sigmoid, residual and square run chunk by
        # chunk in the margins buffer; the sum is one np.sum over it.
        # Several points, because a sum regrouped at the chunk edges often
        # rounds to the same bits.
        rng = np.random.default_rng(m)
        features = rng.standard_normal((m, 4)) * rng.choice([0.5, 5.0, 50.0], (m, 1))
        labels = (rng.random(m) > 0.5).astype(float)
        prob = SquaredLossProblem(Dataset(features, labels), NetworkSpec(4))
        for x in rng.standard_normal((6, 4)):
            z = features @ x
            r = labels - masked_sigmoid(z)
            want = float(np.sum(r * r) / m)
            assert problems._sigmoid_mean_square_residual(labels, z.copy()) == want
            assert prob.value_mean(np.arange(m), x) == want


class TestReadOnlyDataset:
    """Evaluations never write to the dataset's arrays."""

    @pytest.mark.parametrize("hidden", [(), (6,)])
    def test_evaluations_on_read_only_arrays(self, hidden):
        rng = np.random.default_rng(13)
        N, d = 300, 20
        ds = Dataset(rng.standard_normal((N, d)), (rng.random(N) > 0.5).astype(float))
        features, labels = ds.features.copy(), ds.labels.copy()
        ds.features.flags.writeable = False
        ds.labels.flags.writeable = False
        spec = NetworkSpec(d, hidden)
        prob = SquaredLossProblem(ds, spec)
        x = initial_point(spec, rng) if hidden else rng.standard_normal(d) / np.sqrt(d)
        sets = [np.arange(N), np.sort(rng.choice(N, 250, replace=False)),
                np.sort(rng.choice(N, 40, replace=False))]
        assert [prob._streams(idx.size) for idx in sets[1:]] == [True, False]
        for idx in sets:
            prob.value_mean(idx, x)
            prob.gradient_mean(idx, x)
            H = prob.hessian_action(idx, x)
            H(rng.standard_normal(prob.n))
            if not hidden:
                H.dense()
        testing_loss(spec, x, ds)
        np.testing.assert_array_equal(ds.features, features)
        np.testing.assert_array_equal(ds.labels, labels)


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
