import numpy as np
import pytest

from subreg.finite_sum import CustomProblem, full_gradient, full_value
from subreg.problems import Dataset, NetworkSpec, SquaredLossProblem
from subreg.sampling import (
    audit_accuracy,
    bernstein_size,
    draw_subsample,
    extend_subsample,
    gradient_log_argument,
    hessian_log_argument,
    merged_mean,
    value_log_argument,
)


class TestBernsteinSize:
    def test_frozen_closed_form(self):
        # ceil(8 * (4 + 1/3) * ln 10) = ceil(79.8229...) computed offline
        assert bernstein_size(1.0, 0.5, 0.2, 10.0, 10**6) == 80

    def test_frozen_small_kappa(self):
        # kappa = nu makes the prefactor 4 * (2 + 1/3); ceil(21.49...) = 22
        assert bernstein_size(8e-4, 8e-4, 0.2, 10.0, 4800) == 22

    def test_clamps_to_one(self):
        assert bernstein_size(1.0, 1e9, 0.2, 10.0, 10**6) == 1

    def test_clamps_to_n(self):
        assert bernstein_size(1e9, 1e-6, 0.2, 10.0, 500) == 500

    def test_zero_target_asks_the_exact_mean(self):
        # A target of exactly 0 (or one that underflows the ratio) is N.
        assert bernstein_size(1.0, 0.0, 0.2, 10.0, 500) == 500
        assert bernstein_size(1e-2, 5e-324, 0.2, 10.0, 500) == 500

    def test_log_arguments(self):
        assert value_log_argument(0.2) == 10.0
        assert gradient_log_argument(9, 0.2) == 50.0
        assert hessian_log_argument(10, 0.2) == 100.0

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            bernstein_size(0.0, 1.0, 0.2, 10.0, 10)
        with pytest.raises(ValueError):
            bernstein_size(1.0, -1.0, 0.2, 10.0, 10)
        with pytest.raises(ValueError):
            bernstein_size(1.0, 1.0, 1.2, 10.0, 10)
        with pytest.raises(ValueError):
            bernstein_size(1.0, 1.0, 0.2, 0.5, 10)

    def test_monotonicity(self):
        # non-increasing in nu, non-decreasing in kappa and in 1/t
        nus = np.logspace(-3, 1, 10)
        sizes = [bernstein_size(1.0, nu, 0.2, 10.0, 10**9) for nu in nus]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        kappas = np.logspace(-3, 1, 10)
        sizes = [bernstein_size(k, 0.1, 0.2, 10.0, 10**9) for k in kappas]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        ts = np.linspace(0.05, 0.9, 10)
        sizes = [bernstein_size(1.0, 0.1, t, 2.0 / t, 10**9) for t in ts]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_spec_wrapper(self):
        n = 10**6
        size = bernstein_size(1.0, 0.5, 0.2, 10.0, n)
        assert size == 80
        assert 1 <= size <= n


class TestDrawSubsample:
    def test_full_sample_is_identity(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(draw_subsample(rng, 7, 7), np.arange(7))

    def test_single_index_reproducible(self):
        a = draw_subsample(np.random.default_rng(42), 100, 1)
        b = draw_subsample(np.random.default_rng(42), 100, 1)
        np.testing.assert_array_equal(a, b)

    def test_sorted_distinct(self):
        idx = draw_subsample(np.random.default_rng(1), 50, 20)
        assert np.all(np.diff(idx) > 0)

    def test_bounds_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_subsample(rng, 10, 11)
        with pytest.raises(ValueError):
            draw_subsample(rng, 10, 0)

    def test_empirical_uniformity(self):
        rng = np.random.default_rng(7)
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            counts[draw_subsample(rng, 10, 1)[0]] += 1
        freq = counts / draws
        assert freq.min() >= 0.09 and freq.max() <= 0.11

    def test_extension_is_uniform_superset(self):
        rng = np.random.default_rng(3)
        idx = draw_subsample(rng, 30, 5)
        grown, ext = extend_subsample(rng, 30, idx, 12)
        assert grown.size == 12 and ext.size == 7
        assert np.all(np.diff(grown) > 0)
        assert np.intersect1d(idx, ext).size == 0
        np.testing.assert_array_equal(np.union1d(idx, ext), grown)

    def test_extension_to_full_covers_complement(self):
        rng = np.random.default_rng(4)
        idx = draw_subsample(rng, 12, 4)
        grown, _ = extend_subsample(rng, 12, idx, 12)
        np.testing.assert_array_equal(grown, np.arange(12))

    @pytest.mark.parametrize("seed", range(6))
    def test_extension_matches_setdiff_reference(self, seed):
        # Complement positions are mapped to indices by a search (s) or through
        # an N-long mask (m), whichever the sizes favour; w: the whole complement.
        for N, start, m in [
            (1000, 10, 50),  # s
            (1000, 300, 999),  # m
            (1000, 400, 1000),  # m, w
            (7, 1, 6),  # s
            (200_000, 69, 260),  # s: a gradient sample of p1_tall
            (20_000, 1_346, 5_299),  # m: a Hessian sample of q2_sigmoid
            (20_000, 1, 20_000),  # s, w
        ]:
            idx = draw_subsample(np.random.default_rng(seed), N, start)
            assert_extension_matches_reference(np.random.default_rng([seed, N]), N, idx, m)

    def test_extension_cannot_shrink(self):
        rng = np.random.default_rng(5)
        idx = draw_subsample(rng, 12, 6)
        with pytest.raises(ValueError):
            extend_subsample(rng, 12, idx, 3)


def reference_draw(rng, N, m):
    """``draw_subsample`` with every partial draw put in order by a sort."""
    if m == N:
        return np.arange(N, dtype=np.intp)
    return np.sort(rng.choice(N, size=m, replace=False).astype(np.intp))


def reference_extension(rng, N, indices, m):
    """``extend_subsample`` by ``np.setdiff1d`` over all N indices."""
    complement = np.setdiff1d(np.arange(N, dtype=np.intp), indices, assume_unique=True)
    need = m - indices.size
    if need == complement.size:
        extra = complement
    else:
        extra = complement[np.sort(rng.choice(complement.size, size=need, replace=False))]
    return np.sort(np.concatenate([indices, extra])), np.sort(extra)


def assert_same_arrays(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype == np.intp


def assert_extension_matches_reference(rng, N, indices, m):
    """Same grown set, extension, dtypes and generator state as the reference."""
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = rng.bit_generator.state
    grown, ext = extend_subsample(rng, N, indices, m)
    ref_grown, ref_ext = reference_extension(ref_rng, N, np.asarray(indices, dtype=np.intp), m)
    assert_same_arrays(grown, ref_grown)
    assert_same_arrays(ext, ref_ext)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestOrderingPaths:
    """A draw is put in order by a sort or by an N-long mask, and an extension
    maps complement positions to indices by a search or by that mask; the
    sizes decide which.  Every path must give the reference's arrays and
    leave the generator where the reference leaves it."""

    @pytest.mark.parametrize(
        "N, m",
        [
            (200_000, 69),  # sorted
            (200_000, 5_000),  # sorted
            (200_000, 130_000),  # masked
            (200_000, 199_999),  # masked
            (20_000, 19_000),  # masked
            (1_000, 999),  # sorted: the mask does not pay below a few thousand
            (5, 1),
        ],
    )
    def test_draw_matches_sorted_reference(self, N, m):
        rng, ref_rng = np.random.default_rng([N, m]), np.random.default_rng([N, m])
        for _ in range(3):
            assert_same_arrays(draw_subsample(rng, N, m), reference_draw(ref_rng, N, m))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("N, m", [(1, 1), (10, 3), (10, 10), (20_000, 30), (20_000, 19_000)])
    def test_extension_of_empty_set(self, N, m):
        empty = np.empty(0, dtype=np.intp)
        assert_extension_matches_reference(np.random.default_rng(N + m), N, empty, m)

    @pytest.mark.parametrize("m", [9, 60, 2_000, 9_990, 9_996, 9_999, 10_000])
    @pytest.mark.parametrize(
        "members",
        [
            [0, 9_999],  # both ends
            [0, 1, 2, 3],  # a run at the start
            [9_996, 9_997, 9_998, 9_999],  # a run at the end
            [0, 500, 501, 502, 503, 504, 505, 9_998, 9_999],  # runs and both ends
        ],
    )
    def test_extension_edges_match_reference(self, members, m):
        N = 10_000
        members = np.array(members, dtype=np.intp)
        assert_extension_matches_reference(np.random.default_rng([m, members.size]), N, members, m)

    def test_extension_of_long_runs(self):
        N = 50_000
        members = np.concatenate([np.arange(0, 3_000), np.arange(20_000, 20_500), [N - 1]])
        for m in (members.size + 5, members.size + 700, 30_000, N - 1, N):
            assert_extension_matches_reference(np.random.default_rng(m), N, members, m)

    def test_unordered_members_are_sorted(self):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        grown, ext = extend_subsample(rng, 10, np.array([7, 2, 5]), 6)
        ref_grown, ref_ext = extend_subsample(ref_rng, 10, np.array([2, 5, 7]), 6)
        assert_same_arrays(grown, ref_grown)
        assert_same_arrays(ext, ref_ext)
        unchanged, none = extend_subsample(rng, 10, [7, 2, 5], 3)
        assert_same_arrays(unchanged, np.array([2, 5, 7], dtype=np.intp))
        assert none.size == 0

    @pytest.mark.parametrize("members", [[-1], [10], [3, 12], [0, 0], [4, 2, 4]])
    def test_extension_rejects_invalid_members(self, members):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            extend_subsample(rng, 10, np.array(members), 6)
        assert rng.bit_generator.state == state

    def test_extension_rejects_float_members(self):
        with pytest.raises(TypeError, match="float64"):
            extend_subsample(np.random.default_rng(0), 10, np.array([1.0, 2.0]), 4)


def identical_problem(n=3, N=9):
    return CustomProblem(
        n,
        N,
        value=lambda i, x: float(x @ x),
        gradient=lambda i, x: 2.0 * x,
        hvp=lambda i, x, v: 2.0 * v,
    )


def varied_problem(seed=0, n=4, N=40):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(N)]
    sym = [0.5 * (m + m.T) for m in mats]
    offs = [rng.standard_normal(n) for _ in range(N)]

    def value(i, x):
        return 0.5 * float(x @ sym[i] @ x) + float(offs[i] @ x)

    return CustomProblem(
        n,
        N,
        value,
        gradient=lambda i, x: sym[i] @ x + offs[i],
        hvp=lambda i, x, v: sym[i] @ v,
    )


class TestEstimators:
    def test_full_index_set_bit_identical_to_exact(self):
        prob = varied_problem()
        x = np.random.default_rng(1).standard_normal(prob.n)
        idx = np.arange(prob.N)
        assert prob.value_mean(idx, x) == full_value(prob, x)
        np.testing.assert_array_equal(prob.gradient_mean(idx, x), full_gradient(prob, x))

    def test_single_index_equals_component(self):
        prob = varied_problem(seed=2)
        x = np.random.default_rng(2).standard_normal(prob.n)
        np.testing.assert_array_equal(
            prob.gradient_mean([3], x), prob.component_gradient(3, x)
        )

    def test_identical_components_any_subsample(self):
        prob = identical_problem()
        x = np.array([1.0, -2.0, 0.5])
        for idx in ([0], [1, 4], np.arange(9)):
            assert prob.value_mean(idx, x) == pytest.approx(float(x @ x), rel=1e-15)

    def test_zero_variance_concentration(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((20, 3)), np.ones(20))
        prob = SquaredLossProblem(ds, NetworkSpec(3))
        rng = np.random.default_rng(1)
        idx = draw_subsample(rng, 20, 5)
        assert prob.value_mean(idx, np.zeros(3)) == pytest.approx(0.25, abs=1e-15)

    def test_empty_indices_rejected(self):
        prob = identical_problem()
        with pytest.raises(ValueError):
            prob.value_mean([], np.zeros(3))

    def test_gradient_error_decays_with_sample_size(self):
        prob = varied_problem(seed=5, N=64)
        x = np.random.default_rng(3).standard_normal(prob.n)
        exact = full_gradient(prob, x)
        rng = np.random.default_rng(11)
        means = []
        for m in (8, 16, 32):
            errs = [
                np.linalg.norm(prob.gradient_mean(draw_subsample(rng, 64, m), x) - exact)
                for _ in range(200)
            ]
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]

    def test_hvp_symmetry_within_fd_error(self):
        ds = Dataset(np.random.default_rng(4).standard_normal((15, 3)),
                     (np.random.default_rng(5).random(15) > 0.5).astype(float))
        prob = SquaredLossProblem(ds, NetworkSpec(3))
        rng = np.random.default_rng(6)
        x, u, v = rng.standard_normal((3, 3))
        idx = draw_subsample(rng, 15, 6)
        left = float(u @ prob.hessian_action(idx, x)(v))
        right = float(v @ prob.hessian_action(idx, x)(u))
        assert abs(left - right) <= 1e-3 * (1.0 + abs(left))

    def test_estimator_closure_frozen_sample(self):
        prob = varied_problem(seed=8)
        x = np.random.default_rng(9).standard_normal(prob.n)
        idx = np.array([1, 5, 9])
        action = prob.hessian_action(idx, x)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        expected = (prob.component_hvp(1, x, v) + prob.component_hvp(5, x, v)
                    + prob.component_hvp(9, x, v)) / 3
        np.testing.assert_array_equal(action(v), prob.hessian_action(idx, x)(v))
        np.testing.assert_allclose(action(v), expected, rtol=1e-14)

    def test_merged_mean(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, 8.0])
        np.testing.assert_allclose(merged_mean(a, 2, b, 2), [2.5, 5.0])


class TestAudit:
    def test_full_sample_regime_never_fails(self):
        prob = varied_problem(seed=1, N=10)
        rate = audit_accuracy(
            prob, np.zeros(prob.n), 1e-9, 1e9, 0.2, 0, 100, np.random.default_rng(0)
        )
        assert rate == 0.0

    def test_valid_kappa_respects_bound(self):
        prob = varied_problem(seed=2, N=200)
        x = np.random.default_rng(1).standard_normal(prob.n)
        kappa = max(np.linalg.norm(prob.component_gradient(i, x)) for i in range(prob.N))
        rate = audit_accuracy(
            prob, x, 0.5 * kappa, kappa, 0.2, 1, 200, np.random.default_rng(2)
        )
        assert rate <= 0.25

    def test_undersized_kappa_reported_not_raised(self):
        prob = varied_problem(seed=3, N=200)
        x = np.random.default_rng(4).standard_normal(prob.n)
        rate = audit_accuracy(prob, x, 1e-4, 1e-6, 0.2, 1, 100, np.random.default_rng(5))
        assert 0.0 <= rate <= 1.0

    def test_parameter_checks(self):
        prob = varied_problem()
        with pytest.raises(ValueError):
            audit_accuracy(prob, np.zeros(prob.n), 0.1, 1.0, 0.2, 2, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            audit_accuracy(prob, np.zeros(prob.n), 0.1, 1.0, 0.2, 0, 50, np.random.default_rng(0))
