import dataclasses
import math

import numpy as np
import pytest
from oracles import grow_model_and_step_rebuild

import subreg.solver as solver_module
from subreg.finite_sum import CustomProblem, full_gradient, full_value
from subreg.harness import synthesize_dataset, write_trace
from subreg.problems import NetworkSpec, SquaredLossProblem, initial_point
from subreg.solver import (
    CostMeter,
    SolverConfig,
    SolverStallError,
    _grow_gradient,
    _grow_model_and_step,
    _overlap,
    iteration_charge,
    minimize,
    rho,
)


def quadratic_problem(n=2, N=6):
    return CustomProblem(
        n,
        N,
        value=lambda i, x: float(x @ x),
        gradient=lambda i, x: 2.0 * x,
        hvp=lambda i, x, v: 2.0 * v,
    )


def sigmoid_problem(seed=0, N=200, d=6, separation=3.0):
    from subreg.harness import synthesize_dataset

    ds = synthesize_dataset(seed, N, d, separation)
    return SquaredLossProblem(ds, NetworkSpec(d))


EXACT = dict(kappa=1e9)  # Bernstein sizes clamp to N: every estimate is exact


class TestRho:
    def test_ratio(self):
        assert rho(1.0, 0.2, 1.0) == 0.8

    def test_zero_decrease_is_minus_infinity(self):
        assert rho(1.0, 0.5, 0.0) == -math.inf
        assert rho(1.0, 0.5, -1e-9) == -math.inf

    def test_increase_gives_negative_ratio(self):
        assert rho(1.0, 1.4, 2.0) < 0.0


class TestIterationCharge:
    def test_gradient_overlap_discount(self):
        # 50 shared samples cost one propagation each
        assert iteration_charge(100, 0, 0, 50, 50, 0, 0, 0) == 0.5

    def test_gradient_disjoint(self):
        assert iteration_charge(100, 0, 0, 50, 0, 0, 0, 0) == 1.0

    def test_hessian_work(self):
        # 3 subproblem evaluations on |H| = 25 nested in G
        assert iteration_charge(100, 0, 0, 0, 0, 25, 25, 75) == 1.5

    def test_function_estimates(self):
        assert iteration_charge(100, 30, 20, 0, 0, 0, 0, 0) == 0.5


class TestCostMeter:
    def test_monotone(self):
        meter = CostMeter()
        meter.charge(0.5)
        meter.charge(0.0)
        assert meter.total == 0.5
        with pytest.raises(ValueError):
            meter.charge(-0.1)


class TestConfigValidation:
    def test_defaults_valid(self):
        SolverConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=2, p=1),
            dict(q=3),
            dict(sigma0=-1.0),
            dict(sigma_min=0.2, sigma0=0.1),
            dict(theta=0.7),
            dict(eta=1.0),
            dict(gamma=1.0),
            dict(alpha=0.0),
            dict(gamma_eps=1.0),
            dict(kappa=0.0),
            dict(t=0.0),
            dict(q=2, p=2),  # missing eps2
            dict(stall_limit=0),
            dict(stall_limit=-3),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    def test_nonpositive_stall_limit_rejected_before_iterating(self):
        # Unchecked, the first iteration would raise SolverStallError.
        prob = sigmoid_problem(seed=5, N=300, d=5)
        with pytest.raises(ValueError, match="stall_limit"):
            minimize(prob, SolverConfig(p=1, budget_cm=5.0, stall_limit=0))

    def test_omega_definition(self):
        cfg = SolverConfig(alpha=0.5, eta=0.8)
        assert cfg.omega(0.1) == pytest.approx(0.2)
        assert cfg.omega(100.0) == pytest.approx(0.01)


class TestExactMode:
    def test_converges_on_quadratic(self):
        prob = quadratic_problem()
        res = minimize(prob, SolverConfig(eps1=1e-6, **EXACT), x0=np.array([1.0, 2.0]))
        assert res.stop_reason == "converged"
        assert np.linalg.norm(full_gradient(prob, res.x)) <= 1e-6

    def test_sigma_update_rules(self):
        prob = sigmoid_problem()
        cfg = SolverConfig(eps1=1e-3, gamma=2.0, **EXACT)
        res = minimize(prob, cfg)
        events = res.trace
        assert any(e.success == 0 for e in events[:-1])  # both branches exercised
        assert any(e.success == 1 for e in events[:-1])
        for prev, cur in zip(events, events[1:]):
            if prev.success:
                assert cur.sigma == max(cfg.sigma_min, prev.sigma / cfg.gamma)
            else:
                assert cur.sigma == cfg.gamma * prev.sigma
            assert cur.sigma >= cfg.sigma_min

    def test_omega_invariant_every_row(self):
        cfg = SolverConfig(eps1=1e-3, **EXACT)
        res = minimize(sigmoid_problem(), cfg)
        for e in res.trace:
            assert e.omega == min(0.5 * cfg.alpha * cfg.eta, 1.0 / e.sigma)

    def test_iterates_move_only_on_success(self):
        cfg = SolverConfig(eps1=1e-3, record_iterates=True, **EXACT)
        res = minimize(sigmoid_problem(), cfg)
        full_rows = [e for e in res.trace if not math.isnan(e.rho)]
        assert len(res.iterates) == len(full_rows) + 1
        for e, x_prev, x_next in zip(full_rows, res.iterates, res.iterates[1:]):
            if e.success:
                assert np.any(x_next != x_prev)
            else:
                np.testing.assert_array_equal(x_next, x_prev)

    def test_monotone_on_successes(self):
        res = minimize(sigmoid_problem(seed=3), SolverConfig(eps1=1e-3, **EXACT))
        losses = [e.train_loss for e in res.trace]
        for prev, cur, e in zip(losses, losses[1:], res.trace[1:]):
            if e.success:
                assert cur <= prev + 1e-15

    def test_success_decrease_dominates_predicted(self):
        # exact estimates make the acceptance test f(x) - f(x+s) >= eta * dT
        cfg = SolverConfig(eps1=1e-3, **EXACT)
        prob = sigmoid_problem(seed=3)
        res = minimize(prob, cfg)
        from subreg.finite_sum import full_value

        losses = [full_value(prob, np.zeros(prob.n))] + [e.train_loss for e in res.trace]
        for f_prev, f_cur, e in zip(losses, losses[1:], res.trace):
            if e.success:
                predicted = e.grad_norm**2 / e.sigma
                assert f_prev - f_cur >= cfg.eta * predicted - 1e-12

    def test_no_failures_above_success_sigma_band(self):
        # once sigma is large enough every exact-mode iteration succeeds
        cfg = SolverConfig(eps1=1e-4, **EXACT)
        res = minimize(sigmoid_problem(seed=5), cfg)
        max_success_sigma = max(e.sigma for e in res.trace if e.success == 1)
        for e in res.trace[:-1]:
            if not e.success and not math.isnan(e.rho):
                assert e.sigma <= max_success_sigma * cfg.gamma**2

    def test_cubic_variant_converges(self):
        prob = sigmoid_problem(seed=7, N=100, d=5)
        res = minimize(prob, SolverConfig(p=2, eps1=1e-4, **EXACT))
        assert res.stop_reason == "converged"
        assert np.linalg.norm(full_gradient(prob, res.x)) <= 1e-4

    def test_second_order_target_escapes_saddle(self):
        A = np.diag([-1.0, 1.0])
        prob = CustomProblem(
            2,
            4,
            value=lambda i, x: float(0.5 * x @ A @ x + 0.25 * (x @ x) ** 2),
            gradient=lambda i, x: A @ x + (x @ x) * x,
            hvp=lambda i, x, v: A @ v + 2.0 * (x @ v) * x + (x @ x) * v,
        )
        cfg = SolverConfig(q=2, p=2, eps1=1e-5, eps2=1e-4, max_iters=3000, **EXACT)
        res = minimize(prob, cfg, x0=np.zeros(2))
        assert res.stop_reason == "converged"
        assert abs(abs(res.x[0]) - 1.0) <= 1e-2  # the two minimisers sit at (+-1, 0)


class TestSampledMode:
    def test_same_seed_reproduces_trace(self):
        prob = sigmoid_problem(seed=11, N=300, d=8)
        cfg = SolverConfig(budget_cm=5.0, seed=4, record_iterates=True)
        a = minimize(prob, cfg)
        b = minimize(prob, cfg)
        assert len(a.trace) == len(b.trace)
        for x, y in zip(a.iterates, b.iterates):
            np.testing.assert_array_equal(x, y)
        assert [e.cm for e in a.trace] == [e.cm for e in b.trace]

    def test_budget_stop_with_bounded_overshoot(self):
        prob = sigmoid_problem(seed=13, N=400, d=10)
        cfg = SolverConfig(budget_cm=6.0, seed=0)
        res = minimize(prob, cfg)
        assert res.stop_reason == "budget"
        assert res.total_cm >= 6.0
        # overshoot bounded by one iteration's charge
        assert res.total_cm - 6.0 <= res.trace[-1].cm - res.trace[-2].cm + 1e-12

    def test_cm_column_non_decreasing(self):
        res = minimize(sigmoid_problem(seed=17), SolverConfig(budget_cm=4.0, seed=2))
        cms = [e.cm for e in res.trace]
        assert all(b >= a for a, b in zip(cms, cms[1:]))

    def test_cubic_sampled_run(self):
        prob = sigmoid_problem(seed=19, N=150, d=5)
        cfg = SolverConfig(p=2, budget_cm=8.0, seed=1, kappa=1e-2)
        res = minimize(prob, cfg)
        assert res.stop_reason in ("budget", "converged")
        assert all(e.h_size >= 1 for e in res.trace)
        final = full_value(prob, res.x)
        assert final < 0.25  # moved off the flat start

    def test_iteration_cap(self):
        prob = sigmoid_problem(seed=23, N=100, d=4)
        res = minimize(prob, SolverConfig(eps1=1e-12, max_iters=5, **EXACT))
        assert res.stop_reason == "iteration_cap"
        assert res.iterations == 5

    def test_q2_sampled_accepts_differenced_hessians(self):
        # the curvature measure must tolerate the asymmetry of differenced
        # Hessian estimators instead of rejecting them as non-symmetric
        prob = sigmoid_problem(seed=37, N=120, d=4)
        cfg = SolverConfig(
            q=2, p=2, eps1=1e-2, eps2=1e-1, kappa=1e-2,
            budget_cm=40.0, seed=0, max_iters=50,
        )
        res = minimize(prob, cfg)
        assert res.stop_reason in ("budget", "converged", "iteration_cap")

    def test_trace_charge_reconstruction(self):
        prob = sigmoid_problem(seed=29, N=250, d=6)
        res = minimize(prob, SolverConfig(budget_cm=5.0, seed=3))
        cm = 0.0
        for e in res.trace:
            cm += iteration_charge(
                prob.N, e.d1_size, e.d2_size, e.g_size, e.g_d1_overlap,
                e.h_size, e.h_g_overlap, e.hvp_props,
            )
            assert cm == e.cm

    def test_stall_safeguard_raises(self):
        flat = CustomProblem(2, 4, value=lambda i, x: 1.0, gradient=lambda i, x: np.zeros(2))
        cfg = SolverConfig(eps1=0.0, stall_limit=60, max_iters=500, **EXACT)
        with pytest.raises(SolverStallError):
            minimize(flat, cfg)

    def test_budget_only_runs_supported(self):
        # eps1 = 0 disables the termination test
        prob = sigmoid_problem(seed=31, N=100, d=4)
        res = minimize(prob, SolverConfig(eps1=0.0, budget_cm=3.0, seed=0))
        assert res.stop_reason == "budget"

    def test_event_sink_receives_trace(self):
        prob = sigmoid_problem(seed=41, N=100, d=4)
        seen = []
        res = minimize(prob, SolverConfig(budget_cm=2.0, seed=0), on_event=seen.append)
        assert seen == res.trace

    def test_exact_losses_suppressed_above_threshold(self):
        prob = sigmoid_problem(seed=43, N=120, d=4)
        cfg = SolverConfig(budget_cm=2.0, seed=0, exact_loss_threshold=50)
        res = minimize(prob, cfg)
        assert all(e.train_loss is None for e in res.trace)


def poisoned_problem(what):
    """Smooth components whose index-3 value or gradient is NaN."""

    def value(i, x):
        return math.nan if what == "value" and i == 3 else float(x @ x - x.sum())

    def gradient(i, x):
        return np.full(3, math.nan) if what == "gradient" and i == 3 else 2.0 * x - 1.0

    return CustomProblem(3, 8, value, gradient)


class TestNonFinite:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2)])
    @pytest.mark.parametrize("what", ["value", "gradient"])
    def test_non_finite_estimate_raises(self, what, p, q):
        cfg = SolverConfig(p=p, q=q, eps1=0.0, eps2=0.0, budget_cm=50.0, **EXACT)
        expected = "non-finite gradient" if what == "gradient" else "non-finite function"
        with pytest.raises(FloatingPointError, match=expected):
            minimize(poisoned_problem(what), cfg)


def poisoned_hvp_problem():
    """``poisoned_problem`` with an exact Hessian whose index-3 action is NaN."""
    prob = poisoned_problem("none")
    prob._hvp = lambda i, x, v: np.full(3, math.nan) if i == 3 else 2.0 * v
    return prob


class TestNonFiniteHessian:
    @pytest.mark.parametrize("q", [1, 2])
    def test_non_finite_hessian_estimate_raises(self, q):
        # The q = 1 run used to finish on budget at x = 0, and the q = 2 run
        # to die inside scipy's eigensolver.
        cfg = SolverConfig(p=2, q=q, eps1=0.0, eps2=0.0, budget_cm=50.0, **EXACT)
        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            minimize(poisoned_hvp_problem(), cfg)

    def test_non_finite_differenced_hessian_raises(self):
        # A differenced action about a finite base, stepping into NaN.
        prob = CustomProblem(
            2, 4, value=lambda i, x: float(x @ x),
            gradient=lambda i, x: 2.0 * x if x[0] <= 1.0 else np.full(2, math.nan),
        )
        H = prob.hessian_action([0, 1], np.array([1.0, 0.0]))
        with pytest.raises(FloatingPointError, match="non-finite Hessian estimate"):
            H(np.array([1.0, 0.0]))


class TestGradientGrowthLoop:
    def test_halving_count_frozen(self):
        # constant gradient of norm 0.1 with omega = 0.2: the target halves
        # from 0.5 until 0.015625 <= 0.02, i.e. five times over six passes
        g0 = np.array([0.1, 0.0])
        prob = CustomProblem(2, 1000, value=lambda i, x: float(g0 @ x),
                             gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        g, idx, passes = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0), {})
        np.testing.assert_allclose(g, g0)
        assert passes == 6

    def test_immediate_accept_on_large_gradient(self):
        g0 = np.array([10.0, 0.0])
        prob = CustomProblem(2, 1000, value=lambda i, x: float(g0 @ x),
                             gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        _, _, passes = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0), {})
        assert passes == 1

    def test_full_sample_bypasses_test(self):
        g0 = np.zeros(2)  # zero gradient: only the full-sample exit applies
        prob = CustomProblem(2, 50, value=lambda i, x: 0.0, gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        g, idx, _ = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0), {})
        assert idx.size == 50

    def test_degenerate_model_loop_runs_to_full_sample(self):
        # zero decrease forces the targets to zero, so the order-2 growth
        # loop must exhaust both samples before accepting
        prob = CustomProblem(
            2, 30,
            value=lambda i, x: 1.0,
            gradient=lambda i, x: np.zeros(2),
            hvp=lambda i, x, v: np.zeros(2),
        )
        cfg = SolverConfig(p=2, kappa=1e-2)
        g, g_idx, h_idx, s, quantities, _, passes, _ = _grow_model_and_step(
            prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0), {}
        )
        assert g_idx.size == 30 and h_idx.size == 30
        assert quantities.delta_t_min == 0.0
        np.testing.assert_array_equal(s, np.zeros(2))


class TestOverlap:
    def test_matches_intersect1d(self):
        rng = np.random.default_rng(5)
        N = 200
        full = np.arange(N)
        some = np.sort(rng.choice(N, 37, replace=False))
        cases = [
            (np.empty(0, dtype=np.intp), some),
            (some, np.empty(0, dtype=np.intp)),
            (np.arange(0, 50), np.arange(50, 90)),  # disjoint
            (some, some),
            (full, some),
            (some, full),
            (full, full),
            (np.array([N - 1]), some),  # beyond every entry of the larger set
            (np.array([0]), np.array([1, 2, 3])),
        ]
        for _ in range(200):
            a = np.sort(rng.choice(N, rng.integers(0, N + 1), replace=False))
            b = np.sort(rng.choice(N, rng.integers(0, N + 1), replace=False))
            cases.append((a, b))
        for a, b in cases:
            a, b = a.astype(np.intp), b.astype(np.intp)
            assert _overlap(a, b) == np.intersect1d(a, b).size


class CountingProblem(SquaredLossProblem):
    """Records the full-set value and gradient calls and the x they read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.full_values = []
        self.full_gradients = 0
        self.full_gradient_points = []

    def _full_set(self, indices):
        idx = np.asarray(indices)
        return idx.size == self.N and np.unique(idx).size == self.N

    def value_mean(self, indices, x):
        if self._full_set(indices):
            self.full_values.append(np.asarray(x, dtype=float).tobytes())
        return super().value_mean(indices, x)

    def gradient_mean(self, indices, x):
        if self._full_set(indices):
            self.full_gradients += 1
            self.full_gradient_points.append(np.asarray(x, dtype=float).tobytes())
        return super().gradient_mean(indices, x)


def counting_problem(seed, N, d):
    from subreg.harness import synthesize_dataset

    ds = synthesize_dataset(seed, N, d, 3.0)
    return CountingProblem(ds, NetworkSpec(d))


class TestOneValuePerIterate:
    """Full-sample values and test losses are computed once per iterate."""

    # A start at 2 makes the first cubic steps fail; the q = 1 run then
    # converges, so its final event follows a rejected step.
    CASES = [
        dict(p=1, budget_cm=40.0, seed=1, **EXACT),
        dict(p=1, budget_cm=8.0, seed=2),
        dict(p=2, q=1, eps1=1e-4, budget_cm=400.0, seed=3, **EXACT),
        dict(p=2, q=2, eps1=1e-4, eps2=1e-3, budget_cm=200.0, seed=3, **EXACT),
    ]

    def run(self, case):
        prob = counting_problem(51, 160, 5)
        test = counting_problem(52, 60, 5)
        tested = []

        def test_loss(x):
            tested.append(np.asarray(x).tobytes())
            return full_value(test, x)

        cfg = SolverConfig(record_iterates=True, **case)
        x0 = np.full(5, 2.0) if cfg.p == 2 else None
        res = minimize(prob, cfg, x0=x0, test_loss=test_loss)
        assert any(e.success == 0 for e in res.trace)  # some iterate is measured twice
        # The event of iteration k is recorded at iterates[k + 1]; a converged
        # final event appends no iterate.
        at = [res.iterates[min(k + 1, len(res.iterates) - 1)] for k in range(len(res.trace))]
        return prob, test, res, tested, at

    @pytest.mark.parametrize("case", CASES)
    def test_no_full_value_twice_at_one_x(self, case):
        prob, _, _, _, _ = self.run(case)
        assert len(prob.full_values) == len(set(prob.full_values))

    @pytest.mark.parametrize("case", CASES)
    def test_test_loss_once_per_distinct_iterate(self, case):
        _, _, _, tested, at = self.run(case)
        assert len(tested) == len({x.tobytes() for x in at})
        assert len(tested) == len(set(tested))

    @pytest.mark.parametrize("case", CASES)
    def test_recorded_losses_equal_fresh_ones(self, case):
        prob, test, res, _, at = self.run(case)
        for event, x in zip(res.trace, at):
            assert event.train_loss == full_value(prob, x)
            assert event.test_loss == full_value(test, x)

    def test_full_function_estimates_are_the_measured_values(self):
        # with every sample full, f_x is the loss recorded at the previous
        # event, and after an accepted step the new loss is f(x + s)
        prob, _, res, _, _ = self.run(self.CASES[0])
        for before, event in zip(res.trace, res.trace[1:]):
            assert event.loss_estimate == before.train_loss

    def test_full_gradient_and_hessian_samples_share_one_gradient(self):
        prob = counting_problem(53, 120, 4)
        cfg = SolverConfig(p=2, **EXACT)
        g, g_idx, h_idx, *_ = _grow_model_and_step(
            prob, np.full(4, 0.1), 0.2, 0.1, cfg, np.random.default_rng(0), {}
        )
        assert g_idx.size == h_idx.size == prob.N
        assert prob.full_gradients == 1
        np.testing.assert_array_equal(g, full_gradient(prob, np.full(4, 0.1)))


class DoubleWellProblem(CustomProblem):
    """40 double-well components with a differenced Hessian (no ``hvp``);
    records the x of every full-set gradient call."""

    def __init__(self):
        C = np.random.default_rng(0).standard_normal((40, 3))
        super().__init__(
            3, 40,
            value=lambda i, x: float(0.25 * np.sum((x * x - 1.0) ** 2) + 0.1 * C[i] @ x),
            gradient=lambda i, x: (x * x - 1.0) * x + 0.1 * C[i],
        )
        self.full_gradient_points = []

    def gradient_mean(self, indices, x):
        if np.unique(np.asarray(indices)).size == self.N:
            self.full_gradient_points.append(np.asarray(x, dtype=float).tobytes())
        return super().gradient_mean(indices, x)


class TestOneGradientPerIterate:
    """A full-sample gradient is computed once per iterate."""

    @pytest.mark.parametrize("x0", [0.1, 1.0])
    def test_termination_check_reuses_the_last_hessian(self, x0):
        # The q = 2 check takes the growth loop's Hessian of the same sample
        # at the same x, so no base gradient is recomputed for it.
        prob = DoubleWellProblem()
        cfg = SolverConfig(p=2, q=2, eps1=1e-4, eps2=1e-3, budget_cm=1e4, **EXACT)
        res = minimize(prob, cfg, x0=np.full(3, x0))
        assert res.stop_reason == "converged"
        assert prob.full_gradient_points.count(res.x.tobytes()) == 1

    @pytest.mark.parametrize("q", [1, 2])
    def test_rejected_step_reuses_the_full_gradient(self, q):
        prob = counting_problem(51, 160, 5)
        cfg = SolverConfig(
            p=2, q=q, eps1=1e-4, eps2=1e-3, budget_cm=400.0, record_iterates=True, **EXACT
        )
        res = minimize(prob, cfg, x0=np.full(5, 2.0))
        assert any(e.success == 0 for e in res.trace)
        # Iteration k starts at iterates[k].
        started = {res.iterates[e.k].tobytes() for e in res.trace}
        points = prob.full_gradient_points
        assert len(points) == len(set(points)) and set(points) == started


def weighted_double_well(with_hvp):
    """20 double wells of random weight and tilt in 3 dimensions."""
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 2.0, 20)
    C = rng.standard_normal((20, 3))
    hvp = (lambda i, x, v: w[i] * (3.0 * x * x - 1.0) * v) if with_hvp else None
    return CustomProblem(
        3, 20,
        value=lambda i, x: float(0.25 * w[i] * np.sum((x * x - 1.0) ** 2) + 0.1 * C[i] @ x),
        gradient=lambda i, x: w[i] * (x * x - 1.0) * x + 0.1 * C[i],
        hvp=hvp,
    )


def growth_case(kind):
    """A problem and its points for the growth-loop grid."""
    if kind in ("custom", "custom_hvp"):
        return weighted_double_well(kind == "custom_hvp"), [np.zeros(3), np.full(3, 0.3)]
    if kind == "sigmoid":
        return sigmoid_problem(seed=7, N=300, d=6), [np.zeros(6), np.full(6, 0.2)]
    spec = NetworkSpec(20, (6,))
    prob = SquaredLossProblem(synthesize_dataset(8, 40, 20, 3.0), spec)
    return prob, [initial_point(spec, np.random.default_rng(0))]


GROWTH_GRID = [
    (kind, q) for kind in ("sigmoid", "net", "custom", "custom_hvp") for q in (1, 2)
]


def growth_configs(q):
    """(omega, sigma, config) triples for the growth-loop grid.

    With kappa = 3e-3 every case grows both samples to N, and H reaches N
    one pass before G, so a solve keeps the previous Hessian.  With the
    loose inner tolerance eps1 = 1 the loop accepts partial samples.
    """
    eps2 = 1e-2 if q == 2 else None
    return [
        (0.4, 0.1, SolverConfig(p=2, q=q, eps2=eps2, kappa=3e-3)),
        (0.4, 1.0, SolverConfig(p=2, q=q, eps2=eps2, kappa=1e-3, eps1=1.0)),
    ]


class TestGrowthLoopReuse:
    """The order-two loop reuses unchanged work and matches the loop that
    rebuilds every pass bit for bit."""

    @pytest.mark.parametrize("kind,q", GROWTH_GRID)
    def test_matches_the_rebuilding_loop(self, kind, q):
        prob, points = growth_case(kind)
        for x in points:
            for omega, sigma, cfg in growth_configs(q):
                rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                got = _grow_model_and_step(prob, x, omega, sigma, cfg, rng, {})
                ref = grow_model_and_step_rebuild(prob, x, omega, sigma, cfg, ref_rng, {})
                g, g_idx, h_idx, s, quantities, hvp_props, passes, hessian = got
                assert g.tobytes() == ref[0].tobytes()
                np.testing.assert_array_equal(g_idx, ref[1])
                np.testing.assert_array_equal(h_idx, ref[2])
                assert s.tobytes() == ref[3].tobytes()
                assert repr(dataclasses.astuple(quantities)) == repr(dataclasses.astuple(ref[4]))
                assert (hvp_props, passes) == (ref[5], ref[6])
                assert hessian.dense().tobytes() == ref[7].dense().tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind,q", GROWTH_GRID)
    def test_one_build_per_sample_and_one_solve_per_pair(self, kind, q, monkeypatch):
        prob, points = growth_case(kind)
        builds, solves = [], []  # (sample size, SampleHessian); (g bytes, H sample size)
        build = prob.hessian_action

        def counted_build(indices, x, base=None):
            builds.append((len(indices), build(indices, x, base)))
            return builds[-1][1]

        def counted_solve(model, *args):
            size = next(m for m, h in builds if h is model.hessian_action)
            solves.append((model.grad.tobytes(), size))
            return cubic_step(model, *args)

        cubic_step = solver_module.cubic_step
        monkeypatch.setattr(prob, "hessian_action", counted_build)
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        repeated = kept = False
        for x in points:
            for omega, sigma, cfg in growth_configs(q):
                builds.clear()
                solves.clear()
                passes = _grow_model_and_step(
                    prob, x, omega, sigma, cfg, np.random.default_rng(3), {}
                )[6]
                # Samples grow only by extension: a new size is a new sample.
                sizes = [size for size, _ in builds]
                assert len(sizes) == len(set(sizes))
                assert len(solves) == len(set(solves))
                repeated = repeated or passes > len(solves)
                kept = kept or len(solves) > len(builds)
        assert repeated  # some pass grew neither sample
        assert kept  # some solve kept the previous pass's Hessian

    @pytest.mark.parametrize(
        "case,stop",
        [
            (dict(p=2, q=2, eps1=1e-3, eps2=1e-2, budget_cm=3000.0, seed=1), "converged"),
            (dict(p=2, q=1, eps1=1e-3, budget_cm=300.0, seed=2), "converged"),
            (dict(p=2, q=2, eps1=1e-3, eps2=1e-2, budget_cm=100.0, seed=3), "budget"),
        ],
    )
    def test_traces_match_the_rebuilding_loop(self, case, stop, tmp_path, monkeypatch):
        prob = sigmoid_problem(seed=7, N=300, d=6)
        res = minimize(prob, SolverConfig(**case))
        monkeypatch.setattr(solver_module, "_grow_model_and_step", grow_model_and_step_rebuild)
        ref = minimize(prob, SolverConfig(**case))
        assert res.stop_reason == ref.stop_reason == stop
        assert res.x.tobytes() == ref.x.tobytes()
        write_trace(tmp_path / "got.csv", res.trace)
        write_trace(tmp_path / "ref.csv", ref.trace)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestBaseGradient:
    """The Hessian sample's gradient is computed only for a differenced action."""

    @pytest.mark.parametrize("kind,q", GROWTH_GRID)
    def test_gradient_rows(self, kind, q, monkeypatch):
        prob, points = growth_case(kind)
        seen = []
        gradient_mean = prob.gradient_mean

        def counted(indices, x):
            # Differenced actions also read gradients at shifted points.
            if np.asarray(x).tobytes() == point.tobytes():
                seen.append(np.asarray(indices).copy())
            return gradient_mean(indices, x)

        monkeypatch.setattr(prob, "gradient_mean", counted)
        for point in points:
            for omega, sigma, cfg in growth_configs(q):
                seen.clear()
                got = _grow_model_and_step(
                    prob, point, omega, sigma, cfg, np.random.default_rng(3), {}
                )
                g_idx, h_idx = got[1], got[2]
                rows = np.sort(np.concatenate(seen))
                if kind in ("sigmoid", "custom_hvp"):
                    # Exact actions: the G sample's pieces, each once.
                    np.testing.assert_array_equal(rows, g_idx)
                elif rows.size == g_idx.size:
                    # Differenced, two full draws sharing one evaluation.
                    assert g_idx.size == h_idx.size == prob.N
                else:
                    # Differenced: G's pieces and H's.
                    np.testing.assert_array_equal(rows, np.sort(np.concatenate([g_idx, h_idx])))
