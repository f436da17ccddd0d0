import math

import numpy as np
import pytest

from subreg.finite_sum import CustomProblem, full_gradient, full_value
from subreg.problems import NetworkSpec, SquaredLossProblem
from subreg.solver import (
    CostMeter,
    SolverConfig,
    SolverStallError,
    _grow_gradient,
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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

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


class TestGradientGrowthLoop:
    def test_halving_count_frozen(self):
        # constant gradient of norm 0.1 with omega = 0.2: the target halves
        # from 0.5 until 0.015625 <= 0.02, i.e. five times over six passes
        g0 = np.array([0.1, 0.0])
        prob = CustomProblem(2, 1000, value=lambda i, x: float(g0 @ x),
                             gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        g, idx, passes = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(g, g0)
        assert passes == 6

    def test_immediate_accept_on_large_gradient(self):
        g0 = np.array([10.0, 0.0])
        prob = CustomProblem(2, 1000, value=lambda i, x: float(g0 @ x),
                             gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        _, _, passes = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0))
        assert passes == 1

    def test_full_sample_bypasses_test(self):
        g0 = np.zeros(2)  # zero gradient: only the full-sample exit applies
        prob = CustomProblem(2, 50, value=lambda i, x: 0.0, gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        g, idx, _ = _grow_gradient(prob, np.zeros(2), 0.2, cfg, np.random.default_rng(0))
        assert idx.size == 50

    def test_degenerate_model_loop_runs_to_full_sample(self):
        # zero decrease forces the targets to zero, so the order-2 growth
        # loop must exhaust both samples before accepting
        from subreg.solver import _grow_model_and_step

        prob = CustomProblem(
            2, 30,
            value=lambda i, x: 1.0,
            gradient=lambda i, x: np.zeros(2),
            hvp=lambda i, x, v: np.zeros(2),
        )
        cfg = SolverConfig(p=2, kappa=1e-2)
        g, g_idx, h_idx, s, quantities, _, passes, _ = _grow_model_and_step(
            prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0)
        )
        assert g_idx.size == 30 and h_idx.size == 30
        assert quantities.delta_t_min == 0.0
        np.testing.assert_array_equal(s, np.zeros(2))
