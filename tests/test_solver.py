import math

import numpy as np
import pytest
from oracles import grow_gradient_reference, grow_model_and_step_rebuild

import subreg.solver as solver_module
import subreg.subproblem as subproblem_module
from subreg.finite_sum import CustomProblem, full_gradient, full_value
from subreg.harness import synthesize_dataset, write_trace
from subreg.model import RegularisedModel
from subreg.optimality import DENSE_MAX_N, cubic_minimiser, dense_path
from subreg.problems import NetworkSpec, SquaredLossProblem, initial_point
from subreg.sampling import bernstein_size, gradient_log_argument, hessian_log_argument
from subreg.solver import (
    CostMeter,
    SolverConfig,
    SolverStallError,
    _grow_and_step,
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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    @pytest.mark.parametrize("field", ["budget_cm", "eps1", "eps2", "gamma", "kappa", "kappa_eps"])
    def test_nan_rejected(self, field):
        # Every comparison with NaN is false: an unchecked NaN budget never
        # stops the run, kappa makes every sample full, eps1 ends termination.
        cfg = SolverConfig(**{**dict(p=2, q=2, eps2=1e-3), field: math.nan})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_infinite_budget_valid(self):
        SolverConfig(budget_cm=math.inf).validate()

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
        cfg = SolverConfig(eps1=0.0, max_iters=500, **EXACT)
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

    def test_exact_losses_suppressed_above_threshold(self, monkeypatch):
        monkeypatch.setattr(solver_module, "EXACT_LOSS_THRESHOLD", 50)
        prob = sigmoid_problem(seed=43, N=120, d=4)
        res = minimize(prob, SolverConfig(budget_cm=2.0, seed=0))
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

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("where", ["first", "all"])
    def test_non_finite_x0_refused(self, p, q, bad, where):
        # x0 = [inf, 0, 0, 0, 0] saturated the sigmoid, whose gradient is 0
        # there: the run returned "converged" after 0 iterations with x[0] =
        # inf.  An all-inf x0 warned in the row product and then raised
        # FloatingPointError.
        prob = sigmoid_problem(seed=1, N=300, d=5, separation=2.0)
        x0 = np.zeros(5)
        x0[:1 if where == "first" else None] = bad
        cfg = SolverConfig(p=p, q=q, eps2=1e-3 if q == 2 else None, budget_cm=5.0, seed=1)
        with pytest.raises(ValueError, match="x0 must be finite"):
            minimize(prob, cfg, x0=x0)


class TestHugeRegulariser:
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("sigma0", [1e10, 1e150, 1e300])
    def test_runs_without_a_warning(self, sigma0, q):
        # At sigma0 = 1e300 a line-search trial of the cubic solve overflows
        # (a spectral step of 1e10 after ds @ dg underflows to 0); the trial
        # is rejected, and tier-1 turns any warning it emits into an error.
        prob = sigmoid_problem(seed=0, N=300, d=5)
        eps2 = 1e-3 if q == 2 else None
        res = minimize(prob, SolverConfig(p=2, q=q, eps2=eps2, sigma0=sigma0, budget_cm=5.0))
        assert res.stop_reason == "budget"
        assert np.isfinite(res.x).all()


def poisoned_hvp_problem():
    """``poisoned_problem`` with an exact Hessian whose index-3 action is NaN."""
    prob = poisoned_problem("none")
    prob._hvp = lambda i, x, v: np.full(3, math.nan) if i == 3 else 2.0 * v
    return prob


class TestNonFiniteHessian:
    @pytest.mark.parametrize("q", [1, 2])
    def test_non_finite_hessian_estimate_raises(self, q):
        # The q = 1 run used to finish on budget at x = 0, and the q = 2 run
        # to die inside the eigensolver.
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
        step = _grow_and_step(prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0), {})
        np.testing.assert_allclose(step.g, g0)
        assert step.passes == 6

    def test_immediate_accept_on_large_gradient(self):
        g0 = np.array([10.0, 0.0])
        prob = CustomProblem(2, 1000, value=lambda i, x: float(g0 @ x),
                             gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        step = _grow_and_step(prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0), {})
        assert step.passes == 1

    def test_full_sample_bypasses_test(self):
        g0 = np.zeros(2)  # zero gradient: only the full-sample exit applies
        prob = CustomProblem(2, 50, value=lambda i, x: 0.0, gradient=lambda i, x: g0.copy())
        cfg = SolverConfig(kappa=1e-2)
        step = _grow_and_step(prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0), {})
        assert step.g_idx.size == 50

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
        step = _grow_and_step(
            prob, np.zeros(2), 0.2, 0.1, cfg, np.random.default_rng(0), {}
        )
        assert step.g_idx.size == 30 and step.h_idx.size == 30
        assert step.delta_t == 0.0
        np.testing.assert_array_equal(step.s, np.zeros(2))


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
        step = _grow_and_step(
            prob, np.full(4, 0.1), 0.2, 0.1, cfg, np.random.default_rng(0), {}
        )
        assert step.g_idx.size == step.h_idx.size == prob.N
        assert prob.full_gradients == 1
        np.testing.assert_array_equal(step.g, full_gradient(prob, np.full(4, 0.1)))


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


def count_full_builds(prob, monkeypatch):
    """The full-set ``SampleHessian``s whose dense matrix was asked for,
    one entry each however often it was asked: one Gram build each."""
    built = []
    build = prob.hessian_action

    def counted(indices, x, base=None):
        hessian = build(indices, x, base)
        if len(indices) == prob.N:
            dense = hessian.dense

            def counted_dense():
                if all(h is not hessian for h in built):
                    built.append(hessian)
                return dense()

            hessian.dense = counted_dense
        return hessian

    monkeypatch.setattr(prob, "hessian_action", counted)
    return built


def full_hessian_starts(res, N):
    """For each iteration whose Hessian sample is the full set, the number
    of accepted steps before it: iterations with equal numbers start at
    the same x."""
    starts, successes = [], 0
    for e in res.trace:
        if e.h_size == N:
            starts.append(successes)
        successes += e.success
    return starts


class TestOneHessianPerIterate:
    """An exact full-sample Hessian is built once per iterate; a rejected
    step reads it back.  A differenced one is rebuilt, since its base
    gradient's bits depend on how the sample grew."""

    def test_rejected_step_reuses_the_full_gram(self, monkeypatch):
        # The q2_sigmoid benchmark workload's problem and settings, with
        # exact samples, so that H is the full set at every step, from a
        # start where some steps are rejected.
        N, d = 20_000, 50
        prob = SquaredLossProblem(synthesize_dataset(3, N, d, 1.0), NetworkSpec(d))
        built = count_full_builds(prob, monkeypatch)
        cfg = SolverConfig(p=2, q=2, eps2=1e-3, budget_cm=1200.0, seed=5, **EXACT)
        res = minimize(prob, cfg, x0=np.ones(d))
        starts = full_hessian_starts(res, N)
        assert len(starts) > len(set(starts))  # a rejected step kept H at N
        assert len(built) == len(set(starts))

    @pytest.mark.parametrize("with_hvp", [True, False])
    def test_custom_problem(self, with_hvp, monkeypatch):
        prob = weighted_double_well(with_hvp)
        built = count_full_builds(prob, monkeypatch)
        cfg = SolverConfig(p=2, q=2, eps1=1e-4, eps2=1e-3, budget_cm=1e4, **EXACT)
        res = minimize(prob, cfg, x0=np.full(3, 0.1))
        starts = full_hessian_starts(res, prob.N)
        assert len(starts) > len(set(starts))
        assert len(built) == (len(set(starts)) if with_hvp else len(starts))


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


def full_hessian_first_kappa(prob, t=0.2, eps=0.5):
    """A kappa whose first draws at accuracy ``eps`` are the full set for
    H and a partial set for G: the Hessian's Bernstein size has the larger
    log argument, 2n/t against (n+1)/t."""
    glog, hlog = gradient_log_argument(prob.n, t), hessian_log_argument(prob.n, t)
    return next(
        kappa for kappa in np.geomspace(1e-3, 1e2, 4000)
        if bernstein_size(kappa, eps, t, glog, prob.N) < prob.N
        and bernstein_size(kappa, eps, t, hlog, prob.N) == prob.N
    )


def growth_configs(q, prob):
    """(omega, sigma, config) triples for the growth-loop grid.

    With the first config the first H draw is the full set and the first
    G draw is not; the step's targets then ask for more, so G grows to N
    and its solve keeps the previous Hessian.  With the loose inner
    tolerance eps1 = 1 the loop accepts partial samples after a pass that
    grew neither.
    """
    eps2 = 1e-2 if q == 2 else None
    kappa = full_hessian_first_kappa(prob)
    return [
        (0.4, 0.1, SolverConfig(p=2, q=q, eps2=eps2, kappa=kappa)),
        (0.4, 1.0, SolverConfig(p=2, q=q, eps2=eps2, kappa=1e-3, eps1=1.0)),
    ]


class TestGrowthLoopReuse:
    """The order-two loop reuses unchanged work and matches the loop that
    rebuilds every pass bit for bit."""

    @pytest.mark.parametrize("kind,q", GROWTH_GRID)
    def test_matches_the_rebuilding_loop(self, kind, q):
        prob, points = growth_case(kind)
        for x in points:
            for omega, sigma, cfg in growth_configs(q, prob):
                rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                got = _grow_and_step(prob, x, omega, sigma, cfg, rng, {})
                ref = grow_model_and_step_rebuild(prob, x, omega, sigma, cfg, ref_rng, {})
                for name in ("g", "g_idx", "h_idx", "s"):
                    got_array, ref_array = getattr(got, name), getattr(ref, name)
                    assert got_array.dtype == ref_array.dtype
                    assert got_array.tobytes() == ref_array.tobytes()
                assert repr(got.delta_t) == repr(ref.delta_t)
                assert (got.hvp_props, got.passes, got.converged) == (
                    ref.hvp_props, ref.passes, ref.converged
                )
                assert got.hessian.dense().tobytes() == ref.hessian.dense().tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind,q", GROWTH_GRID)
    def test_one_build_per_sample_and_one_solve_per_pair(self, kind, q, monkeypatch):
        prob, points = growth_case(kind)
        # (sample size, SampleHessian); (g bytes, H sample size, eps2 given)
        builds, solves = [], []
        build = prob.hessian_action

        def counted_build(indices, x, base=None):
            builds.append((len(indices), build(indices, x, base)))
            return builds[-1][1]

        def counted_solve(model, eps1, theta, eps2):
            size = next(m for m, h in builds if h is model.hessian_action)
            solves.append((model.grad.tobytes(), size, eps2 is not None))
            return cubic_step(model, eps1, theta, eps2)

        cubic_step = solver_module.cubic_step
        monkeypatch.setattr(prob, "hessian_action", counted_build)
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        repeated = kept = False
        for x in points:
            for omega, sigma, cfg in growth_configs(q, prob):
                builds.clear()
                solves.clear()
                passes = _grow_and_step(
                    prob, x, omega, sigma, cfg, np.random.default_rng(3), {}
                ).passes
                # Samples grow only by extension: a new size is a new sample.
                sizes = [size for size, _ in builds]
                assert len(sizes) == len(set(sizes))
                assert len(solves) == len(set(solves))
                # At q = 2 the loop ends on a step with eps2, taken at most
                # once per pair: after the sizing solve on it, or at once on
                # full samples.
                sizing = [(g, size) for g, size, taken in solves if not taken]
                assert all((g, size) in sizing or size == prob.N for g, size, taken in solves if taken)
                assert solves[-1][2] == (q == 2)
                pairs = {(g, size) for g, size, _ in solves}
                repeated = repeated or passes > len(pairs)
                kept = kept or len(pairs) > len(builds)
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
        monkeypatch.setattr(solver_module, "_grow_and_step", grow_model_and_step_rebuild)
        ref = minimize(prob, SolverConfig(**case))
        assert res.stop_reason == ref.stop_reason == stop
        assert res.x.tobytes() == ref.x.tobytes()
        write_trace(tmp_path / "got.csv", res.trace)
        write_trace(tmp_path / "ref.csv", ref.trace)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def q2_sigmoid_problem():
    """The q2_sigmoid benchmark workload's first problem: 20000 x 50."""
    return SquaredLossProblem(synthesize_dataset(1000, 20_000, 50, 1.0), NetworkSpec(50))


class TestOrderTwoTargets:
    """p = 2 samples are sized from the predicted decrease at the step."""

    def test_budget_overrun_at_eps1_zero(self, q2_sigmoid_problem):
        # At eps1 = 0 the budget is checked between iterations only.
        # Targets from model measures at the step drove the first iteration
        # through every growth pass to the full sums, and charged a median
        # of 5338 CM over these seeds against the 20 CM budget: 44.7 CM
        # with targets from the predicted decrease and spectral-gradient
        # solves run to their iteration cap, and 55.0 CM with exact solves
        # on every pass, as now, where each pass's sizing solve spans the
        # space (n columns) and the q = 2 step continuing it asks nothing.
        cfg = dict(p=2, q=2, eps1=0.0, eps2=1e-3, budget_cm=20.0)
        charged = [
            minimize(q2_sigmoid_problem, SolverConfig(seed=seed, **cfg)).total_cm
            for seed in range(1000, 1010)
        ]
        assert np.median(charged) <= 100.0

    def test_accepted_steps_on_partial_hessian_samples(self, q2_sigmoid_problem):
        spec = NetworkSpec(10, (5,))
        net = SquaredLossProblem(synthesize_dataset(3, 600, 10, 2.0), spec)
        runs = [
            (q2_sigmoid_problem, None, dict(q=2, eps2=1e-3, budget_cm=1200.0, seed=1000)),
            (net, initial_point(spec, np.random.default_rng(0)), dict(budget_cm=500.0, seed=0)),
        ]
        for prob, x0, cfg in runs:
            res = minimize(prob, SolverConfig(p=2, **cfg), x0=x0)
            assert any(e.success and e.h_size < prob.N for e in res.trace)


def small_net_problem():
    """A 6-4-1 tanh net (n = 33) on 300 samples, with its start."""
    spec = NetworkSpec(6, (4,))
    prob = SquaredLossProblem(synthesize_dataset(3, 300, 6, 2.0), spec)
    return prob, initial_point(spec, np.random.default_rng(0))


class TestSizingPasses:
    """At q = 2 every pass sizes the samples from a subspace step, and only
    a pass whose targets hold takes the q = 2 step."""

    @staticmethod
    def recorded_solves(prob, monkeypatch):
        """Per cubic_step call: the H sample size, eps2 and the diagnostics."""
        sizes, solves = {}, []
        build, solve = prob.hessian_action, solver_module.cubic_step

        def counted_build(indices, x, base=None):
            hessian = build(indices, x, base)
            sizes[id(hessian)] = len(indices)
            return hessian

        def counted_solve(model, eps1, theta, eps2):
            s, diag = solve(model, eps1, theta, eps2)
            solves.append((sizes[id(model.hessian_action)], eps2, diag))
            return s, diag

        monkeypatch.setattr(prob, "hessian_action", counted_build)
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        return solves

    @pytest.mark.parametrize("kind", ["sigmoid", "net", "custom", "custom_hvp"])
    def test_taken_step_is_the_exact_minimiser_of_the_last_sample(self, kind):
        prob, points = growth_case(kind)
        for x in points:
            for omega, sigma, cfg in growth_configs(2, prob):
                step = _grow_and_step(prob, x, omega, sigma, cfg, np.random.default_rng(3), {})
                exact = cubic_minimiser(step.g, step.hessian.eigh(), sigma)
                assert step.s.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("kind", ["sigmoid", "net", "custom", "custom_hvp"])
    def test_hvp_props_sums_every_solve(self, kind, monkeypatch):
        # Sizing solves are charged the columns they ask, the exact step
        # the matrix's n columns, each times the Hessian sample's size.
        prob, points = growth_case(kind)
        solves = self.recorded_solves(prob, monkeypatch)
        for x in points:
            for omega, sigma, cfg in growth_configs(2, prob):
                solves.clear()
                step = _grow_and_step(prob, x, omega, sigma, cfg, np.random.default_rng(3), {})
                exact = [(size, diag) for size, eps2, diag in solves if eps2 is not None]
                sizing = [(size, diag) for size, eps2, diag in solves if eps2 is None]
                assert exact and all(diag["hvp_evals"] == prob.n for _, diag in exact)
                assert all(diag["hvp_evals"] <= prob.n for _, diag in sizing)
                charged = sum(size * diag["hvp_evals"] for size, diag in exact + sizing)
                assert step.hvp_props == charged

    def test_q2_step_above_dense_max_n_continues_the_sizing_solve(self, monkeypatch):
        # Above DENSE_MAX_N the q = 2 step a pass takes continues the
        # sizing solve on the same model: it returns what a solve from
        # scratch returns and asks only the columns the sizing solve did not.
        prob = sigmoid_problem(seed=7, N=300, d=DENSE_MAX_N + 1)
        solve = solver_module.cubic_step
        sizing, continued = {}, []

        def counted_solve(model, eps1, theta, eps2):
            s, diag = solve(model, eps1, theta, eps2)
            if eps2 is None:
                sizing[id(model)] = (model, diag)  # kept alive: ids stay unique
            elif id(model) in sizing:
                first = sizing.pop(id(model))[1]
                fresh = RegularisedModel(model.grad, model.sigma, model.hessian_action)
                s_scratch, scratch = solve(fresh, eps1, theta, eps2)
                assert s.tobytes() == s_scratch.tobytes()
                assert first["hvp_evals"] + diag["hvp_evals"] == scratch["hvp_evals"]
                continued.append(diag)
            return s, diag

        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        cfg = SolverConfig(p=2, q=2, eps1=0.1, eps2=1e-2, kappa=1e-3, budget_cm=100.0, seed=3)
        minimize(prob, cfg)
        assert continued and any(diag["hvp_evals"] for diag in continued)

    def test_one_gram_build_per_iteration(self, q2_sigmoid_problem, monkeypatch):
        # Sizing solves answer their columns from the sample's rows: the
        # Gram matrix is built for the samples an exact step or the
        # termination test's phi_2 reads.
        solves = self.recorded_solves(q2_sigmoid_problem, monkeypatch)
        grams = []
        build = q2_sigmoid_problem.hessian_action

        def counted(indices, x, base=None):
            hessian = build(indices, x, base)
            dense = hessian.dense
            hessian.dense = lambda: (grams.append(1) if hessian._dense is None else None, dense())[1]
            return hessian

        monkeypatch.setattr(q2_sigmoid_problem, "hessian_action", counted)
        cfg = SolverConfig(p=2, q=2, eps2=1e-3, budget_cm=1200.0, seed=1000)
        res = minimize(q2_sigmoid_problem, cfg)
        assert res.stop_reason == "converged"
        # Every iteration but the converged one takes an exact step, and a
        # rejected step's full sample keeps its matrix for the next.  The
        # converged iteration tests full samples before its step and takes
        # none: its phi_2 builds the one matrix no step reads.
        exact = sum(eps2 is not None for _, eps2, _ in solves)
        assert len(res.trace) == res.iterations + 1
        assert res.iterations <= exact <= res.iterations + 2
        assert res.successes < res.iterations and len(grams) < exact + 1
        assert sum(eps2 is None for _, eps2, _ in solves) > len(grams)


class TestTerminationBeforeTheStep:
    """At p = 2 a growth pass on full samples tests termination before its
    step: an iteration whose test holds takes no step and is charged only
    its sizing solves, and one whose test fails takes its step on the
    decomposition phi_2 built."""

    @staticmethod
    def solves_per_iteration(prob, monkeypatch):
        """Per growth loop, the (H sample size, eps2, diagnostics) of each
        cubic_step call."""
        solves = TestSizingPasses.recorded_solves(prob, monkeypatch)
        loops, grow = [], solver_module._grow_and_step

        def counted_grow(*args):
            start = len(solves)
            step = grow(*args)
            loops.append(solves[start:])
            return step

        monkeypatch.setattr(solver_module, "_grow_and_step", counted_grow)
        return loops

    @pytest.mark.parametrize("q", [1, 2])
    def test_converged_iteration_takes_no_step(self, q, q2_sigmoid_problem, monkeypatch):
        prob = q2_sigmoid_problem
        loops = self.solves_per_iteration(prob, monkeypatch)
        cfg = SolverConfig(p=2, q=q, eps2=1e-3 if q == 2 else None, budget_cm=1200.0, seed=1000)
        res = minimize(prob, cfg)
        last = res.trace[-1]
        assert res.stop_reason == "converged" and last.g_size == last.h_size == prob.N
        assert len(loops) == len(res.trace)
        # Every iteration before the last ends on the step it takes (at
        # q = 2 one with eps2); the last one solves only to size its
        # samples, on partial ones.
        assert all(loop and loop[-1][1] == cfg.eps2 for loop in loops[:-1])
        assert loops[-1] and all(size < prob.N and eps2 is None for size, eps2, _ in loops[-1])
        assert last.hvp_props == sum(size * diag["hvp_evals"] for size, _, diag in loops[-1])
        cm = 0.0
        for e in res.trace:
            cm += iteration_charge(
                prob.N, e.d1_size, e.d2_size, e.g_size, e.g_d1_overlap,
                e.h_size, e.h_g_overlap, e.hvp_props,
            )
            assert cm == e.cm

    def test_failed_test_leaves_its_decomposition_to_the_step(self, monkeypatch):
        # From x = 0.1 every double well curves downward: the gradient
        # meets eps1 = 1 and phi_2 fails eps2.
        prob, x = double_well_problem(), np.full(3, 0.1)
        calls, decompositions = [], []
        phi_2, solve, eigh = solver_module.phi_2, solver_module.cubic_step, np.linalg.eigh
        monkeypatch.setattr(solver_module, "phi_2", lambda *args: (calls.append("phi_2"), phi_2(*args))[1])
        monkeypatch.setattr(
            solver_module, "cubic_step",
            lambda model, *args: (calls.append(("step", args[-1])), solve(model, *args))[1],
        )
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (decompositions.append(A), eigh(A))[1])
        cfg = SolverConfig(p=2, q=2, eps1=1.0, eps2=1e-2, **EXACT)
        step = _grow_and_step(prob, x, 0.4, 0.1, cfg, np.random.default_rng(3), {})
        assert step.converged is False
        assert calls == ["phi_2", ("step", 1e-2)]
        assert len(decompositions) == 1 and decompositions[0] is step.hessian.dense()
        assert step.s.tobytes() == cubic_minimiser(step.g, step.hessian.eigh(), 0.1).tobytes()
        assert step.hvp_props == prob.n * prob.N

    def test_phi_2_once_per_iteration(self, monkeypatch):
        # Each of these full-sample iterations meets eps1 and measures
        # phi_2 once, before its step; none measures it again after.
        prob = double_well_problem()
        measured, phi_2, grow = [], solver_module.phi_2, solver_module._grow_and_step
        monkeypatch.setattr(
            solver_module, "phi_2", lambda *args: (measured.append(None), phi_2(*args))[1]
        )
        monkeypatch.setattr(
            solver_module, "_grow_and_step", lambda *args: (measured.append("loop"), grow(*args))[1]
        )
        cfg = SolverConfig(p=2, q=2, eps1=1.0, eps2=1e-2, budget_cm=500.0, seed=3, **EXACT)
        res = minimize(prob, cfg, x0=np.full(3, 0.1))
        assert res.stop_reason == "converged"
        assert measured == ["loop", None] * len(res.trace)

    @pytest.mark.parametrize(
        "case,stop",
        [
            (dict(budget_cm=5.0, seed=3), "budget"),
            (dict(eps1=2e-2, kappa=1e-1, budget_cm=500.0, seed=1), "converged"),
        ],
    )
    def test_order_one_traces_keep_their_bytes(self, case, stop, tmp_path, monkeypatch):
        # At p = 1 the test follows the quadratic step: the order-one
        # reference loop, which tests after its step, writes the same trace.
        prob = sigmoid_problem(seed=29, N=250, d=6)
        res = minimize(prob, SolverConfig(**case))
        monkeypatch.setattr(solver_module, "_grow_and_step", grow_gradient_reference)
        ref = minimize(prob, SolverConfig(**case))
        assert res.stop_reason == ref.stop_reason == stop
        write_trace(tmp_path / "got.csv", res.trace)
        write_trace(tmp_path / "ref.csv", ref.trace)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def wide_net_problem():
    """A 20-10-1 tanh net (n = 221, above DENSE_MAX_N) on 300 samples, with its start."""
    spec = NetworkSpec(20, (10,))
    prob = SquaredLossProblem(synthesize_dataset(3, 300, 20, 2.0), spec)
    return prob, initial_point(spec, np.random.default_rng(0))


class TestPerSolveBound:
    """A subspace solve asks at most n columns, one per basis vector, plus
    those of the curvature measures of its eigenvector additions above
    DENSE_MAX_N, even at eps1 = 0, where no tolerance stops it; only the
    budget check between iterations is left unbounded.  On the dense path
    a q = 2 step is exact, n columns, or continues a sizing solve whose
    basis spans the space and asks none.  Above DENSE_MAX_N each
    curvature measure asks at most n basis columns, and phi_2 the 4 of
    its symmetry check besides."""

    CASES = ["q2_sigmoid", "net", "custom", "wide", "wide_net"]

    @staticmethod
    def count_measures(monkeypatch, module, measured):
        """Wrap ``module``'s phi_2 and leftmost_eigenpair so that each call
        appends the columns it asks to ``measured``."""
        for name in ("phi_2", "leftmost_eigenpair"):
            measure = getattr(module, name, None)
            if measure is None:
                continue

            def counted(*args, measure=measure, at=-2 if name == "phi_2" else 0):
                args, columns = list(args), []
                action = args[at]
                args[at] = lambda v: (columns.append(1 if v.ndim == 1 else v.shape[1]), action(v))[1]
                out = measure(*args)
                measured.append(sum(columns))
                return out

            monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("q", [1, 2])
    def test_columns_per_solve_at_eps1_zero(self, case, q, q2_sigmoid_problem, monkeypatch):
        x0 = None
        if case == "q2_sigmoid":
            prob = q2_sigmoid_problem
        elif case == "net":
            prob, x0 = small_net_problem()
        elif case == "wide_net":
            prob, x0 = wide_net_problem()
        elif case == "custom":
            prob, x0 = weighted_double_well(False), np.full(3, 0.1)
        else:
            prob = sigmoid_problem(seed=1, N=400, d=205)
        n = prob.n
        solves, measured = [], []
        solve = solver_module.cubic_step

        def counted_solve(model, eps1, theta, eps2):
            before = model.hessian_action.columns
            start = len(measured)
            s, diag = solve(model, eps1, theta, eps2)
            assert diag["hvp_evals"] == model.hessian_action.columns - before
            solves.append((eps2 is not None, diag, sum(measured[start:])))
            return s, diag

        self.count_measures(monkeypatch, subproblem_module, measured)
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        cfg = SolverConfig(p=2, q=q, eps1=0.0, eps2=1e-3 if q == 2 else None, budget_cm=20.0, seed=1000)
        res = minimize(prob, cfg, x0=x0)
        assert res.stop_reason == "budget"
        assert all(diag["hvp_evals"] <= n + extra for _, diag, extra in solves)
        assert all(diag["iterations"] + diag["escapes"] <= n for _, diag, _ in solves)
        assert all(columns <= n + 4 for columns in measured)
        if q == 2 and dense_path(n):
            steps = [diag for order_two, diag, _ in solves if order_two]
            assert all(diag["iterations"] == 0 and diag["hvp_evals"] in (0, n) for diag in steps)

    @pytest.mark.parametrize("case", ["wide", "wide_net"])
    def test_columns_per_curvature_measure_above_dense_max_n(self, case, monkeypatch):
        # At eps1 = 0 no solve meets its first-order test, so neither the
        # solves nor the termination test measure curvature; a run that
        # converges asks both.
        prob, x0 = wide_net_problem() if case == "wide_net" else (sigmoid_problem(seed=1, N=400, d=205), None)
        n = prob.n
        measured = {}
        for module in (subproblem_module, solver_module):
            self.count_measures(monkeypatch, module, measured.setdefault(module.__name__, []))
        cfg = SolverConfig(p=2, q=2, eps1=0.1, eps2=0.1, budget_cm=3000.0, seed=1000)
        assert minimize(prob, cfg, x0=x0).stop_reason == "converged"
        assert all(measured.values())
        assert all(columns <= n + 4 for calls in measured.values() for columns in calls)

    def test_escape_probe_grows_one_basis(self, monkeypatch):
        # At eps2 = 1e-2 the first solve's phi_2 exceeds theta * eps2 at its
        # step, so it probes an escape.  The leftmost eigenpair it reads is
        # that phi_2's own: no solve grows a second basis for it.
        prob = sigmoid_problem(seed=1, N=400, d=205)
        measured, values, pairs = [], [], []
        self.count_measures(monkeypatch, subproblem_module, measured)
        measure, pair = subproblem_module.phi_2, subproblem_module.leftmost_eigenpair

        def valued(*args):
            result = measure(*args)
            values.append(result.value)
            return result

        monkeypatch.setattr(subproblem_module, "phi_2", valued)
        monkeypatch.setattr(
            subproblem_module, "leftmost_eigenpair", lambda *args: pairs.append(1) or pair(*args)
        )
        cfg = SolverConfig(p=2, q=2, eps1=0.1, eps2=1e-2, budget_cm=300.0, seed=1000)
        minimize(prob, cfg)
        assert max(values) > cfg.theta * cfg.eps2
        assert pairs == []
        assert all(columns <= prob.n + 4 for columns in measured)


class TestOrderOneGrowth:
    """At p = 1 the shared loop is the order-one loop it replaced, bit for bit."""

    @pytest.mark.parametrize("kind", sorted({kind for kind, _ in GROWTH_GRID}))
    @pytest.mark.parametrize("kappa", [1e-2, 1e-1])
    def test_matches_the_reference_loop(self, kind, kappa):
        # Between them the cases stop on the relative test with partial
        # samples and on the full sum.
        prob, points = growth_case(kind)
        cfg = SolverConfig(kappa=kappa)
        for x in points:
            for omega, sigma in ((0.4, 0.1), (0.05, 1.0)):
                rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                got = _grow_and_step(prob, x, omega, sigma, cfg, rng, {})
                ref = grow_gradient_reference(prob, x, omega, sigma, cfg, ref_rng, {})
                for name in ("g", "g_idx", "h_idx", "s"):
                    got_array, ref_array = getattr(got, name), getattr(ref, name)
                    assert got_array.dtype == ref_array.dtype
                    assert got_array.tobytes() == ref_array.tobytes()
                assert repr(got.delta_t) == repr(ref.delta_t)
                assert (got.hvp_props, got.passes, got.hessian) == (0, ref.passes, None)
                assert got.converged == ref.converged
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestStepMeasures:
    """A growth pass takes its step's measures from the solve."""

    @staticmethod
    def columns_outside_the_solve(prob, cfg, monkeypatch):
        """Per growth loop, the Hessian columns asked outside cubic_step,
        and every solve's eps2 and diagnostics."""
        built, solved, outside, reports = [], [], [], []
        build = prob.hessian_action
        solve, grow = solver_module.cubic_step, solver_module._grow_and_step

        def counted_build(indices, x, base=None):
            built.append(build(indices, x, base))
            return built[-1]

        def counted_solve(model, *args):
            before = model.hessian_action.columns
            s, diag = solve(model, *args)
            solved.append(model.hessian_action.columns - before)
            assert diag["hvp_evals"] == solved[-1]
            reports.append((args[2], diag))
            return s, diag

        def counted_grow(*args):
            built.clear()
            solved.clear()
            step = grow(*args)
            # Columns asked of this loop's Hessians outside cubic_step.
            outside.append(sum(h.columns for h in built) - sum(solved))
            return step

        monkeypatch.setattr(prob, "hessian_action", counted_build)
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        monkeypatch.setattr(solver_module, "_grow_and_step", counted_grow)
        res = minimize(prob, cfg)
        assert len(outside) == len(res.trace)
        return outside, reports

    def test_no_hessian_column_outside_the_solve(self, monkeypatch):
        prob = sigmoid_problem(seed=7, N=300, d=6)
        cfg = SolverConfig(p=2, q=2, eps1=1e-3, eps2=1e-2, budget_cm=100.0, seed=3)
        outside, _ = self.columns_outside_the_solve(prob, cfg, monkeypatch)
        assert len(outside) > 1
        assert outside == [0] * len(outside)

    @staticmethod
    def measured_in_the_solve(monkeypatch):
        """The order-two measures the cubic solves take."""
        measured = []
        phi_2 = subproblem_module.phi_2
        monkeypatch.setattr(
            subproblem_module, "phi_2", lambda *args: (measured.append(1), phi_2(*args))[1]
        )
        return measured

    def test_unconverged_solves_measure_no_curvature(self, monkeypatch):
        # At eps1 = 0 the subspace solves (q = 2 above DENSE_MAX_N) meet no
        # first-order tolerance: each grows its basis until it spans the
        # space or the Krylov space of a small sample, at most n columns,
        # without a second-order test, and a q = 2 step that continues a
        # sizing solve asks nothing more.  Nothing
        # reads the order-two measure at their steps, so none is taken,
        # and no column is asked outside them.
        n = DENSE_MAX_N + 1
        measured = self.measured_in_the_solve(monkeypatch)
        prob = sigmoid_problem(seed=7, N=300, d=n)
        cfg = SolverConfig(p=2, q=2, eps1=0.0, eps2=1e-3, max_iters=2, seed=3)
        outside, reports = self.columns_outside_the_solve(prob, cfg, monkeypatch)
        assert len(outside) == 2 and not any(diag["converged"] for _, diag in reports)
        assert all(diag["hvp_evals"] == diag["iterations"] <= n for _, diag in reports)
        assert outside == [0, 0]
        assert measured == []

    @pytest.mark.parametrize("kappa", [1e-2, 1e9])
    def test_q2_steps_on_the_dense_path_measure_no_curvature(self, kappa, monkeypatch):
        # On the dense path a q = 2 step continues the pass's sizing solve
        # and asks nothing more when that solve's basis spans the space, as
        # every one does at eps1 = 0 on these samples; full samples
        # (kappa = 1e9) take the exact step at once, converged with its n
        # columns.  None takes an order-two measure or asks a column
        # outside the solves.
        measured = self.measured_in_the_solve(monkeypatch)
        prob = sigmoid_problem(seed=7, N=300, d=6)
        cfg = SolverConfig(p=2, q=2, eps1=0.0, eps2=1e-3, kappa=kappa, max_iters=2, seed=3)
        outside, reports = self.columns_outside_the_solve(prob, cfg, monkeypatch)
        steps = [diag for eps2, diag in reports if eps2 is not None]
        assert len(outside) == 2 and len(steps) >= 2
        assert all(diag["iterations"] == 0 for diag in steps)
        if kappa > 1.0:
            assert len(steps) == len(reports)
            assert all(diag["converged"] and diag["hvp_evals"] == 6 for diag in steps)
        else:
            assert all(diag["hvp_evals"] == 0 for diag in steps)
            assert all(diag["hvp_evals"] == 6 for eps2, diag in reports if eps2 is None)
        assert outside == [0, 0]
        assert measured == []


def double_well_problem():
    """40 tilted double wells in 3 unknowns, with an exact Hessian action.

    From x0 = 0.1 (the wells' common maximum is 0) a full-sample run
    rejects some of its steps."""
    tilt = 0.1 * np.random.default_rng(0).standard_normal((40, 3))
    return CustomProblem(
        3, 40,
        value=lambda i, x: float(np.sum((x * x - 1.0) ** 2) / 4.0 + tilt[i] @ x),
        gradient=lambda i, x: x * (x * x - 1.0) + tilt[i],
        hvp=lambda i, x, v: (3.0 * x * x - 1.0) * v,
    )


class TestOneDecompositionPerSample:
    @pytest.mark.parametrize("case", ["sampled_sigmoid", "full_double_well"])
    def test_solves_and_termination_share_each_decomposition(self, case, monkeypatch):
        # A dense q = 2 run decomposes the n x n matrix of a SampleHessian
        # once, at the first exact step or termination phi_2 on it.  The
        # sizing solves before it decompose only their small projected
        # matrices; a full sample's phi_2, which comes first, leaves its
        # decomposition to the step, and later exact steps on a kept sample
        # (here the full one after a rejected step) read it back.
        if case == "sampled_sigmoid":
            prob, x0, kappa = sigmoid_problem(seed=7, N=300, d=6), None, 1e-2
        else:
            prob, x0, kappa = double_well_problem(), np.full(3, 0.1), 1e9
        built, taken, decompositions = [], [], []
        build, solve, eigh = prob.hessian_action, solver_module.cubic_step, np.linalg.eigh

        def counted_solve(model, eps1, theta, eps2):
            if eps2 is not None:
                taken.append(model.hessian_action)
            return solve(model, eps1, theta, eps2)

        monkeypatch.setattr(
            prob, "hessian_action", lambda *args, **kw: (built.append(1), build(*args, **kw))[1]
        )
        monkeypatch.setattr(solver_module, "cubic_step", counted_solve)
        monkeypatch.setattr(np.linalg, "eigh", lambda A: (decompositions.append(A), eigh(A))[1])
        cfg = SolverConfig(p=2, q=2, eps2=1e-2, kappa=kappa, budget_cm=500.0, seed=3)
        res = minimize(prob, cfg, x0=x0)
        assert res.stop_reason == "converged"
        distinct = list({id(h): h for h in taken}.values())
        assert sum(any(A is h.dense() for h in distinct) for A in decompositions) == len(distinct)
        if case == "sampled_sigmoid":
            assert len(built) > len(distinct)  # sizing passes built no matrix
        else:
            assert res.successes < res.iterations and len(distinct) < len(taken)


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
            for omega, sigma, cfg in growth_configs(q, prob):
                seen.clear()
                got = _grow_and_step(
                    prob, point, omega, sigma, cfg, np.random.default_rng(3), {}
                )
                g_idx, h_idx = got.g_idx, got.h_idx
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
