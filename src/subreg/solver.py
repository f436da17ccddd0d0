"""Outer adaptive-regularisation loop with subsampled estimates.

One outer iteration builds derivative estimates whose sample sizes grow
until an adaptive accuracy test holds, computes a trial step for the
regularised model, estimates the objective at both ends of the step, and
accepts or rejects via the ratio of estimated to predicted decrease.  The
regulariser sigma halves on success and doubles on failure (bounded below
by sigma_min), and the relative accuracy level omega = min(alpha eta / 2,
1 / sigma) tracks it.

Work is metered in cost units where one full-sample objective evaluation
(N forward propagations) costs 1 CM.  Function estimates cost |D|/N each;
a gradient over G costs an extra (2 |G \\ D1| + |G & D1|) / N because
forward passes shared with the first function estimate are not recounted;
each Hessian-action of the cubic subproblem costs 2 |H| / N plus a
one-time |H \\ (H & G)| / N for base gradients not shared with G.
Measurement-only quantities (exact losses recorded in traces, the
order-two termination measure) are never charged.

Each column of a block passed to a Hessian action counts as one action,
however the action is computed.

Known gap: for q = 2 the accuracy test of each growth pass needs the
order-two model measure at the trial step, and the Hessian actions it
takes are not charged.  When the subproblem solver's own second-order test
passed at that step, its value is reused and the test applies the Hessian
twice (model gradient and Taylor decrease); otherwise it also materialises
the model Hessian, about n + 3 actions on the dense path.  On the q = 2
sigmoid benchmark problem (N = 20000, n = 50, seed 1000, 1200 CM budget)
that was 120 uncharged actions (24 full-sample equivalents) against 3539
charged ones (654 full-sample equivalents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .finite_sum import FiniteSumProblem, full_value
from .model import AccuracyQuantities, RegularisedModel, accuracy_quantities
from .optimality import check_termination, phi_2
from .sampling import (
    bernstein_size,
    draw_subsample,
    extend_subsample,
    gradient_log_argument,
    hessian_log_argument,
    merged_mean,
    value_log_argument,
)
from .subproblem import BBConfig, cubic_step, quadratic_step

__all__ = [
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "TraceEvent",
    "CostMeter",
    "SolverStallError",
    "rho",
    "iteration_charge",
    "minimize",
]


class SolverStallError(RuntimeError):
    """Raised when the full-sample model predicts no decrease repeatedly."""


@dataclass
class SolverConfig:
    """Run parameters; the defaults match the experimental setup the
    methods were tuned with (sigma0 = 0.1, eta = 0.8, gamma = 2, ...).

    ``q`` is the optimality order targeted, ``p`` the derivative order of
    the model, with q <= p.  ``kappa`` is the component-norm constant of
    the Bernstein sample sizes; it is configuration, chosen to control how
    fast sample sizes grow.  Setting ``eps1`` (and ``eps2``) to zero
    disables the termination test for budget-only runs.
    """

    q: int = 1
    p: int = 1
    sigma0: float = 0.1
    sigma_min: float = 1e-5
    eps1: float = 1e-3
    eps2: Optional[float] = None
    theta: float = 0.5
    eta: float = 0.8
    gamma: float = 2.0
    alpha: float = 0.5
    kappa_eps: float = 0.5
    gamma_eps: float = 0.5
    kappa: float = 1e-2
    t: float = 0.2
    budget_cm: float = math.inf
    max_iters: int = 1_000_000
    seed: int = 0
    bb: BBConfig = field(default_factory=BBConfig)
    exact_loss_threshold: int = 100_000
    dense_threshold: int = 200
    stall_limit: int = 60
    record_iterates: bool = False

    def validate(self) -> None:
        if self.q not in (1, 2) or self.p not in (1, 2) or self.q > self.p:
            raise ValueError("need 1 <= q <= p <= 2")
        if self.sigma0 <= 0.0 or not 0.0 < self.sigma_min < self.sigma0:
            raise ValueError("need 0 < sigma_min < sigma0")
        if self.eps1 < 0.0:
            raise ValueError("eps1 must be nonnegative (0 disables the test)")
        if self.q == 2 and (self.eps2 is None or self.eps2 < 0.0):
            raise ValueError("q = 2 needs a nonnegative eps2")
        if not 0.0 < self.theta <= 0.5:
            raise ValueError("theta must lie in (0, 0.5]")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.kappa_eps <= 0.0 or not 0.0 < self.gamma_eps < 1.0:
            raise ValueError("need kappa_eps > 0 and gamma_eps in (0, 1)")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        if self.budget_cm <= 0.0:
            raise ValueError("budget must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def omega(self, sigma: float) -> float:
        return min(0.5 * self.alpha * self.eta, 1.0 / sigma)


@dataclass
class SolverState:
    """Mutable per-run state: iterate, regulariser, accuracy level, meter."""

    x: np.ndarray
    sigma: float
    omega: float
    k: int = 0
    rng: Optional[np.random.Generator] = None


class CostMeter:
    """Monotone accumulator of cost-measure charges."""

    def __init__(self) -> None:
        self.total = 0.0

    def charge(self, amount: float) -> None:
        if amount < 0.0 or not math.isfinite(amount):
            raise ValueError(f"invalid charge {amount}")
        self.total += amount


def iteration_charge(
    N: int,
    d1_size: int,
    d2_size: int,
    g_size: int,
    g_d1_overlap: int,
    h_size: int,
    h_g_overlap: int,
    hvp_props: int,
) -> float:
    """Cost of one outer iteration, in CM units, from its trace fields.

    ``hvp_props`` counts Hessian-action work as the sum over subproblem
    evaluations of the Hessian sample size in force at that evaluation.
    The same formula reconstructs the meter column from a written trace.
    """
    func = (d1_size + d2_size) / N
    grad = (2 * (g_size - g_d1_overlap) + g_d1_overlap) / N
    hess = 2.0 * hvp_props / N + (h_size - h_g_overlap) / N
    return func + grad + hess


def rho(f_x: float, f_xs: float, delta_t: float) -> float:
    """Acceptance ratio; minus infinity when no decrease is predicted."""
    if delta_t > 0.0:
        return (f_x - f_xs) / delta_t
    return -math.inf


@dataclass
class TraceEvent:
    """One record per outer iteration (plus one at termination)."""

    k: int
    cm: float
    sigma: float
    omega: float
    grad_norm: float
    rho: float
    success: int
    d1_size: int
    d2_size: int
    g_size: int
    h_size: int
    g_d1_overlap: int
    h_g_overlap: int
    hvp_props: int
    loss_estimate: Optional[float]
    train_loss: Optional[float]
    test_loss: Optional[float]


@dataclass
class SolverResult:
    x: np.ndarray
    trace: List[TraceEvent]
    stop_reason: str
    iterations: int
    successes: int
    iterates: Optional[List[np.ndarray]] = None

    @property
    def total_cm(self) -> float:
        return self.trace[-1].cm if self.trace else 0.0


def _require_finite(what: str, value: float) -> None:
    """Fail loudly instead of iterating on NaN or infinite estimates."""
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite {what} estimate")


def _grow_gradient(problem, x, omega, cfg, rng):
    """Sample-growth loop for the order-one model (p = 1).

    Shrinks the accuracy target geometrically until it is at most
    omega * ||g|| or the sample has grown to the full sum, whose estimate
    is exact so the test is moot.  Growth extends the previous draw, so
    each component gradient is evaluated once per outer iteration.
    """
    N = problem.N
    log_arg = gradient_log_argument(problem.n, cfg.t)
    eps = cfg.kappa_eps
    size = bernstein_size(cfg.kappa, eps, cfg.t, log_arg, N)
    idx = draw_subsample(rng, N, size)
    g = problem.gradient_mean(idx, x)
    passes = 1
    while idx.size < N and eps > omega * float(np.linalg.norm(g)) and eps > 1e-300:
        eps *= cfg.gamma_eps
        size = bernstein_size(cfg.kappa, eps, cfg.t, log_arg, N)
        if size > idx.size:
            old_count = idx.size
            idx, ext = extend_subsample(rng, N, idx, size)
            g = merged_mean(g, old_count, problem.gradient_mean(ext, x), ext.size)
        passes += 1
    return g, idx, passes


def _grow_model_and_step(problem, x, omega, sigma, cfg, rng):
    """Sample-growth loop for the order-two model (p = 2).

    Each pass solves the cubic subproblem with the current Hessian sample,
    derives the adaptive accuracy targets from the step, and accepts once
    the requested accuracies meet them.  Full samples are exact, so they
    terminate the loop unconditionally.
    """
    N, n = problem.N, problem.n
    glog = gradient_log_argument(n, cfg.t)
    hlog = hessian_log_argument(n, cfg.t)
    eps_g = eps_h = cfg.kappa_eps

    g_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_g, cfg.t, glog, N))
    g = problem.gradient_mean(g_idx, x)
    h_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_h, cfg.t, hlog, N))
    h_base = problem.gradient_mean(h_idx, x)

    hvp_props = 0
    passes = 0
    while True:
        passes += 1
        # Caught here, NaNs would otherwise surface inside the eigensolvers.
        _require_finite("gradient", float(np.linalg.norm(g)) + float(np.linalg.norm(h_base)))
        model = RegularisedModel(2, g, sigma, problem.hessian_action(h_idx, x, base=h_base))
        eps2 = cfg.eps2 if cfg.q == 2 else None
        s, diag = cubic_step(model, cfg.bb, cfg.eps1, cfg.theta, eps2, cfg.dense_threshold)
        hvp_props += diag["hvp_evals"] * h_idx.size

        norm_s = float(np.linalg.norm(s))
        # Taylor decrease via the model identity, avoiding extra actions.
        dtf = sigma * norm_s**3 / 6.0 - diag["model_value"]
        grad_norm = diag["grad_norm"]
        if cfg.q == 2:
            # cubic_step has phi_2 at s when its second-order test passed.
            quantities = accuracy_quantities(model, s, 2, cfg.dense_threshold, diag["phi2"])
        else:
            degenerate = grad_norm == 0.0
            quantities = AccuracyQuantities(
                tau=norm_s if degenerate else max(norm_s, 1.0),
                delta_t_min=min(dtf, grad_norm),
                delta_t_f=dtf,
                model_grad_norm=grad_norm,
            )
        full = g_idx.size == N and h_idx.size == N
        targets = quantities.targets(omega, 2)
        if full or (eps_g <= targets[0] and eps_h <= targets[1]):
            return g, g_idx, h_idx, s, quantities, hvp_props, passes, diag

        eps_g *= cfg.gamma_eps
        eps_h *= cfg.gamma_eps
        new_g = bernstein_size(cfg.kappa, max(eps_g, 1e-300), cfg.t, glog, N)
        if new_g > g_idx.size:
            old = g_idx.size
            g_idx, ext = extend_subsample(rng, N, g_idx, new_g)
            g = merged_mean(g, old, problem.gradient_mean(ext, x), ext.size)
        new_h = bernstein_size(cfg.kappa, max(eps_h, 1e-300), cfg.t, hlog, N)
        if new_h > h_idx.size:
            old = h_idx.size
            h_idx, ext = extend_subsample(rng, N, h_idx, new_h)
            h_base = merged_mean(h_base, old, problem.gradient_mean(ext, x), ext.size)


def _overlap(a: np.ndarray, b: np.ndarray) -> int:
    if a.size == 0 or b.size == 0:
        return 0
    return int(np.intersect1d(a, b, assume_unique=True).size)


def minimize(
    problem: FiniteSumProblem,
    config: SolverConfig,
    x0=None,
    on_event: Optional[Callable[[TraceEvent], None]] = None,
    test_loss: Optional[Callable[[np.ndarray], float]] = None,
) -> SolverResult:
    """Run the adaptive-regularisation loop on a finite-sum problem.

    Stops when the estimated optimality measures fall below the tolerances
    (``converged``), when the cost meter reaches the budget (``budget``, the
    running iteration is completed first) or at the iteration cap.  Exact
    losses are recorded in the trace for desk-scale problems and are never
    charged to the meter.
    """
    config.validate()
    N, n = problem.N, problem.n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")

    state = SolverState(
        x=x,
        sigma=config.sigma0,
        omega=config.omega(config.sigma0),
        rng=np.random.default_rng(config.seed),
    )
    meter = CostMeter()
    trace: List[TraceEvent] = []
    iterates: Optional[List[np.ndarray]] = [state.x.copy()] if config.record_iterates else None
    successes = 0
    completed = 0
    stall = 0
    stop_reason = "iteration_cap"
    empty = np.empty(0, dtype=np.intp)

    def exact_losses():
        if N > config.exact_loss_threshold:
            return None, None
        train = full_value(problem, state.x)
        test = float(test_loss(state.x)) if test_loss is not None else None
        return train, test

    def emit(event: TraceEvent):
        trace.append(event)
        if on_event is not None:
            on_event(event)

    for k in range(config.max_iters):
        state.k = k
        # Step 1 (and step computation for the cubic model).
        if config.p == 1:
            g, g_idx, _ = _grow_gradient(problem, state.x, state.omega, config, state.rng)
            h_idx, hvp_props = empty, 0
            s = None
            quantities = None
        else:
            g, g_idx, h_idx, s, quantities, hvp_props, _, _ = _grow_model_and_step(
                problem, state.x, state.omega, state.sigma, config, state.rng
            )
        grad_norm = float(np.linalg.norm(g))
        _require_finite("gradient", grad_norm)

        # Termination on the estimated measures.
        converged = config.eps1 > 0.0 and check_termination([grad_norm], [config.eps1])
        if converged and config.q == 2:
            action = problem.hessian_action(h_idx, state.x)
            phi2_val = phi_2(g, action, n, config.dense_threshold).value
            converged = check_termination([grad_norm, phi2_val], [config.eps1, config.eps2])
        if converged:
            charge = iteration_charge(
                N, 0, 0, g_idx.size, 0, h_idx.size, _overlap(h_idx, g_idx), hvp_props
            )
            meter.charge(charge)
            train, test = exact_losses()
            emit(
                TraceEvent(
                    k, meter.total, state.sigma, state.omega, grad_norm, math.nan, 0,
                    0, 0, int(g_idx.size), int(h_idx.size), 0,
                    _overlap(h_idx, g_idx), hvp_props, None, train, test,
                )
            )
            stop_reason = "converged"
            break

        # Step 2 for the quadratic model; the cubic step and its decrease
        # came out of the growth loop.
        if config.p == 1:
            s, delta_t = quadratic_step(g, state.sigma)
        else:
            delta_t = quantities.delta_t_f

        # Steps 3 and 4: estimate f at both ends, then test acceptance.
        if delta_t > 0.0:
            nu0 = state.omega * delta_t
            if nu0 <= 0.0:  # underflow near stationarity: use the exact sum
                size = N
            else:
                size = bernstein_size(config.kappa, nu0, config.t, value_log_argument(config.t), N)
            d1_idx = draw_subsample(state.rng, N, size)
            d2_idx = draw_subsample(state.rng, N, size)
            f_x = problem.value_mean(d1_idx, state.x)
            f_xs = problem.value_mean(d2_idx, state.x + s)
            _require_finite("function", f_x)
            _require_finite("function", f_xs)
            rho_k = rho(f_x, f_xs, delta_t)
        else:
            d1_idx = d2_idx = empty
            f_x = None
            rho_k = -math.inf

        success = rho_k >= config.eta
        if success:
            state.x = state.x + s
            successes += 1

        # Stall safeguard: a full-sample model that predicts no decrease is
        # genuinely stationary; repeated occurrences cannot make progress.
        at_full = g_idx.size == N and (config.p == 1 or h_idx.size == N)
        if delta_t <= 0.0 and at_full:
            stall += 1
        else:
            stall = 0
        if stall >= config.stall_limit:
            raise SolverStallError(
                f"no predicted decrease in {stall} consecutive full-sample iterations"
            )

        charge = iteration_charge(
            N,
            int(d1_idx.size),
            int(d2_idx.size),
            int(g_idx.size),
            _overlap(g_idx, d1_idx),
            int(h_idx.size),
            _overlap(h_idx, g_idx),
            hvp_props,
        )
        meter.charge(charge)
        train, test = exact_losses()
        emit(
            TraceEvent(
                k, meter.total, state.sigma, state.omega, grad_norm, rho_k, int(success),
                int(d1_idx.size), int(d2_idx.size), int(g_idx.size), int(h_idx.size),
                _overlap(g_idx, d1_idx), _overlap(h_idx, g_idx), hvp_props,
                f_x, train, test,
            )
        )
        completed = k + 1
        if iterates is not None:
            iterates.append(state.x.copy())

        # Steps 5 and 6: regulariser and accuracy-level updates.
        if success:
            state.sigma = max(config.sigma_min, state.sigma / config.gamma)
        else:
            state.sigma = config.gamma * state.sigma
        state.omega = config.omega(state.sigma)

        if meter.total >= config.budget_cm:
            stop_reason = "budget"
            break

    return SolverResult(
        x=state.x,
        trace=trace,
        stop_reason=stop_reason,
        iterations=completed,
        successes=successes,
        iterates=iterates,
    )
