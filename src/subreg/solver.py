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
one-time |H \\ (H & G)| / N for base gradients not shared with G.  That
term is charged for every problem, although the base gradient is computed
only when a differenced action asks for it.
Measurement-only quantities (exact losses recorded in traces, the
order-two termination measure) are never charged.

Each column the subproblem solver asks of a Hessian action counts as one
action, however it is answered: computed from the sample's rows, or read
from the sample's cached dense matrix (``SampleHessian.dense``).  Building
that matrix is not a request and is not charged, so CM stays the cost of
the method.

A growth pass redoes only what grew.  While the Hessian sample is not
extended, the next pass keeps its ``SampleHessian`` and dense matrix; a
pass that extends neither sample reuses the previous pass's whole solve
(step, diagnostics and accuracy quantities).  Every pass is still charged
the Hessian columns of the solve it uses, so CM and traces are those of a
loop that rebuilds and re-solves on every pass.

Known gap: for q = 2 the accuracy test of each solve needs the order-two
model measure at the trial step, and the Hessian actions it takes are not
charged.  When the subproblem solver's own second-order test passed at
that step, its value is reused and the test applies the Hessian twice
(model gradient and Taylor decrease); otherwise it also materialises the
model Hessian, about n + 3 actions on the dense path.  On the q = 2
sigmoid benchmark problem (N = 20000, n = 50, seed 1000, 1200 CM budget)
that is 100 uncharged actions (20 full-sample equivalents) against 3539
charged ones (654 full-sample equivalents); all of them are answered from
the dense matrix the subproblem solver built for their sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .subproblem import cubic_step, quadratic_step

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
    disables the termination test for budget-only runs.  With ``p = 2`` it
    also makes the inner tolerance ``theta * eps1`` zero, so the subproblem
    solver runs to its iteration cap on every growth pass that solves, and
    ``budget_cm`` is checked only between outer iterations: one iteration
    can overrun the budget by orders of magnitude (a 20 CM budget on a
    20000 x 50 sigmoid problem charged 4862 CM at q = 1 and 5284 CM at
    q = 2 in its first iteration).  ``stall_limit`` full-sample iterations
    in a row without predicted decrease raise ``SolverStallError``.

    How the cubic subproblem is solved to within ``theta * eps1`` is not
    configuration: the spectral-gradient constants live in ``subproblem``,
    and the order up to which the eigensolvers materialise the Hessian is
    ``optimality.DENSE_MAX_N``.
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
    exact_loss_threshold: int = 100_000
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
        if self.stall_limit < 1:
            raise ValueError("stall_limit must be positive")

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


def _first_gradient(problem, idx, x, known):
    """Gradient mean over an iteration's first draw.

    A full draw is 0..N-1, whose gradient at ``x`` is kept in ``known``
    and read back while ``x`` does not move: the same ``gradient_mean``
    call at the same ``x`` bytes, bit for bit.
    """
    if idx.size != problem.N:
        return problem.gradient_mean(idx, x)
    if "grad" not in known:
        known["grad"] = problem.gradient_mean(idx, x)
    return known["grad"]


def _grow_gradient(problem, x, omega, cfg, rng, known):
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
    g = _first_gradient(problem, idx, x, known)
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


class _SampleGradient:
    """Gradient mean at ``x`` over a growing Hessian sample, as a ``base``.

    A differenced Hessian action needs it; an exact one never asks.  Each
    piece of the sample (the draw, then every extension) is evaluated at
    the first call after it was added and merged in order, so the mean has
    the bits of evaluating each piece as it is drawn.
    """

    def __init__(self, problem, x, idx, mean=None):
        self._problem, self._x = problem, x
        self._mean, self._count = mean, 0 if mean is None else idx.size
        self._pending = [idx] if mean is None else []

    def extend(self, ext: np.ndarray) -> None:
        self._pending.append(ext)

    def __call__(self) -> np.ndarray:
        for part in self._pending:
            mean = self._problem.gradient_mean(part, self._x)
            if self._count:
                mean = merged_mean(self._mean, self._count, mean, part.size)
            self._mean, self._count = mean, self._count + part.size
        self._pending = []
        return self._mean


def _grow_model_and_step(problem, x, omega, sigma, cfg, rng, known):
    """Sample-growth loop for the order-two model (p = 2).

    Each pass solves the cubic subproblem with the current Hessian sample,
    derives the adaptive accuracy targets from the step, and accepts once
    the requested accuracies meet them.  Full samples are exact, so they
    terminate the loop unconditionally.  Returns the estimates, the step
    and its accuracy quantities, the Hessian work, the pass count and the
    last pass's ``SampleHessian``.

    Within one loop x and sigma are fixed and samples only grow by
    extension, so a pass redoes only what grew.  The Hessian sample's
    ``SampleHessian`` (and the dense matrix it caches) is built when H is
    drawn or extended and kept otherwise.  A pass that extends neither
    sample would repeat the previous solve exactly, so it reuses that
    step, its diagnostics and its accuracy quantities; it only shrinks the
    accuracy targets and is charged the same Hessian columns as the solve
    it reuses.
    """
    N, n = problem.N, problem.n
    glog = gradient_log_argument(n, cfg.t)
    hlog = hessian_log_argument(n, cfg.t)
    eps_g = eps_h = cfg.kappa_eps
    eps2 = cfg.eps2 if cfg.q == 2 else None

    g_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_g, cfg.t, glog, N))
    g = _first_gradient(problem, g_idx, x, known)
    h_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_h, cfg.t, hlog, N))
    # Two full draws are the same set at the same x: one evaluation serves both.
    h_base = _SampleGradient(problem, x, h_idx, g if g_idx.size == h_idx.size == N else None)

    hessian = None
    hvp_props = 0
    passes = 0
    while True:
        # A new solve: the first pass, or G or H was extended.
        # Caught here, NaNs would otherwise surface inside the eigensolvers;
        # the Hessian estimate checks its own.
        _require_finite("gradient", float(np.linalg.norm(g)))
        if hessian is None:
            hessian = problem.hessian_action(h_idx, x, base=h_base)
        model = RegularisedModel(g, sigma, hessian)
        s, diag = cubic_step(model, cfg.eps1, cfg.theta, eps2)

        norm_s = float(np.linalg.norm(s))
        # Taylor decrease via the model identity, avoiding extra actions.
        dtf = sigma * norm_s**3 / 6.0 - diag["model_value"]
        grad_norm = diag["grad_norm"]
        if cfg.q == 2:
            # cubic_step has phi_2 at s when its second-order test passed.
            quantities = accuracy_quantities(model, s, diag["phi2"])
        else:
            degenerate = grad_norm == 0.0
            quantities = AccuracyQuantities(
                tau=norm_s if degenerate else max(norm_s, 1.0),
                delta_t_min=min(dtf, grad_norm),
                delta_t_f=dtf,
                model_grad_norm=grad_norm,
            )
        targets = quantities.targets(omega)

        # One pass per shrink of the targets, on this solve until a sample grows.
        grown = False
        while not grown:
            passes += 1
            hvp_props += diag["hvp_evals"] * h_idx.size
            full = g_idx.size == N and h_idx.size == N
            if full or (eps_g <= targets[0] and eps_h <= targets[1]):
                return g, g_idx, h_idx, s, quantities, hvp_props, passes, hessian

            eps_g *= cfg.gamma_eps
            eps_h *= cfg.gamma_eps
            new_g = bernstein_size(cfg.kappa, max(eps_g, 1e-300), cfg.t, glog, N)
            if new_g > g_idx.size:
                old = g_idx.size
                g_idx, ext = extend_subsample(rng, N, g_idx, new_g)
                g = merged_mean(g, old, problem.gradient_mean(ext, x), ext.size)
                grown = True
            new_h = bernstein_size(cfg.kappa, max(eps_h, 1e-300), cfg.t, hlog, N)
            if new_h > h_idx.size:
                h_idx, ext = extend_subsample(rng, N, h_idx, new_h)
                h_base.extend(ext)
                hessian = None
                grown = True


def _overlap(a: np.ndarray, b: np.ndarray) -> int:
    """Number of indices two ascending sets without repeats share.

    Each entry of the smaller set is looked up in the larger one, which
    neither concatenates nor sorts the two.
    """
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    pos = np.searchsorted(b, a)
    np.minimum(pos, b.size - 1, out=pos)
    return int(np.count_nonzero(b[pos] == a))


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
    charged to the meter.  They are computed once per distinct iterate, and
    a full-sample function estimate doubles as the exact training loss, so
    ``test_loss`` must be a pure function of ``x`` (as must the problem's
    ``value_mean`` and ``gradient_mean``): a rejected step records the
    values already measured, and a full first gradient draw at the
    unchanged ``x`` reads the gradient already computed there.
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

    # Full-sample objective ("train"), test loss and full-sample gradient
    # ("grad") at state.x, each computed at most once per iterate; emptied
    # whenever x moves.  A full-sample estimate is exact, so it doubles as
    # the measurement and vice versa: every full-set value is value_mean
    # over 0..N-1 at the same x, bit for bit, and a full first gradient
    # draw after a rejected step is the gradient already computed.  The
    # meter still charges every estimate.
    known = {}

    def exact_losses():
        if N > config.exact_loss_threshold:
            return None, None
        if "train" not in known:
            known["train"] = full_value(problem, state.x)
        if test_loss is not None and "test" not in known:
            known["test"] = float(test_loss(state.x))
        return known["train"], known.get("test")

    def emit(event: TraceEvent):
        trace.append(event)
        if on_event is not None:
            on_event(event)

    for k in range(config.max_iters):
        state.k = k
        # Step 1 (and step computation for the cubic model).
        if config.p == 1:
            g, g_idx, _ = _grow_gradient(problem, state.x, state.omega, config, state.rng, known)
            h_idx, hvp_props = empty, 0
            s = None
            quantities = None
        else:
            g, g_idx, h_idx, s, quantities, hvp_props, _, hessian = _grow_model_and_step(
                problem, state.x, state.omega, state.sigma, config, state.rng, known
            )
        grad_norm = float(np.linalg.norm(g))
        _require_finite("gradient", grad_norm)

        # Termination on the estimated measures.
        converged = config.eps1 > 0.0 and check_termination([grad_norm], [config.eps1])
        if converged and config.q == 2:
            # The last growth pass's Hessian: the same sample at the same x,
            # with its dense matrix when cubic_step built one.
            phi2_val = phi_2(g, hessian, n).value
            converged = check_termination([grad_norm, phi2_val], [config.eps1, config.eps2])
        h_g_overlap = _overlap(h_idx, g_idx)
        if converged:
            charge = iteration_charge(
                N, 0, 0, g_idx.size, 0, h_idx.size, h_g_overlap, hvp_props
            )
            meter.charge(charge)
            train, test = exact_losses()
            emit(
                TraceEvent(
                    k, meter.total, state.sigma, state.omega, grad_norm, math.nan, 0,
                    0, 0, int(g_idx.size), int(h_idx.size), 0,
                    h_g_overlap, hvp_props, None, train, test,
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
            x_trial = state.x + s
            # A size-N draw is the full set, whose value may be known at x.
            if size == N and "train" in known:
                f_x = known["train"]
            else:
                f_x = problem.value_mean(d1_idx, state.x)
                if size == N:
                    known["train"] = f_x
            f_xs = problem.value_mean(d2_idx, x_trial)
            _require_finite("function", f_x)
            _require_finite("function", f_xs)
            rho_k = rho(f_x, f_xs, delta_t)
        else:
            d1_idx = d2_idx = empty
            f_x = None
            rho_k = -math.inf

        success = rho_k >= config.eta
        if success:
            state.x = x_trial
            known.clear()
            if d2_idx.size == N:
                known["train"] = f_xs
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

        g_d1_overlap = _overlap(g_idx, d1_idx)
        charge = iteration_charge(
            N,
            int(d1_idx.size),
            int(d2_idx.size),
            int(g_idx.size),
            g_d1_overlap,
            int(h_idx.size),
            h_g_overlap,
            hvp_props,
        )
        meter.charge(charge)
        train, test = exact_losses()
        emit(
            TraceEvent(
                k, meter.total, state.sigma, state.omega, grad_norm, rho_k, int(success),
                int(d1_idx.size), int(d2_idx.size), int(g_idx.size), int(h_idx.size),
                g_d1_overlap, h_g_overlap, hvp_props,
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
