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
order-two termination measure, whose Krylov path above
``optimality.DENSE_MAX_N`` asks at most n + 4 columns) are never charged.

Each column the subproblem solver asks of a Hessian action counts as one
action, however it is answered: computed from the sample's rows, or read
from the sample's cached dense matrix (``SampleHessian.dense``).  Building
that matrix is not a request and is not charged, so CM stays the cost of
the method; an exact q = 2 solve on the dense path reads all n columns of
the matrix and is charged n actions.

Both model orders share one sample-growth loop (``_grow_and_step``),
whose passes lower an accuracy level until the targets of the current
step hold or every sample is the full sum.  At q = 2 a subspace step
sizes the samples, and only the pass whose targets hold takes the q = 2
step, on the dense matrix at most once per iteration.  A pass redoes
only what grew, so CM and traces are those of a loop that rebuilds and
re-solves on every pass that grew a sample.

The termination test reads the measures at x_k, so at p = 2 a pass whose
samples are all full, whose estimates are exact, takes it before its
step: when it holds, the iteration ends with no step and is charged only
the sizing solves before it.  On the dense path that test's phi_2, which
is measurement and uncharged, still builds and decomposes the sample's
matrix; only the step's minimiser is skipped.  Any other iteration is tested after its
growth loop, on the last pass's estimates, and no iteration measures
phi_2 twice.

The subproblem solver reports the Taylor decrease and the model gradient
norm at its step (``subproblem.cubic_step``); the accuracy test of a
growth pass reads them and takes no action of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .finite_sum import FiniteSumProblem, SampleHessian, full_value
from .model import RegularisedModel, accuracy_quantities
from .optimality import check_termination, phi_1, phi_2
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
    "EXACT_LOSS_THRESHOLD",
    "SolverConfig",
    "SolverResult",
    "TraceEvent",
    "CostMeter",
    "SolverStallError",
    "rho",
    "iteration_charge",
    "minimize",
]


EXACT_LOSS_THRESHOLD = 100_000  # largest N whose exact losses are recorded
_STALL_LIMIT = 60  # full-sample iterations without predicted decrease


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
    also makes the inner tolerance ``theta * eps1`` zero, so every subspace
    solve grows until its basis spans the space or the Krylov space of its
    sample, at most n columns, and, meeting no first-order test, measures
    no curvature; a q = 2 step that continues a spanning one asks nothing
    more.  ``budget_cm`` is checked only between outer iterations: a 20 CM
    budget on a 20000 x 50 sigmoid problem charged 27.3, 48.4 and 89.5 CM
    at q = 1 and at q = 2 (solver seeds 1000-1002).
    ``_STALL_LIMIT`` (a constant, 60) full-sample iterations in a row
    without predicted decrease raise ``SolverStallError``.

    How the cubic subproblem is solved is not configuration: the bound on
    eigenvector additions lives in ``subproblem``, and the order up to
    which q = 2 steps are exact and the eigensolvers materialise the
    Hessian is ``optimality.DENSE_MAX_N``.
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
    record_iterates: bool = False

    def validate(self) -> None:
        if self.q not in (1, 2) or self.p not in (1, 2) or self.q > self.p:
            raise ValueError("need 1 <= q <= p <= 2")
        if self.sigma0 <= 0.0 or not 0.0 < self.sigma_min < self.sigma0:
            raise ValueError("need 0 < sigma_min < sigma0")
        # Each check is written so that NaN fails it.
        if not self.eps1 >= 0.0:
            raise ValueError("eps1 must be nonnegative (0 disables the test)")
        if self.q == 2 and (self.eps2 is None or not self.eps2 >= 0.0):
            raise ValueError("q = 2 needs a nonnegative eps2")
        if not 0.0 < self.theta <= 0.5:
            raise ValueError("theta must lie in (0, 0.5]")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.kappa_eps > 0.0 or not 0.0 < self.gamma_eps < 1.0:
            raise ValueError("need kappa_eps > 0 and gamma_eps in (0, 1)")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.t < 1.0:
            raise ValueError("t must lie in (0, 1)")
        if not self.budget_cm > 0.0:
            raise ValueError("budget must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def omega(self, sigma: float) -> float:
        return min(0.5 * self.alpha * self.eta, 1.0 / sigma)


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


_EMPTY = np.empty(0, dtype=np.intp)


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


def _sample_hessian(problem, sample, x, known):
    """``SampleHessian`` over a Hessian sample, with ``sample`` as its base.

    The full set's Hessian at ``x`` is kept in ``known`` (with the dense
    matrix it may cache) and read back while ``x`` does not move, but only
    one whose construction asked for no base: such an action is a function
    of the set and ``x`` alone.  A differenced action keeps its base's bits,
    which depend on how the sample grew to the full set, so it is rebuilt.
    """
    full = sample.idx.size == problem.N
    if full and "hess" in known:
        return known["hess"]
    asked = []

    def base():
        asked.append(True)
        return sample()

    hessian = problem.hessian_action(sample.idx, x, base=base)
    if full and not asked:
        known["hess"] = hessian
    return hessian


def _terminated(cfg, g, hessian) -> bool:
    """The termination test on the estimated measures: ||g|| against eps1
    and, at q = 2 and only when that holds, phi_2 of (g, ``hessian``)
    against eps2.  ``eps1 = 0`` disables it, and it measures nothing."""
    grad_norm = phi_1(g)
    if not (cfg.eps1 > 0.0 and check_termination([grad_norm], [cfg.eps1])):
        return False
    if cfg.q == 1:
        return True
    # On the dense path phi_2 builds, or reads back, the matrix and the
    # decomposition that an exact step on the same sample then reads.
    return check_termination([grad_norm, phi_2(g, hessian, hessian.n).value], [cfg.eps1, cfg.eps2])


@dataclass
class StepRecord:
    """What the growth loop hands ``minimize``: the gradient estimate and its
    sample, the Hessian sample (empty for p = 1), the trial step and its
    Taylor decrease, the Hessian work charged, the number of growth passes,
    the last pass's ``SampleHessian`` (None for p = 1) and the outcome of
    the termination test.  A loop whose test held on full samples took no
    step: ``s`` is then the zero step, with zero decrease."""

    g: np.ndarray
    g_idx: np.ndarray
    h_idx: np.ndarray
    s: np.ndarray
    delta_t: float
    hvp_props: int
    passes: int
    hessian: Optional[SampleHessian]
    converged: bool


class _SampleGradient:
    """A growing sample and the gradient mean at ``x`` over it.

    ``idx`` is the sample, ascending, and ``grow`` extends it.  Calling the
    sample returns the mean: each piece of the sample (the draw, then
    every extension) is evaluated at the first call after it was added
    and merged in order, so the mean has the bits of evaluating each piece
    as it is drawn.  The gradient sample's mean is read after every
    growth; the Hessian sample is its ``SampleHessian``'s ``base``, which
    a differenced action asks for and an exact one never does.
    """

    def __init__(self, problem, x, idx, mean=None):
        self.idx = idx
        self._problem, self._x = problem, x
        self._mean, self._count = mean, 0 if mean is None else idx.size
        self._pending = [idx] if mean is None else []

    def grow(self, rng, size: int) -> bool:
        """Extend the sample to ``size`` indices; False when it has as many."""
        if size <= self.idx.size:
            return False
        self.idx, ext = extend_subsample(rng, self._problem.N, self.idx, size)
        self._pending.append(ext)
        return True

    def __call__(self) -> np.ndarray:
        for part in self._pending:
            mean = self._problem.gradient_mean(part, self._x)
            if self._count:
                mean = merged_mean(self._mean, self._count, mean, part.size)
            self._mean, self._count = mean, self._count + part.size
        self._pending = []
        return self._mean


def _grow_and_step(problem, x, omega, sigma, cfg, rng, known):
    """Step 1 of the method, growing the derivative samples, with the
    model's trial step (step 2).

    Each pass checks one accuracy level ``eps`` against the targets of the
    current step and accepts once it meets every one of them, or once
    every sample is the full sum, whose estimates are exact.  Otherwise it
    lowers ``eps`` and extends each sample to the size that ``eps`` asks.
    For p = 1 the one sample is the gradient's, the step is
    ``quadratic_step``'s, the target is omega * ||g|| and ``eps`` shrinks
    by ``gamma_eps``.  For p = 2 a Hessian sample follows it, the step
    comes from ``cubic_step`` and its two targets from
    ``accuracy_quantities``, and ``eps`` becomes the smallest of
    ``gamma_eps * eps`` and the targets, the size the current step asks
    for in one pass.  At q = 2 the targets come from the step without
    ``eps2``; a pass whose targets hold takes the q = 2 step on the same
    model, continuing that step's subspace, and checks them against it.
    Every loop takes the termination test (``_terminated``) once: a p = 2
    pass on full samples before its step, returning with no step when the
    test holds and otherwise taking the step with ``eps2`` at once; any
    other loop on its last pass's estimates, after the step.  Returns the
    last pass's ``StepRecord``.

    Within one loop x and sigma are fixed and samples only grow by
    extension, so a pass redoes only what grew.  The step is solved again
    only when a sample grew, and the ``SampleHessian`` (with the dense
    matrix it caches) is built only when H was drawn or grew; a full H
    sample reads back an exact Hessian already built at ``x`` in an
    earlier iteration (``_sample_hessian``).  A pass that grows neither
    sample keeps the previous step and its targets and is charged nothing;
    at p = 2 its ``eps`` already meets those targets, so it is the last.
    """
    N, n = problem.N, problem.n
    eps = cfg.kappa_eps
    eps2 = cfg.eps2 if cfg.q == 2 else None
    logs = [gradient_log_argument(n, cfg.t), hessian_log_argument(n, cfg.t)][: cfg.p]

    def size(log):
        return bernstein_size(cfg.kappa, eps, cfg.t, log, N)

    draws = [draw_subsample(rng, N, size(log)) for log in logs]
    g = _first_gradient(problem, draws[0], x, known)
    samples = [_SampleGradient(problem, x, draws[0], g)]
    if cfg.p == 2:
        # Two full draws are the same set at the same x: one evaluation serves both.
        shared = g if draws[0].size == draws[1].size == N else None
        samples.append(_SampleGradient(problem, x, draws[1], shared))

    def solve(model, eps2):
        """``cubic_step`` on ``model``, charged its columns: the step, its
        Taylor decrease and its accuracy targets."""
        nonlocal hvp_props
        s, diag = cubic_step(model, cfg.eps1, cfg.theta, eps2)
        hvp_props += diag["hvp_evals"] * samples[1].idx.size
        return s, diag["taylor_decrease"], accuracy_quantities(s, diag, omega)

    hessian = converged = None
    hvp_props = passes = 0
    grew = [True] * cfg.p
    taken = True  # whether s is the step the iteration takes
    while True:
        full = all(sample.idx.size == N for sample in samples)
        h_idx = samples[1].idx if cfg.p == 2 else _EMPTY
        if any(grew):
            # A new solve: the first pass, or a sample grew.  Caught here,
            # NaNs would otherwise surface inside the eigensolvers; the
            # Hessian estimate checks its own.
            g = samples[0]()
            grad_norm = float(np.linalg.norm(g))
            _require_finite("gradient", grad_norm)
            if cfg.p == 1:
                s, delta_t = quadratic_step(g, sigma)
                targets = [omega * grad_norm]
            else:
                if grew[1]:
                    hessian = _sample_hessian(problem, samples[1], x, known)
                if full:
                    # Exact estimates at x_k: test termination before the step.
                    converged = _terminated(cfg, g, hessian)
                    if converged:
                        return StepRecord(
                            g, samples[0].idx, h_idx, np.zeros(n), 0.0, hvp_props, passes + 1,
                            hessian, True,
                        )
                model = RegularisedModel(g, sigma, hessian)
                taken = eps2 is None or full  # full samples need no sizing step
                s, delta_t, targets = solve(model, eps2 if taken else None)

        passes += 1
        done = full or all(eps <= e for e in targets)
        if done and not taken:
            # The sizing step met its targets: take the q = 2 step on the
            # same samples and check the targets again against it.
            s, delta_t, targets = solve(model, eps2)
            taken, done = True, all(eps <= e for e in targets)
        if done:
            if converged is None:
                converged = _terminated(cfg, g, hessian)
            return StepRecord(
                g, samples[0].idx, h_idx, s, delta_t, hvp_props, passes, hessian, converged
            )
        eps = cfg.gamma_eps * eps if cfg.p == 1 else min(cfg.gamma_eps * eps, *targets)
        grew = [sample.grow(rng, size(log)) for sample, log in zip(samples, logs)]


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
    running iteration is completed first) or at the iteration cap.  The
    measures are tested once per iteration, on the estimates at x_k: at
    p = 2 by the growth pass that reaches full samples, before it takes a
    step, and otherwise after the growth loop, on its last pass's
    estimates.  An iteration that converges takes no step.  Exact
    losses are recorded in the trace for desk-scale problems and are never
    charged to the meter.  They are computed once per distinct iterate, and
    a full-sample function estimate doubles as the exact training loss, so
    ``test_loss`` must be a pure function of ``x`` (as must the problem's
    ``value_mean``, ``gradient_mean`` and ``hessian_action``): a rejected
    step records the values already measured, and a full first gradient
    draw or full Hessian sample at the unchanged ``x`` reads the gradient
    or exact Hessian already computed there.  An ``x0``
    of the wrong shape or with a NaN or infinite entry raises
    ``ValueError``.
    """
    config.validate()
    N, n = problem.N, problem.n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")

    sigma = config.sigma0
    rng = np.random.default_rng(config.seed)
    meter = CostMeter()
    trace: List[TraceEvent] = []
    iterates: Optional[List[np.ndarray]] = [x.copy()] if config.record_iterates else None
    successes = 0
    completed = 0
    stall = 0
    stop_reason = "iteration_cap"

    # Full-sample objective ("train"), test loss, full-sample gradient
    # ("grad") and exact full-sample Hessian ("hess") at x, each computed
    # at most once per iterate; emptied whenever x moves.  A full-sample
    # estimate is exact, so it doubles as the measurement and vice versa:
    # every full-set value is value_mean over 0..N-1 at the same x, bit for
    # bit, and a full first gradient draw or full Hessian sample after a
    # rejected step is the one already computed.  The meter still charges
    # every estimate.
    known = {}

    def exact_losses():
        if N > EXACT_LOSS_THRESHOLD:
            return None, None
        if "train" not in known:
            known["train"] = full_value(problem, x)
        if test_loss is not None and "test" not in known:
            known["test"] = float(test_loss(x))
        return known["train"], known.get("test")

    for k in range(config.max_iters):
        omega = config.omega(sigma)
        # Step 1, with the trial step (step 2) of either model.
        # The growth loop also takes the termination test on its estimates.
        step = _grow_and_step(problem, x, omega, sigma, config, rng, known)
        g, g_idx, h_idx, delta_t = step.g, step.g_idx, step.h_idx, step.delta_t
        grad_norm = float(np.linalg.norm(g))
        converged = step.converged

        d1_idx = d2_idx = _EMPTY
        f_x = None
        rho_k = math.nan if converged else -math.inf
        success = False
        # Steps 3 and 4: estimate f at both ends, then test acceptance.
        if not converged and delta_t > 0.0:
            nu0 = omega * delta_t  # underflow to 0 near stationarity asks the exact sum
            size = bernstein_size(config.kappa, nu0, config.t, value_log_argument(config.t), N)
            d1_idx = draw_subsample(rng, N, size)
            d2_idx = draw_subsample(rng, N, size)
            x_trial = x + step.s
            # A size-N draw is the full set, whose value may be known at x.
            if size == N and "train" in known:
                f_x = known["train"]
            else:
                f_x = problem.value_mean(d1_idx, x)
                if size == N:
                    known["train"] = f_x
            f_xs = problem.value_mean(d2_idx, x_trial)
            _require_finite("function", f_x)
            _require_finite("function", f_xs)
            rho_k = rho(f_x, f_xs, delta_t)
            success = rho_k >= config.eta
            if success:
                x = x_trial
                known.clear()
                if d2_idx.size == N:
                    known["train"] = f_xs
                successes += 1

        # Stall safeguard: a full-sample model (no Hessian sample for p = 1)
        # that predicts no decrease is genuinely stationary; repeated
        # occurrences cannot make progress.
        at_full = g_idx.size == N and h_idx.size in (0, N)
        stall = stall + 1 if not converged and delta_t <= 0.0 and at_full else 0
        if stall >= _STALL_LIMIT:
            raise SolverStallError(
                f"no predicted decrease in {stall} consecutive full-sample iterations"
            )

        g_d1_overlap = _overlap(g_idx, d1_idx)
        h_g_overlap = _overlap(h_idx, g_idx)
        meter.charge(
            iteration_charge(
                N, int(d1_idx.size), int(d2_idx.size), int(g_idx.size), g_d1_overlap,
                int(h_idx.size), h_g_overlap, step.hvp_props,
            )
        )
        train, test = exact_losses()
        event = TraceEvent(
            k, meter.total, sigma, omega, grad_norm, rho_k, int(success),
            int(d1_idx.size), int(d2_idx.size), int(g_idx.size), int(h_idx.size),
            g_d1_overlap, h_g_overlap, step.hvp_props,
            f_x, train, test,
        )
        trace.append(event)
        if on_event is not None:
            on_event(event)
        if converged:
            stop_reason = "converged"
            break
        completed = k + 1
        if iterates is not None:
            iterates.append(x.copy())

        # Steps 5 and 6: regulariser update; omega follows it.
        if success:
            sigma = max(config.sigma_min, sigma / config.gamma)
        else:
            sigma = config.gamma * sigma

        if meter.total >= config.budget_cm:
            stop_reason = "budget"
            break

    return SolverResult(
        x=x,
        trace=trace,
        stop_reason=stop_reason,
        iterations=completed,
        successes=successes,
        iterates=iterates,
    )
