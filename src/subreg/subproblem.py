"""Trial-step computation for the regularised models.

The quadratic model has the closed-form global minimiser -g / sigma.  The
cubic model is minimised exactly when the step targets second-order
optimality and its Hessian is small enough to materialise
(``optimality.dense_path``): one eigendecomposition of the sample's dense
matrix gives the global minimiser (``optimality.cubic_minimiser``).
Otherwise it is minimised matrix-free with a Barzilai-Borwein spectral
gradient method under a nonmonotone Armijo line search.  Every point the
solver returns satisfies m(s) <= m(0) = 0.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .model import RegularisedModel, model_hessian_action
from .optimality import cubic_minimiser, dense_path, downhill, leftmost_eigenpair, phi_2

__all__ = ["quadratic_step", "bb_step_length", "cubic_step"]


# Spectral-gradient constants: the standard choices for nonmonotone
# spectral gradient methods.  They bound how the cubic model is minimised,
# not what the returned step satisfies.
_MAX_INNER_ITERATIONS = 500
_LAMBDA_MIN = 1e-10
_LAMBDA_MAX = 1e10
_MEMORY = 10
_SUFFICIENT_DECREASE = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60


def quadratic_step(g, sigma: float):
    """Global minimiser of the quadratic model and its Taylor decrease.

    The model gradient vanishes exactly at the returned step, so the inner
    stationarity condition holds for any tolerance.  A zero gradient yields
    the zero step with zero predicted decrease.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    s = -g / sigma
    return s, float(g @ g) / sigma


def bb_step_length(ds, dg) -> float:
    """Spectral step length (ds @ ds) / (ds @ dg), clamped to [1e-10, 1e10].

    Non-positive curvature along the last displacement gives no usable
    spectral estimate; the safeguard returns the upper bound.
    """
    ds = np.asarray(ds, dtype=float)
    dg = np.asarray(dg, dtype=float)
    denom = float(ds @ dg)
    if denom <= 0.0:
        return _LAMBDA_MAX
    return float(np.clip(float(ds @ ds) / denom, _LAMBDA_MIN, _LAMBDA_MAX))


def cubic_step(model: RegularisedModel, eps1: float, theta: float, eps2: float | None = None):
    """Approximately minimise the cubic model.

    Returns a step with m(s) <= 0.  With ``eps2`` given on the dense path
    (``optimality.dense_path``) the step is the model's global minimiser,
    from the eigendecomposition the model's ``SampleHessian`` keeps: it
    meets every tolerance, takes no iteration and asks for the matrix's n
    columns.  Otherwise 500 spectral-gradient iterations at most push the
    model gradient norm to theta * eps1, and with ``eps2`` given (n >
    ``DENSE_MAX_N``) the order-two model measure at the step below theta *
    eps2, by restarting along directions of negative curvature.  The
    diagnostics carry the model gradient norm ``grad_norm`` and the Taylor
    decrease ``taylor_decrease = -g @ s - 0.5 s @ H s`` at the returned
    step, from the action H s the solve took there (a product with the
    matrix for the exact solve).  ``hvp_evals`` counts the Hessian-action
    columns this solve asks the model's ``SampleHessian`` for, however they
    are answered.  When the iterations run out or the line search stalls,
    the best iterate found is returned with ``converged`` False.
    """
    if not 0.0 < theta <= 0.5:
        raise ValueError("theta must lie in (0, 0.5]")

    H = model.hessian_action
    start = H.columns
    n = model.n
    if eps2 is not None and dense_path(n):
        s = cubic_minimiser(model.grad, H, model.sigma)
        H.columns += n  # the solve reads every column of the matrix
        value, grad, hs = model.value_and_gradient(s, H.dense() @ s)
        return s, _report(model, s, value, grad, hs, 0, n, True, 0)
    tol = theta * eps1

    s = np.zeros(n)
    value, grad, hs = 0.0, model.grad.copy(), np.zeros(n)
    history = deque([0.0], maxlen=_MEMORY)
    best_s, best_value = s, 0.0
    lam = 1.0 / model.sigma
    iterations = 0
    escapes = 0
    converged = False

    def diagnostics():
        return _report(model, s, value, grad, hs, iterations, H.columns - start, converged, escapes)

    def try_escape():
        """Seed a move along estimated negative curvature; True on success."""
        nonlocal s, value, grad, hs, lam, escapes
        if escapes >= 20:
            return False
        lam1, d1 = leftmost_eigenpair(model_hessian_action(model, s), n)
        if lam1 >= -1e-12:
            return False
        d1 = downhill(grad, d1)
        # One-dimensional minimiser of 0.5 t^2 lam1 + (sigma/6) |t|^3.
        t = 2.0 * abs(lam1) / model.sigma
        for cand in (s + t * d1, s - t * d1):
            cand_value, cand_grad, cand_hs = model.value_and_gradient(cand)
            if cand_value < value:
                s, value, grad, hs = cand, cand_value, cand_grad, cand_hs
                history.append(value)
                lam = 1.0 / model.sigma
                escapes += 1
                return True
        return False

    while iterations < _MAX_INNER_ITERATIONS:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            # A stationary start (no decrease yet) is the saddle pathology of
            # pure gradient descent; probe curvature before accepting it.
            if value == 0.0 and try_escape():
                continue
            # The order-two model measure at s, from the model gradient held there.
            if eps2 is None or phi_2(grad, model_hessian_action(model, s), n).value <= theta * eps2:
                converged = True
                break
            if not try_escape():
                break  # no exploitable curvature left at this accuracy
            continue

        direction = -grad
        slope = -gnorm * gnorm
        reference = max(history)
        alpha = lam
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = s + alpha * direction
            # A huge trial may overflow; the finiteness test rejects it.
            with np.errstate(over="ignore", invalid="ignore"):
                trial_value, trial_grad, trial_hs = model.value_and_gradient(trial)
            if np.isfinite(trial_value) and (
                trial_value <= reference + _SUFFICIENT_DECREASE * alpha * slope
            ):
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
        if not accepted:
            break  # line search stalled; fall back to the best iterate

        ds = trial - s
        dgrad = trial_grad - grad
        lam = bb_step_length(ds, dgrad)
        s, value, grad, hs = trial, trial_value, trial_grad, trial_hs
        history.append(value)
        if value < best_value:
            best_s, best_value = s, value
        iterations += 1
        if not np.isfinite(value):
            raise RuntimeError(f"cubic model diverged: {diagnostics()}")

    if not converged and best_value < value:
        s, value = best_s, best_value
        _, grad, hs = model.value_and_gradient(s)
    return s, diagnostics()


def _report(model, s, value, grad, hs, iterations, hvp_evals, converged, escapes):
    """The diagnostics of a solve that returns ``s``, where the model has
    ``value`` and gradient ``grad`` from the action ``hs = H s``; it raises
    unless the step decreases the model."""
    report = {
        "iterations": iterations,
        "hvp_evals": hvp_evals,
        "converged": converged,
        "grad_norm": float(np.linalg.norm(grad)),
        "taylor_decrease": -float(model.grad @ s) - 0.5 * float(s @ hs),
        "model_value": value,
        "escapes": escapes,
    }
    if value > 0.0:
        raise RuntimeError(f"cubic subproblem returned a non-descent step: {report}")
    return report
