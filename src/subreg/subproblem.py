"""Trial-step computation for the regularised models.

The quadratic model has the closed-form global minimiser -g / sigma.  The
cubic model is minimised matrix-free with a Barzilai-Borwein spectral
gradient method under a nonmonotone Armijo line search; every point the
solver returns satisfies m(s) <= m(0) = 0.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .model import RegularisedModel, model_hessian_action
from .optimality import dense_path, leftmost_eigenpair, phi_2

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

    Returns a step with m(s) <= 0 and, when the 500 spectral-gradient
    iterations allow, model gradient norm at most theta * eps1.  With
    ``eps2`` given the order-two model measure at the step is also pushed
    below theta * eps2 by restarting along directions of negative
    curvature; when that test passes, the diagnostics carry its value at
    the returned step as ``phi2`` (otherwise None).  ``hvp_evals`` counts
    the Hessian-action columns this solve asks the model's
    ``SampleHessian`` for, however they are answered.  Where the
    eigensolvers take the dense path (``optimality.dense_path``) and the
    second-order test needs H, the dense matrix is built first, uncounted,
    and every later action is a product with it.  When the iterations run
    out or the line search stalls, the best iterate found is returned with
    ``converged`` False.
    """
    if not 0.0 < theta <= 0.5:
        raise ValueError("theta must lie in (0, 0.5]")

    H = model.hessian_action
    start = H.columns
    n = model.n
    if eps2 is not None and dense_path(n):
        # The second-order test materialises H on every converged solve.
        H.dense()
    tol = theta * eps1

    s = np.zeros(n)
    value, grad = 0.0, model.grad.copy()
    history = deque([0.0], maxlen=_MEMORY)
    best_s, best_value = s, 0.0
    lam = 1.0 / model.sigma
    iterations = 0
    escapes = 0
    converged = False
    phi2_value = None

    def diagnostics():
        return {
            "iterations": iterations,
            "hvp_evals": H.columns - start,
            "converged": converged,
            "grad_norm": float(np.linalg.norm(grad)),
            "model_value": value,
            "escapes": escapes,
            "phi2": phi2_value if converged else None,
        }

    def try_escape():
        """Seed a move along estimated negative curvature; True on success."""
        nonlocal s, value, grad, lam, escapes
        if escapes >= 20:
            return False
        if not s.any():
            lam1, d1 = leftmost_eigenpair(H, n)
        else:
            lam1, d1 = leftmost_eigenpair(model_hessian_action(model, s), n)
        if lam1 >= -1e-12:
            return False
        # One-dimensional minimiser of 0.5 t^2 lam1 + (sigma/6) |t|^3.
        t = 2.0 * abs(lam1) / model.sigma
        for cand in (s + t * d1, s - t * d1):
            cand_value, cand_grad = model.value_and_gradient(cand)
            if cand_value < value:
                s, value, grad = cand, cand_value, cand_grad
                history.append(value)
                lam = 1.0 / model.sigma
                escapes += 1
                return True
        return False

    def second_order_ok():
        nonlocal phi2_value
        if eps2 is None:
            return True
        action = model_hessian_action(model, s)
        phi2_value = phi_2(model.gradient(s), action, n).value
        return phi2_value <= theta * eps2

    while iterations < _MAX_INNER_ITERATIONS:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            # A stationary start (no decrease yet) is the saddle pathology of
            # pure gradient descent; probe curvature before accepting it.
            if value == 0.0 and try_escape():
                continue
            if second_order_ok():
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
            trial_value, trial_grad = model.value_and_gradient(trial)
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
        s, value, grad = trial, trial_value, trial_grad
        history.append(value)
        if value < best_value:
            best_s, best_value = s, value
        iterations += 1
        if not np.isfinite(value):
            raise RuntimeError(f"cubic model diverged: {diagnostics()}")

    if not converged and best_value < value:
        s, value = best_s, best_value
        grad = model.gradient(s)
    if value > 0.0:
        raise RuntimeError(f"cubic subproblem returned a non-descent step: {diagnostics()}")
    return s, diagnostics()
