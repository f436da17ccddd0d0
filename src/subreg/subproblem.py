"""Trial-step computation for the regularised models.

The quadratic model has the closed-form global minimiser -g / sigma.  The
cubic model is minimised matrix-free with a Barzilai-Borwein spectral
gradient method under a nonmonotone Armijo line search; every point the
solver returns satisfies m(s) <= m(0) = 0.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import RegularisedModel, model_hessian_action
from .optimality import leftmost_eigenpair, phi_2

__all__ = ["BBConfig", "quadratic_step", "bb_step_length", "cubic_step"]


@dataclass(frozen=True)
class BBConfig:
    """Spectral-gradient solver parameters.

    The defaults are the standard choices for nonmonotone spectral gradient
    methods; all of them are configuration, none is load-bearing for
    correctness.
    """

    max_inner_iterations: int = 500
    lambda_min: float = 1e-10
    lambda_max: float = 1e10
    memory: int = 10
    sufficient_decrease: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.lambda_min < self.lambda_max:
            raise ValueError("need 0 < lambda_min < lambda_max")
        if self.memory < 1:
            raise ValueError("nonmonotone memory must be at least 1")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ValueError("sufficient decrease constant must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")


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


def bb_step_length(ds, dg, lambda_min: float, lambda_max: float) -> float:
    """Spectral step length (ds @ ds) / (ds @ dg), clamped to the bounds.

    Non-positive curvature along the last displacement gives no usable
    spectral estimate; the safeguard returns the upper bound.
    """
    ds = np.asarray(ds, dtype=float)
    dg = np.asarray(dg, dtype=float)
    denom = float(ds @ dg)
    if denom <= 0.0:
        return lambda_max
    return float(np.clip(float(ds @ ds) / denom, lambda_min, lambda_max))


def cubic_step(
    model: RegularisedModel,
    config: BBConfig,
    eps1: float,
    theta: float,
    eps2: float | None = None,
    dense_threshold: int = 200,
):
    """Approximately minimise the cubic model.

    Returns a step with m(s) <= 0 and, when the iteration budget allows,
    model gradient norm at most theta * eps1.  With ``eps2`` given the
    order-two model measure at the step is also pushed below theta * eps2
    by restarting along directions of negative curvature; when that test
    passes, the diagnostics carry its value at the returned step as
    ``phi2`` (otherwise None).  ``hvp_evals`` counts Hessian-action
    columns.  On budget exhaustion the best iterate found is returned with
    a diagnostic.
    """
    if model.order != 2:
        raise ValueError("cubic_step needs an order-2 model")
    if not 0.0 < theta <= 0.5:
        raise ValueError("theta must lie in (0, 0.5]")

    counter = {"hvp": 0}
    base_action = model.hessian_action

    def counted_action(v):
        # One action per column: a block (n, k) counts k.
        v = np.asarray(v, dtype=float)
        counter["hvp"] += 1 if v.ndim == 1 else v.shape[1]
        return np.asarray(base_action(v), dtype=float)

    m = dataclasses.replace(model, hessian_action=counted_action)
    n = m.n
    tol = theta * eps1

    s = np.zeros(n)
    value, grad = 0.0, m.grad.copy()
    history = deque([0.0], maxlen=config.memory)
    best_s, best_value = s, 0.0
    lam = 1.0 / m.sigma
    iterations = 0
    escapes = 0
    converged = False
    phi2_value = None

    def diagnostics():
        return {
            "iterations": iterations,
            "hvp_evals": counter["hvp"],
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
            lam1, d1 = leftmost_eigenpair(counted_action, n, dense_threshold)
        else:
            lam1, d1 = leftmost_eigenpair(
                model_hessian_action(m, s), n, dense_threshold
            )
        if lam1 >= -1e-12:
            return False
        # One-dimensional minimiser of 0.5 t^2 lam1 + (sigma/6) |t|^3.
        t = 2.0 * abs(lam1) / m.sigma
        for cand in (s + t * d1, s - t * d1):
            cand_value, cand_grad = m.value_and_gradient(cand)
            if cand_value < value:
                s, value, grad = cand, cand_value, cand_grad
                history.append(value)
                lam = 1.0 / m.sigma
                escapes += 1
                return True
        return False

    def second_order_ok():
        nonlocal phi2_value
        if eps2 is None:
            return True
        phi2_value = phi_2(m.gradient(s), model_hessian_action(m, s), n, dense_threshold).value
        return phi2_value <= theta * eps2

    while iterations < config.max_inner_iterations:
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
        for _ in range(config.max_backtracks):
            trial = s + alpha * direction
            trial_value, trial_grad = m.value_and_gradient(trial)
            if np.isfinite(trial_value) and (
                trial_value <= reference + config.sufficient_decrease * alpha * slope
            ):
                accepted = True
                break
            alpha *= config.backtrack_factor
        if not accepted:
            break  # line search stalled; fall back to the best iterate

        ds = trial - s
        dgrad = trial_grad - grad
        lam = bb_step_length(ds, dgrad, config.lambda_min, config.lambda_max)
        s, value, grad = trial, trial_value, trial_grad
        history.append(value)
        if value < best_value:
            best_s, best_value = s, value
        iterations += 1
        if not np.isfinite(value):
            raise RuntimeError(f"cubic model diverged: {diagnostics()}")

    if not converged and best_value < value:
        s, value = best_s, best_value
        grad = m.gradient(s)
    if value > 0.0:
        raise RuntimeError(f"cubic subproblem returned a non-descent step: {diagnostics()}")
    return s, diagnostics()
