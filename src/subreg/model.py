"""Regularised local models built from estimated derivatives.

A model of order p in the step s around the current iterate is

    p = 1:  m(s) = g @ s + (sigma/2) ||s||^2
    p = 2:  m(s) = g @ s + 0.5 s @ H s + (sigma/6) ||s||^3

with m(0) = 0 by construction; the constant objective term is omitted so
the model never depends on an estimated function value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import optimality
from .finite_sum import SampleHessian

__all__ = ["RegularisedModel", "AccuracyQuantities", "accuracy_quantities", "model_hessian_action"]


@dataclass(frozen=True)
class RegularisedModel:
    """Order-p model with fixed fields.

    An order-2 model's Hessian is a :class:`SampleHessian`; a plain
    callable is wrapped in one.  Its column counter and dense cache are
    state, so a model serves one solve at a time.
    """

    order: int
    grad: np.ndarray
    sigma: float
    hessian_action: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        if self.order not in (1, 2):
            raise ValueError("model order must be 1 or 2")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.order == 2 and self.hessian_action is None:
            raise ValueError("order-2 models need a Hessian action")
        if self.hessian_action is not None and not isinstance(self.hessian_action, SampleHessian):
            object.__setattr__(self, "hessian_action", SampleHessian(self.n, self.hessian_action))

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def _hs(self, s: np.ndarray) -> Optional[np.ndarray]:
        if self.order == 1:
            return None
        if not s.any():
            return np.zeros(self.n)
        return self.hessian_action(s)

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return self._value_with_hs(s, self._hs(s))

    def _value_with_hs(self, s: np.ndarray, hs: Optional[np.ndarray]) -> float:
        norm_s = float(np.linalg.norm(s))
        if self.order == 1:
            return float(self.grad @ s) + 0.5 * self.sigma * norm_s**2
        return float(self.grad @ s) + 0.5 * float(s @ hs) + self.sigma * norm_s**3 / 6.0

    def gradient(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self._gradient_with_hs(s, self._hs(s))

    def _gradient_with_hs(self, s: np.ndarray, hs: Optional[np.ndarray]) -> np.ndarray:
        if self.order == 1:
            return self.grad + self.sigma * s
        return self.grad + hs + 0.5 * self.sigma * float(np.linalg.norm(s)) * s

    def value_and_gradient(self, s):
        """Both quantities from a single Hessian action."""
        s = np.asarray(s, dtype=float)
        hs = self._hs(s)
        return self._value_with_hs(s, hs), self._gradient_with_hs(s, hs)

    def taylor_decrease(self, s) -> float:
        """Predicted decrease of the unregularised expansion at step s."""
        s = np.asarray(s, dtype=float)
        if self.order == 1:
            return -float(self.grad @ s)
        return -float(self.grad @ s) - 0.5 * float(s @ self._hs(s))

    def stationarity(self, s) -> float:
        """Norm of the model gradient, the order-one model measure."""
        return float(np.linalg.norm(self.gradient(s)))


def model_hessian_action(model: RegularisedModel, s) -> Callable[[np.ndarray], np.ndarray]:
    """Action of the model Hessian at s (order-2 models only).

    Like the model's own action it takes a vector ``(n,)`` or a block
    ``(n, k)``.
    """
    if model.order != 2:
        raise ValueError("only order-2 models expose a Hessian")
    s = np.asarray(s, dtype=float)
    norm_s = float(np.linalg.norm(s))
    base = model.hessian_action
    sigma = model.sigma

    def action(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        hv = base(v)
        if norm_s == 0.0:
            return hv
        if v.ndim == 1:
            return hv + 0.5 * sigma * (norm_s * v + (float(s @ v) / norm_s) * s)
        return hv + 0.5 * sigma * (norm_s * v + np.outer(s, (s @ v) / norm_s))

    return action


@dataclass
class AccuracyQuantities:
    """Step-dependent inputs to the adaptive derivative-accuracy targets.

    ``tau`` mixes the step norm with the unit-sphere maximiser norms of the
    model measures; ``delta_t_min`` is the smallest of the Taylor decrease
    at the step and the model measures themselves.
    """

    tau: float
    delta_t_min: float
    delta_t_f: float
    model_grad_norm: float
    phi2_value: Optional[float] = None

    def targets(self, omega: float, p: int) -> tuple:
        """Accuracy targets per derivative order: omega * dt_min / (6 tau^l)."""
        if self.tau <= 0.0:
            return tuple(0.0 for _ in range(1, p + 1))
        return tuple(omega * self.delta_t_min / (6.0 * self.tau**ell) for ell in range(1, p + 1))


def accuracy_quantities(
    model: RegularisedModel, s, q: int, dense_threshold: int = 200,
    phi2: Optional[float] = None,
) -> AccuracyQuantities:
    """Evaluate tau and the minimum decrease for the accuracy test at step s.

    Maximisers of the order-one measure lie on the unit sphere whenever the
    model gradient is nonzero, so their norm is one; when every measure is
    degenerate tau falls back to the step norm.  For q = 2 the order-two
    model measure is computed by the unit-ball trust-region solve, unless
    the caller already holds its value at s and passes it as ``phi2``.
    """
    if q not in (1, 2) or q > model.order:
        raise ValueError("q must be 1 or 2 and at most the model order")
    s = np.asarray(s, dtype=float)
    grad_norm = model.stationarity(s)
    dtf = model.taylor_decrease(s)
    candidates = [dtf, grad_norm]
    degenerate = grad_norm == 0.0
    if q == 1:
        phi2 = None
    else:
        if phi2 is None:
            phi2 = optimality.phi_2(
                model.gradient(s), model_hessian_action(model, s), model.n, dense_threshold
            ).value
        candidates.append(phi2)
        degenerate = degenerate and phi2 == 0.0
    tau = float(np.linalg.norm(s)) if degenerate else max(float(np.linalg.norm(s)), 1.0)
    return AccuracyQuantities(
        tau=tau,
        delta_t_min=float(min(candidates)),
        delta_t_f=dtf,
        model_grad_norm=grad_norm,
        phi2_value=phi2,
    )
