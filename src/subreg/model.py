"""The regularised cubic model built from estimated derivatives.

Around the current iterate the model in the step s is

    m(s) = g @ s + 0.5 s @ H s + (sigma/6) ||s||^3

with m(0) = 0 by construction; the constant objective term is omitted so
the model never depends on an estimated function value.  The quadratic
model of the p = 1 method has a closed-form minimiser and needs no object
(``subproblem.quadratic_step``).
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
    """Cubic model with fixed fields.

    The Hessian is a :class:`SampleHessian`; a plain callable is wrapped
    in one.  Its column counter and dense cache are state, so a model
    serves one solve at a time.
    """

    grad: np.ndarray
    sigma: float
    hessian_action: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not isinstance(self.hessian_action, SampleHessian):
            object.__setattr__(self, "hessian_action", SampleHessian(self.n, self.hessian_action))

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def _hs(self, s: np.ndarray) -> np.ndarray:
        if not s.any():
            return np.zeros(self.n)
        return self.hessian_action(s)

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return self._value_with_hs(s, self._hs(s))

    def _value_with_hs(self, s: np.ndarray, hs: np.ndarray) -> float:
        norm_s = float(np.linalg.norm(s))
        return float(self.grad @ s) + 0.5 * float(s @ hs) + self.sigma * norm_s**3 / 6.0

    def gradient(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self._gradient_with_hs(s, self._hs(s))

    def _gradient_with_hs(self, s: np.ndarray, hs: np.ndarray) -> np.ndarray:
        return self.grad + hs + 0.5 * self.sigma * float(np.linalg.norm(s)) * s

    def value_and_gradient(self, s):
        """Both quantities from a single Hessian action."""
        s = np.asarray(s, dtype=float)
        hs = self._hs(s)
        return self._value_with_hs(s, hs), self._gradient_with_hs(s, hs)

    def taylor_decrease(self, s) -> float:
        """Predicted decrease of the unregularised expansion at step s."""
        s = np.asarray(s, dtype=float)
        return -float(self.grad @ s) - 0.5 * float(s @ self._hs(s))

    def stationarity(self, s) -> float:
        """Norm of the model gradient, the order-one model measure."""
        return float(np.linalg.norm(self.gradient(s)))


def model_hessian_action(model: RegularisedModel, s) -> Callable[[np.ndarray], np.ndarray]:
    """Action of the model Hessian at s.

    Like the model's own action it takes a vector ``(n,)`` or a block
    ``(n, k)``.
    """
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
    at the step and the model measures themselves.  ``phi2_value`` is the
    order-two model measure, None when only first order is targeted.
    """

    tau: float
    delta_t_min: float
    delta_t_f: float
    model_grad_norm: float
    phi2_value: Optional[float] = None

    def targets(self, omega: float) -> tuple:
        """Gradient and Hessian accuracy targets: omega * dt_min / (6 tau^l)."""
        if self.tau <= 0.0:
            return 0.0, 0.0
        return tuple(omega * self.delta_t_min / (6.0 * self.tau**ell) for ell in (1, 2))


def accuracy_quantities(
    model: RegularisedModel, s, phi2: Optional[float] = None
) -> AccuracyQuantities:
    """Evaluate tau and the minimum decrease for the second-order accuracy
    test at step s.

    Maximisers of the order-one measure lie on the unit sphere whenever the
    model gradient is nonzero, so their norm is one; when both measures are
    degenerate tau falls back to the step norm.  The order-two model
    measure is computed by the unit-ball trust-region solve, unless the
    caller already holds its value at s and passes it as ``phi2``.
    """
    s = np.asarray(s, dtype=float)
    grad_norm = model.stationarity(s)
    dtf = model.taylor_decrease(s)
    if phi2 is None:
        phi2 = optimality.phi_2(model.gradient(s), model_hessian_action(model, s), model.n).value
    norm_s = float(np.linalg.norm(s))
    degenerate = grad_norm == 0.0 and phi2 == 0.0
    return AccuracyQuantities(
        tau=norm_s if degenerate else max(norm_s, 1.0),
        delta_t_min=float(min(dtf, grad_norm, phi2)),
        delta_t_f=dtf,
        model_grad_norm=grad_norm,
        phi2_value=phi2,
    )
