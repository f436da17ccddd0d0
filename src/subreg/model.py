"""The regularised cubic model built from estimated derivatives.

Around the current iterate the model in the step s is

    m(s) = g @ s + 0.5 s @ H s + (sigma/6) ||s||^3

with m(0) = 0 by construction; the constant objective term is omitted so
the model never depends on an estimated function value.  The quadratic
model of the p = 1 method has a closed-form minimiser and needs no object
(``subproblem.quadratic_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .finite_sum import SampleHessian

__all__ = ["RegularisedModel", "accuracy_quantities", "model_hessian_action"]

_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))  # below it the squares of a norm underflow


def step_norm(s: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector s, bit for bit, except below about
    1e-154, where its squares underflow: there ``math.hypot``, which
    scales."""
    norm = math.sqrt(float(s @ s))
    return norm if norm >= _SQRT_TINY else math.hypot(*s.tolist())


@dataclass(frozen=True)
class RegularisedModel:
    """Cubic model with fixed fields.

    The Hessian is a :class:`SampleHessian`; a plain callable is wrapped
    in one.  Its column counter and dense cache are state, so a model
    serves one solve at a time.  So is ``subspace``, which a first-order
    solve leaves for a q = 2 solve to continue (``subproblem.cubic_step``).
    """

    grad: np.ndarray
    sigma: float
    hessian_action: Callable[[np.ndarray], np.ndarray]
    subspace: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not isinstance(self.hessian_action, SampleHessian):
            object.__setattr__(self, "hessian_action", SampleHessian(self.n, self.hessian_action))

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def value_and_gradient(self, s, hs=None):
        """Value, gradient and the Hessian action H s they share: one
        action, none when the caller passes ``hs = H s``."""
        s = np.asarray(s, dtype=float)
        if hs is None:
            hs = self.hessian_action(s) if s.any() else np.zeros(self.n)
        norm_s = step_norm(s)
        value = float(self.grad @ s) + 0.5 * float(s @ hs) + self.sigma * norm_s**3 / 6.0
        return value, self.grad + hs + 0.5 * self.sigma * norm_s * s, hs


def model_hessian_action(model: RegularisedModel, s) -> Callable[[np.ndarray], np.ndarray]:
    """Action of the model Hessian at s.

    Like the model's own action it takes a vector ``(n,)`` or a block
    ``(n, k)``.
    """
    s = np.asarray(s, dtype=float)
    norm_s = step_norm(s)
    base = model.hessian_action
    sigma = model.sigma

    def action(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        hv = base(v)
        if norm_s == 0.0:
            return hv
        return hv + 0.5 * sigma * (norm_s * v + np.multiply.outer(s, (s @ v) / norm_s))

    return action


def accuracy_quantities(s, diag: dict, omega: float) -> tuple:
    """Gradient and Hessian accuracy targets nu_l = omega * dT / (6 tau^l),
    l = 1, 2, at the step s that ``cubic_step`` returned with diagnostics
    ``diag``, where dT is the Taylor decrease it reports there and
    tau = max(||s||, 1).

    The framework the method builds on asks each derivative estimate to be
    accurate relative to the predicted decrease at the step: the Taylor
    decrease of the estimated derivatives may differ from the true one by
    at most omega * dT.  That difference is at most
    ||g - grad f|| ||s|| + ||H - hess f|| ||s||^2 / 2, so gradient and
    Hessian errors within nu_1 and nu_2 bound it by
    (omega * dT / 6) (||s|| / tau + ||s||^2 / (2 tau^2)) <= omega * dT / 4.
    The targets are arithmetic on the report and ask no Hessian action.  A
    zero decrease gives zero targets, which only the full sums meet.
    """
    tau = max(float(np.linalg.norm(s)), 1.0)
    return tuple(omega * diag["taylor_decrease"] / (6.0 * tau**ell) for ell in (1, 2))
