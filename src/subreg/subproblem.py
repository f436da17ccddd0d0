"""Trial-step computation for the regularised models.

The quadratic model has the closed-form global minimiser -g / sigma.  The
cubic model is minimised on an ``optimality.Basis`` grown from g by the
model gradient: in exact arithmetic the Lanczos basis of H and g (Gould,
Lucidi, Roma and Toint, SIAM J. Optim. 1999, in the cubic form of
Cartis, Gould and Toint 2011, Part I, section 6.2), whose model gradient
norm is the Lanczos residual beta_k |e_k^T y_k|; for second-order
optimality on the dense path, exactly (``optimality.cubic_minimiser`` on
the sample's dense matrix) unless that basis spans the space.  Every
step the solver returns satisfies m(s) <= m(0) = 0.
"""

from __future__ import annotations

import numpy as np

from .model import RegularisedModel, model_hessian_action, step_norm
from .optimality import Basis, cubic_minimiser, dense_path, downhill, leftmost_eigenpair, phi_2

__all__ = ["quadratic_step", "cubic_step"]

_MAX_ESCAPES = 20  # leftmost eigenvectors one q = 2 subspace solve may add
# A vector whose part orthogonal to the basis is below this share of its
# norm lies in the span: the basis cannot grow along it.
_IN_SPAN = 1e-12


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


def cubic_step(model: RegularisedModel, eps1: float, theta: float, eps2: float | None = None):
    """Approximately minimise the cubic model; the step has m(s) <= 0.

    The subspace grows, one column per basis vector (``iterations``),
    until the model gradient norm is at most theta * eps1 or the basis
    spans the space: at most n columns.  A solve with ``eps2`` continues
    the subspace that a solve without it at the same theta * eps1 left on
    the model, as a solve from scratch would grow it.  On the dense path
    it then takes the global minimiser from the eigendecomposition the
    model's ``SampleHessian`` keeps (n columns, no iteration, every
    tolerance met), unless the basis it continues spans the space and
    its step is that minimiser, reported alike.  Above, while phi_2 of
    the model at the step exceeds theta * eps2, it adds the leftmost
    eigenvector of the model Hessian there to the basis (``escapes``, at
    most 20) and goes on; each measure asks at most n + 4 columns.  ``converged`` says
    whether the tolerances were met, and ``hvp_evals`` counts the columns
    asked of the ``SampleHessian``.  ``model_value``, ``grad_norm`` and
    ``taylor_decrease = -g @ s - 0.5 s @ H s`` take H s from the exact
    step's product, as a fresh ``model.value_and_gradient(s)`` does, or
    from the basis's actions, which miss it by their error: round-off for
    an exact action (within 1e-13 of the terms' size on the sigmoid),
    about the square root of machine epsilon relative for a differenced
    one (within 1e-6 on a tanh net).
    """
    if not 0.0 < theta <= 0.5:
        raise ValueError("theta must lie in (0, 0.5]")
    H, n = model.hessian_action, model.n
    start = H.columns
    tol = theta * eps1
    sub = model.subspace
    object.__setattr__(model, "subspace", None)
    if eps2 is None or sub is None or sub.tol != tol:
        sub = _Subspace(model, tol)  # no solve to continue
    if eps2 is not None and dense_path(n) and sub.k < n:
        s = cubic_minimiser(model.grad, H.eigh(), model.sigma)
        H.columns += n  # the solve reads every column of the matrix
        return s, _report(model, s, H.dense() @ s, 0, n, True, 0)

    earlier, escapes = sub.k, 0  # basis vectors of the solve it continues
    # A continued descent has ended and asks no column.  On the dense path
    # its basis spans the space, so its step is the exact step's; above,
    # at the minimiser of a spanning basis the first-order test decides.
    converged = sub.descend(model) or (eps2 is not None and dense_path(n))
    while eps2 is not None and converged and sub.k < n:
        model_hessian = model_hessian_action(model, sub.s)
        converged = phi_2(sub.grad, model_hessian, n).value <= theta * eps2
        if converged or escapes == _MAX_ESCAPES:
            break
        lam1, d1 = leftmost_eigenpair(model_hessian, n)
        if lam1 >= -1e-12 or not sub.grow(model, downhill(sub.grad, d1), 1.0):
            break  # no curvature left to add at this accuracy
        escapes += 1
        converged = sub.descend(model)
    if eps2 is None:
        object.__setattr__(model, "subspace", sub)

    iterations = sub.k - earlier - escapes
    return sub.s, _report(model, sub.s, sub.hs, iterations, H.columns - start, converged, escapes)


class _Subspace(Basis):
    """The space a subspace solve minimises the model over, and its step.

    The basis grows by the model's own Hessian action.  ``s`` is the
    model's minimiser on the span, with the model gradient there and
    ``hs = H s``, both from the basis's actions.
    """

    def __init__(self, model: RegularisedModel, tol: float):
        super().__init__(model.hessian_action, model.n)
        self.tol, self.grad = tol, model.grad
        self.s, self.hs = np.zeros(model.n), np.zeros(model.n)

    def grow(self, model: RegularisedModel, v, norm: float) -> bool:
        """Add v's part orthogonal to the basis, where ``norm`` is ||v||,
        and minimise the model on the new span; False when v lies in the
        span."""
        if not self.add(v, _IN_SPAN * norm):
            return False
        k, Q, W = self.k, self.Q[: self.k], self.W[: self.k]
        y = cubic_minimiser(Q @ model.grad, np.linalg.eigh(self.T[:k, :k]), model.sigma)
        self.s, self.hs = Q.T @ y, W.T @ y
        self.grad = model.value_and_gradient(self.s, self.hs)[1]
        return True

    def descend(self, model: RegularisedModel) -> bool:
        """Grow along the model gradient until its norm is at most ``tol``
        or the basis spans the space; whether the norm is at most ``tol``.
        A descent that has ended asks nothing more."""
        norm = step_norm(self.grad)
        while norm > self.tol and self.grow(model, self.grad, norm):
            norm = step_norm(self.grad)
        return norm <= self.tol


def _report(model, s, hs, iterations, hvp_evals, converged, escapes):
    """The diagnostics of a solve that returns ``s``, with ``hs = H s``;
    it raises unless the step decreases the model."""
    value, grad, _ = model.value_and_gradient(s, hs)
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
