"""Trial-step computation for the regularised models.

The quadratic model has the closed-form global minimiser -g / sigma.  The
cubic model is minimised exactly (``optimality.cubic_minimiser`` on the
sample's dense matrix) when the step targets second-order optimality on
the dense path, and otherwise on an ``optimality.Basis`` grown from g by
the model gradient: in exact arithmetic the Lanczos basis of H and g
(Gould, Lucidi, Roma and Toint, SIAM J. Optim. 1999, in the cubic form
of Cartis, Gould and Toint 2011, Part I, section 6.2), whose model
gradient norm is the Lanczos residual beta_k |e_k^T y_k|.  The curvature
measures of q = 2 solves there grow Krylov bases of the same class.
Every step the solver returns satisfies m(s) <= m(0) = 0.
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
    """Approximately minimise the cubic model.

    Returns a step with m(s) <= 0.  With ``eps2`` given on the dense path
    the step is the model's global minimiser, from the eigendecomposition
    the model's ``SampleHessian`` keeps: it meets every tolerance, takes no
    iteration and asks for the matrix's n columns.  Otherwise the subspace
    grows, one column per basis vector (``iterations``), until the model
    gradient norm is at most theta * eps1 or the basis spans the space,
    and the solve settles on its step with one more column there, so a
    solve asks at most n + 1 columns.  With ``eps2`` the solve then
    measures phi_2 of the model at its step and, while it exceeds
    theta * eps2, adds the leftmost eigenvector of the model Hessian there
    to the basis (``escapes``, at most 20) and goes on; each measure asks
    at most n + 4 columns (``optimality.phi_2``).  A solve with
    ``eps2`` continues the subspace that a solve without it at the same
    theta * eps1 left on the model, with the same result as a solve from
    scratch, and asks only the columns it adds.  ``converged`` says
    whether the tolerances were met.  The diagnostics carry ``grad_norm``
    and ``taylor_decrease = -g @ s - 0.5 s @ H s`` at the returned step,
    from the one action the solve asked there.  ``hvp_evals`` counts the
    columns asked of the model's ``SampleHessian``.
    """
    if not 0.0 < theta <= 0.5:
        raise ValueError("theta must lie in (0, 0.5]")
    H = model.hessian_action
    start = H.columns
    n, g = model.n, model.grad
    if eps2 is not None and dense_path(n):
        s = cubic_minimiser(g, H.eigh(), model.sigma)
        H.columns += n  # the solve reads every column of the matrix
        value, grad, hs = model.value_and_gradient(s, H.dense() @ s)
        return s, _report(model, s, value, grad, hs, 0, n, True, 0)

    tol = theta * eps1
    sub, earlier = model.subspace, 0
    object.__setattr__(model, "subspace", None)
    if eps2 is not None and sub is not None and sub.tol == tol:
        earlier = sub.k  # basis vectors of the solve it continues
    else:
        sub = _Subspace(model, tol)
        sub.descend(model)
    escapes = 0
    converged = sub.converged
    # At the global minimiser of a basis that spans the space the
    # first-order test decides.
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
    return sub.s, _report(
        model, sub.s, sub.value, sub.grad, sub.hs, iterations, H.columns - start, converged, escapes
    )


class _Subspace(Basis):
    """The space a subspace solve minimises the model over, and its step.

    The basis grows by the model's own Hessian action.  ``s`` is the
    model's minimiser on the span, with the model's value, gradient and
    action ``hs = H s`` there, and ``converged`` whether the gradient
    norm is at most ``tol``.
    """

    def __init__(self, model: RegularisedModel, tol: float):
        n = model.n
        super().__init__(model.hessian_action, n)
        self.tol, self.converged = tol, False
        self.s, self.hs, self.value, self.grad = np.zeros(n), np.zeros(n), 0.0, model.grad

    def grow(self, model: RegularisedModel, v, norm: float) -> bool:
        """Add v's part orthogonal to the basis, where ``norm`` is ||v||,
        and minimise the model on the new span; False when v lies in the
        span."""
        if not self.add(v, _IN_SPAN * norm):
            return False
        k, Q, W = self.k, self.Q[: self.k], self.W[: self.k]
        y = cubic_minimiser(Q @ model.grad, np.linalg.eigh(self.T[:k, :k]), model.sigma)
        self.s, self.hs = Q.T @ y, W.T @ y
        self.value, self.grad, _ = model.value_and_gradient(self.s, self.hs)
        return True

    def descend(self, model: RegularisedModel) -> bool:
        """Grow along the model gradient until its norm is at most ``tol``
        or the basis spans the space, then settle on the step: the model's
        measures there come from one action at the step, not from the
        basis's actions combined, and decide ``converged``."""
        norm = step_norm(self.grad)
        while norm > self.tol and self.grow(model, self.grad, norm):
            norm = step_norm(self.grad)
        if self.s.any():
            self.value, self.grad, self.hs = model.value_and_gradient(self.s)
        self.converged = step_norm(self.grad) <= self.tol
        return self.converged


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
