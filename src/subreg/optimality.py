"""First- and second-order stationarity measures over the unit ball.

The order-one measure is the gradient norm.  The order-two measure is the
largest decrease of the quadratic model over the unit ball,

    phi2 = max_{||d|| <= 1} ( -g @ d - 0.5 * d @ H d ),

computed by safeguarded root-finding on the Lagrange multiplier of the
boundary-constrained problem, with the classic hard case (gradient
orthogonal to the leftmost eigenspace) handled by completing the boundary
solution along a leftmost eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, cg, eigsh

from .finite_sum import symmetric_part

__all__ = [
    "phi_1",
    "phi_2",
    "TrustRegionResult",
    "check_termination",
    "DENSE_MAX_N",
    "dense_path",
    "leftmost_eigenpair",
    "materialise_operator",
]

_EIGSH_SEED = 1423  # deterministic start-vector stream for the eigensolver
DENSE_MAX_N = 200  # largest order whose Hessian the eigensolvers materialise


def phi_1(g) -> float:
    """Euclidean norm of the gradient."""
    return float(np.linalg.norm(np.asarray(g, dtype=float)))


@dataclass
class TrustRegionResult:
    """Outcome of the unit-ball maximisation.

    Only ``value`` is contractual; the maximiser is diagnostic and ties are
    broken by the solver's deterministic iteration order.
    """

    direction: np.ndarray
    value: float
    multiplier: float
    boundary: bool


def check_termination(phis, epsilons) -> bool:
    """True iff phi_j <= eps_j / j for every order j = 1..q (inclusive)."""
    phis = list(phis)
    epsilons = list(epsilons)
    if len(phis) != len(epsilons):
        raise ValueError("need one tolerance per measure")
    return all(phi <= eps / (j + 1) for j, (phi, eps) in enumerate(zip(phis, epsilons)))


def dense_path(n: int) -> bool:
    """Whether the eigensolvers materialise an order-n Hessian (eigsh needs n >= 3)."""
    return n <= DENSE_MAX_N or n < 3


def materialise_operator(h_action, n: int, check_symmetry: bool = True):
    """Apply the action to the identity block and return a dense matrix.

    The action receives all n identity columns in one ``(n, n)`` call; a
    ``SampleHessian`` whose dense matrix is built answers it from that
    matrix.  With ``check_symmetry`` it raises if the result is asymmetric
    beyond 1e-3 relative to its scale (see ``finite_sum.symmetric_part``).
    """
    return symmetric_part(h_action(np.eye(n)), n, check_symmetry)


def leftmost_eigenpair(h_action, n: int):
    """Smallest eigenvalue and a unit eigenvector of a symmetric action.

    The dense path symmetrises the materialised action without checking it.
    """
    if dense_path(n):
        H = materialise_operator(h_action, n, check_symmetry=False)
        lam, q = eigh(H)
        return float(lam[0]), q[:, 0]
    op = LinearOperator((n, n), matvec=lambda v: np.asarray(h_action(v), dtype=float))
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    lam, vec = eigsh(op, k=1, which="SA", v0=v0, maxiter=50 * n, tol=1e-9)
    v = vec[:, 0]
    return float(lam[0]), v / np.linalg.norm(v)


def phi_2(g, h_action, n: int) -> TrustRegionResult:
    """Largest unit-ball decrease of the quadratic model (g, H).

    Dense path (n <= DENSE_MAX_N): materialise H through its action and
    root-find on the multiplier over the eigendecomposition; accurate to
    about 1e-6 in the value.  Iterative path: leftmost eigenpair plus
    conjugate-gradient solves inside a bisection on the multiplier,
    accurate to about 1e-3.  Either path first checks that the action is
    symmetric to 1e-3: the dense one on the whole matrix, the iterative
    one on two random pairs of vectors.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"gradient has shape {g.shape}, expected ({n},)")
    if dense_path(n):
        return _phi2_dense(g, materialise_operator(h_action, n))
    _check_symmetry_probabilistic(h_action, n)
    return _phi2_iterative(g, h_action, n)


def _check_symmetry_probabilistic(h_action, n: int):
    rng = np.random.default_rng(_EIGSH_SEED + 1)
    for _ in range(2):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = float(u @ np.asarray(h_action(v), dtype=float))
        right = float(v @ np.asarray(h_action(u), dtype=float))
        if abs(left - right) > 1e-3 * (1.0 + abs(left)):
            raise ValueError("Hessian action is not symmetric")


def _result(g, H_apply, d, mu, boundary) -> TrustRegionResult:
    value = float(-(g @ d) - 0.5 * (d @ H_apply(d)))
    return TrustRegionResult(direction=d, value=value, multiplier=float(mu), boundary=boundary)


def _phi2_dense(g: np.ndarray, H: np.ndarray) -> TrustRegionResult:
    lam, Q = eigh(H)
    w = Q.T @ g
    lam1 = float(lam[0])
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    zero_shift = 1e-12 * scale
    mu_lo = max(0.0, -lam1)

    def direction(mu: float) -> np.ndarray:
        shifted = lam + mu
        coef = np.zeros_like(w)
        active = shifted > zero_shift
        coef[active] = w[active] / shifted[active]
        return -(Q @ coef)

    def norm_at(mu: float) -> float:
        shifted = lam + mu
        active = shifted > zero_shift
        # A gradient component on a (numerically) singular block makes the
        # norm blow up as mu approaches the leftmost shift.
        if np.abs(w[~active]).max(initial=0.0) > 1e-13 * (1.0 + np.linalg.norm(w)):
            return np.inf
        return float(np.linalg.norm(w[active] / shifted[active]))

    apply_H = lambda d: H @ d

    # Interior solution: positive definite Hessian with a short Newton step.
    if lam1 > zero_shift:
        d0 = direction(0.0)
        if np.linalg.norm(d0) <= 1.0:
            return _result(g, apply_H, d0, 0.0, boundary=False)

    probe = mu_lo + max(1e-14, 1e-14 * mu_lo)
    if norm_at(probe) < 1.0:
        d_f = direction(mu_lo)
        if mu_lo <= zero_shift:
            # Positive semidefinite with the pseudo-solution inside the ball.
            return _result(g, apply_H, d_f, 0.0, boundary=False)
        # Hard case: complete the boundary solution along the leftmost
        # eigenvector, signed to not fight the linear term.
        q1 = Q[:, 0]
        tau = float(np.sqrt(max(0.0, 1.0 - float(d_f @ d_f))))
        if float(g @ q1) > 0.0:
            tau = -tau
        return _result(g, apply_H, d_f + tau * q1, mu_lo, boundary=True)

    mu_hi = mu_lo + float(np.linalg.norm(g)) + 1.0
    secular = lambda mu: 1.0 / norm_at(mu) - 1.0
    while secular(mu_hi) < 0.0:
        mu_hi = mu_lo + 2.0 * (mu_hi - mu_lo)
    mu_star = brentq(secular, probe, mu_hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)
    d = direction(mu_star)
    nd = np.linalg.norm(d)
    if nd > 0.0:
        d = d / max(1.0, nd)  # keep strictly feasible against round-off
    return _result(g, apply_H, d, mu_star, boundary=True)


def _phi2_iterative(g: np.ndarray, h_action, n: int) -> TrustRegionResult:
    apply_H = lambda v: np.asarray(h_action(v), dtype=float)
    lam1, q1 = leftmost_eigenpair(h_action, n)
    gnorm = float(np.linalg.norm(g))
    scale = max(1.0, abs(lam1), gnorm)
    mu_lo = max(0.0, -lam1)

    def solve(mu: float) -> np.ndarray:
        op = LinearOperator((n, n), matvec=lambda v: apply_H(v) + mu * v)
        d, info = cg(op, -g, rtol=1e-10, atol=0.0, maxiter=40 * n)
        if info < 0:
            raise RuntimeError("conjugate gradient failed in the multiplier search")
        return d

    if gnorm == 0.0 and lam1 >= -1e-12 * scale:
        return _result(g, apply_H, np.zeros(n), 0.0, boundary=False)

    if lam1 > 1e-12 * scale:
        d0 = solve(0.0)
        if np.linalg.norm(d0) <= 1.0:
            return _result(g, apply_H, d0, 0.0, boundary=False)

    probe = mu_lo + max(1e-8, 1e-8 * scale)
    d_probe = solve(probe)
    if np.linalg.norm(d_probe) < 1.0:
        tau = float(np.sqrt(max(0.0, 1.0 - float(d_probe @ d_probe))))
        if float(g @ q1) > 0.0:
            tau = -tau
        return _result(g, apply_H, d_probe + tau * q1, mu_lo, boundary=True)

    lo, hi = probe, mu_lo + gnorm + 1.0
    while np.linalg.norm(solve(hi)) > 1.0:
        hi = mu_lo + 2.0 * (hi - mu_lo)
    d = d_probe
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d = solve(mid)
        nd = float(np.linalg.norm(d))
        if abs(nd - 1.0) <= 1e-6:
            lo = hi = mid
            break
        if nd > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    mu_star = 0.5 * (lo + hi)
    d = solve(mu_star)
    nd = float(np.linalg.norm(d))
    if nd > 1.0:
        d = d / nd
    return _result(g, apply_H, d, mu_star, boundary=True)
