"""First- and second-order stationarity measures over the unit ball.

The order-one measure is the gradient norm.  The order-two measure is the
largest decrease of the quadratic model over the unit ball,

    phi2 = max_{||d|| <= 1} ( -g @ d - 0.5 * d @ H d ),

computed by safeguarded Newton steps on the Lagrange multiplier of the
boundary-constrained problem (More and Sorensen, 1983), with the classic
hard case (gradient orthogonal to the leftmost eigenspace) handled by
completing the boundary solution along a leftmost eigenvector.  Up to
``DENSE_MAX_N`` unknowns numpy's ``eigh`` of ``SampleHessian.dense()``
serves that search; above, ``eigsh`` and conjugate-gradient solves to a
relative residual of 1e-10 serve the same search.

The same search and hard-case rule also give the global minimiser of
the cubic model from an eigendecomposition (``cubic_minimiser``), whose
multiplier is that of a ball of radius 2 mu / sigma: of a sample's dense
matrix, which its order-two measure shares, or of a subspace solve's
projected one.

SciPy serves only the iterative path (n > DENSE_MAX_N: ``eigsh`` and
``cg``), which only q = 2 solves reach, so it is imported on first use
there: ``import subreg``, p = 1, q = 1 at any n and q = 2 on n <=
DENSE_MAX_N load no SciPy submodule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_sum import SampleHessian
from .model import step_norm

__all__ = [
    "phi_1",
    "phi_2",
    "TrustRegionResult",
    "check_termination",
    "DENSE_MAX_N",
    "dense_path",
    "downhill",
    "leftmost_eigenpair",
    "cubic_minimiser",
]

_EIGSH_SEED = 1423  # deterministic start-vector stream for the eigensolver
DENSE_MAX_N = 200  # largest order whose Hessian the eigensolvers materialise
# Step tolerances of the dense multiplier search: brentq's, which the dense
# phi2 used before, so that the seeded traces keep their bits.
_MULTIPLIER_XTOL, _MULTIPLIER_RTOL = 1e-14, 8.9e-16
_MULTIPLIER_MAX_ITERATIONS = 100


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


def _sample_hessian(h_action, n: int) -> SampleHessian:
    """``h_action`` itself when it is an order-n ``SampleHessian``, whose
    matrix and decomposition are then reused; otherwise a new one."""
    if isinstance(h_action, SampleHessian) and h_action.n == n:
        return h_action
    return SampleHessian(n, h_action)


def downhill(g, v) -> np.ndarray:
    """``v`` or ``-v``, whichever has g @ v <= 0; where g @ v = 0, the one
    whose largest-magnitude entry is positive.

    Eigensolvers fix no sign, so a step along an eigenvector takes this
    orientation and does not depend on the one the eigensolver returned.
    """
    slope = float(g @ v)
    if slope > 0.0 or (slope == 0.0 and v[np.argmax(np.abs(v))] < 0.0):
        return -v
    return v


def leftmost_eigenpair(h_action, n: int):
    """Smallest eigenvalue and a unit eigenvector of a symmetric action.

    Only the dense path checks the action, on the matrix that
    ``SampleHessian.dense`` builds from it: one call on the identity block,
    none for a ``SampleHessian`` that holds its matrix already.
    """
    if dense_path(n):
        lam, q = _sample_hessian(h_action, n).eigh()
        return float(lam[0]), q[:, 0].copy()
    from scipy.sparse.linalg import LinearOperator, eigsh

    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    # ARPACK's tolerance is relative to the eigenvalue, which no residual
    # meets at a zero eigenvalue: shift by -2 ||H v0|| / ||v0||, at least
    # twice the leftmost eigenvalue of a positive definite H.  H v0 = 0
    # (H = 0 on a random v0) would give ARPACK a zero start: shift by 1.
    # ARPACK's test floors |lambda| at about eps^(2/3) (1e-11), below which
    # it stopped early, with the wrong sign on a spectrum of scale 1e-20:
    # dividing by the shift runs it at unit scale, and the eigenvalue is
    # scaled back.
    shift = 2.0 * float(np.linalg.norm(h_action(v0))) / float(np.linalg.norm(v0)) or 1.0
    op = LinearOperator((n, n), matvec=lambda v: np.asarray(h_action(v), dtype=float) / shift - v)
    lam, vec = eigsh(op, k=1, which="SA", v0=v0, maxiter=50 * n, tol=1e-9)
    v = vec[:, 0]
    return (float(lam[0]) + 1.0) * shift, v / np.linalg.norm(v)


def phi_2(g, h_action, n: int) -> TrustRegionResult:
    """Largest unit-ball decrease of the quadratic model (g, H).

    Both paths find the multiplier by the same safeguarded Newton steps
    and treat the hard case alike.  Dense path (n <= DENSE_MAX_N): build H
    with ``SampleHessian.dense`` and decompose it with numpy's ``eigh``,
    both read back from ``h_action`` when it is a ``SampleHessian`` that
    holds them; the value is accurate to about 1e-12 of itself plus
    machine precision times ||H||.  Iterative path, the only one that uses SciPy: leftmost
    eigenpair (``eigsh``) plus conjugate-gradient solves to a relative
    residual of 1e-10, each Newton step taking two.  Either path first
    checks that the action is symmetric to 1e-3: the dense one on the
    whole matrix, which must also be finite, the iterative one on two
    random pairs of vectors.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"gradient has shape {g.shape}, expected ({n},)")
    if dense_path(n):
        return _phi2_dense(g, _sample_hessian(h_action, n))
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


def _shifted_solves(lam, Q, w):
    """The dense searches' pieces for H = Q diag(lam) Q^T and w = Q^T g:
    the threshold below which a shift lam_i + mu counts as zero, the
    direction d(mu) = -(H + mu I)^+ g over the shifts above it, and its
    norm, infinite when g has a component on a zero shift, on Python
    floats as ``cubic_minimiser``'s search."""
    lam_f, w_f = lam.tolist(), w.tolist()
    zero_shift = 1e-12 * max(1.0, abs(lam_f[0]), abs(lam_f[-1]))  # lam ascends
    # A gradient component on a (numerically) singular block makes the
    # norm blow up as mu approaches the leftmost shift.
    blow_up = 1e-13 * (1.0 + math.hypot(*w_f))

    def direction(mu: float) -> np.ndarray:
        shifted = lam + mu
        coef = np.zeros_like(w)
        active = shifted > zero_shift
        coef[active] = w[active] / shifted[active]
        return -(Q @ coef)

    def norm_at(mu: float) -> float:
        coef = []
        for l, wi in zip(lam_f, w_f):
            if l + mu > zero_shift:
                coef.append(wi / (l + mu))
            elif abs(wi) > blow_up:
                return math.inf
        return math.hypot(*coef)

    return zero_shift, direction, norm_at


def _phi2_dense(g: np.ndarray, hessian: SampleHessian) -> TrustRegionResult:
    lam, Q = hessian.eigh()
    H = hessian.dense()
    w = Q.T @ g
    lam1 = float(lam[0])
    zero_shift, direction, norm_at = _shifted_solves(lam, Q, w)
    mu_lo = max(0.0, -lam1)
    apply_H = lambda d: H @ d

    # Interior solution: positive definite Hessian with a short Newton step.
    if lam1 > zero_shift:
        d0 = direction(0.0)
        if np.linalg.norm(d0) <= 1.0:
            return _result(g, apply_H, d0, 0.0, boundary=False)

    probe = mu_lo + max(1e-14, 1e-14 * mu_lo)
    if norm_at(probe) < 1.0:
        return _inside_or_hard_case(g, apply_H, direction(mu_lo), Q[:, 0], mu_lo, zero_shift)

    # Boundary solution.  Every shift lam_i + mu is positive above mu_lo, so
    # the search and the direction divide by all of them; at mu_lo + ||g|| + 1
    # each is above ||w||, so ||d|| < 1 there.
    def norm_and_slope(mu: float):
        """||d(mu)|| and sum r_i^2 / (lam_i + mu), with r = w / (lam + mu)."""
        shifted = lam + mu
        r = w / shifted
        return step_norm(r), float(r @ (r / shifted))

    hi = mu_lo + float(np.linalg.norm(g)) + 1.0
    mu_star = _boundary_multiplier(_unit_ball(norm_and_slope), probe, hi)
    d = -(Q @ (w / (lam + mu_star)))
    return _result(g, apply_H, d / np.linalg.norm(d), mu_star, boundary=True)


def cubic_minimiser(g, eigh, sigma: float) -> np.ndarray:
    """Global minimiser of the cubic model g @ s + 0.5 s @ H s +
    (sigma/6) ||s||^3, from the eigendecomposition ``eigh = (lam, Q)`` of
    H, ascending as ``np.linalg.eigh`` returns it.

    The minimiser solves (H + mu I) s = -g with mu = sigma ||s|| / 2 and
    H + mu I positive semidefinite (Cartis, Gould and Toint 2011, Part I,
    section 6.1; Nesterov and Polyak 2006): it solves phi_2's problem on
    the ball of radius 2 mu / sigma.  So it takes phi_2's Newton search, on
    the secular function 1/||s(mu)|| - sigma / (2 mu), which is increasing
    and concave as well, and phi_2's hard-case rule at that radius.
    """
    g = np.asarray(g, dtype=float)
    lam, Q = eigh
    w = Q.T @ g
    zero_shift, direction, norm_at = _shifted_solves(lam, Q, w)
    mu_lo = max(0.0, -float(lam[0]))

    def radius(mu: float) -> float:
        return 2.0 * mu / sigma

    probe = mu_lo + max(1e-14, 1e-14 * mu_lo)
    if norm_at(probe) < radius(probe):
        apply_H = lambda d: Q @ (lam * (Q.T @ d))
        return _inside_or_hard_case(
            g, apply_H, direction(mu_lo), Q[:, 0], mu_lo, zero_shift, radius(mu_lo)
        ).direction

    # Easy case: the root lies above the probe, where every shift is
    # positive.  ||s(mu)|| >= |w_i| / (lam_i + mu) puts it above the
    # positive root of 2 mu (lam_i + mu) = 2 sigma |w_i| for each i, and
    # ||s(mu)|| <= ||w|| / (lam_1 + mu) below that of
    # 2 mu (lam_1 + mu) = 2 sigma ||w||.  Python floats: on a subspace
    # solve's few entries numpy's calls cost more than the arithmetic.
    lam_f, w_f = lam.tolist(), w.tolist()
    sqrt_sigma = math.sqrt(sigma)
    lower = max(
        _multiplier_bound(l, math.sqrt(2.0 * abs(wi)) * sqrt_sigma) for l, wi in zip(lam_f, w_f)
    )
    upper = _multiplier_bound(lam_f[0], math.sqrt(2.0 * math.hypot(*w_f)) * sqrt_sigma)

    def newton(mu: float):
        """Whether the secular function is nonpositive at mu, and its
        Newton step, both scaled by radius * ||s|| so that neither
        overflows: (||s|| - r) / (r u @ (H + mu I)^-1 u + ||s|| / mu), with
        u = s / ||s||, whose norm ``math.hypot`` takes without underflow."""
        shifted = [l + mu for l in lam_f]
        r = [wi / d for wi, d in zip(w_f, shifted)]
        nd = math.hypot(*r)
        rad = radius(mu)
        slope = sum((ri / nd) ** 2 / d for ri, d in zip(r, shifted))
        return nd >= rad, (nd - rad) / (rad * slope + nd / mu)

    mu_star = _boundary_multiplier(newton, max(probe, lower), 2.0 * upper)
    return -(Q @ (w / (lam + mu_star)))


def _multiplier_bound(lam: float, t: float) -> float:
    """The positive root mu of 2 mu (lam + mu) = t^2, from the form that
    does not cancel."""
    root = math.hypot(lam, t)
    return t * (0.5 * t / (root + lam)) if lam > 0.0 else 0.5 * (root - lam)


def _unit_ball(norm_and_slope):
    """Newton steps on 1/||d(mu)|| - 1, whose derivative is
    d @ (H + mu I)^-1 d / ||d||^3, from ``norm_and_slope``'s ||d|| and
    that product."""

    def newton(mu: float):
        nd, slope = norm_and_slope(mu)
        return nd >= 1.0, (nd - 1.0) * nd * nd / slope

    return newton


def _boundary_multiplier(newton, lo: float, hi: float) -> float:
    """The root in [lo, hi] of an increasing concave secular function by
    safeguarded Newton steps.

    ``newton(mu)`` returns whether the function is nonpositive at mu and
    the Newton step from mu.  Newton's method then climbs to the root from
    the left (More and Sorensen, 1983).  The function is nonpositive at lo
    and positive at hi; a step that leaves the bracket is replaced by
    bisection.
    """
    mu = lo
    for _ in range(_MULTIPLIER_MAX_ITERATIONS):
        left, step = newton(mu)
        if left:
            lo = mu
        else:
            hi = mu
        if abs(step) <= _MULTIPLIER_XTOL + _MULTIPLIER_RTOL * abs(mu):
            return mu + step
        mu += step
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * (_MULTIPLIER_XTOL + _MULTIPLIER_RTOL * abs(mu)):
                return mu
    raise RuntimeError("the multiplier search did not converge")


def _inside_or_hard_case(g, apply_H, d_f, q1, mu_lo: float, zero_shift: float, radius=1.0):
    """The solution when ||d(mu)|| < ``radius`` just above the leftmost
    shift mu_lo.

    ``d_f`` is d(mu_lo) without its component along the leftmost
    eigenvector ``q1``.  For a positive semidefinite H (mu_lo <= ``zero_shift``)
    it is the solution; otherwise (hard case) it is completed to the
    boundary along q1, oriented by ``downhill``.
    """
    if mu_lo <= zero_shift:
        return _result(g, apply_H, d_f, 0.0, boundary=False)
    # Scaled by the radius, which 2 mu_lo / sigma can make too small to square.
    tau = radius * float(np.sqrt(max(0.0, 1.0 - float(d_f @ d_f) / radius / radius)))
    d = d_f + tau * downhill(g, q1)
    norm = float(np.linalg.norm(d))
    if norm > radius:  # keep feasible against round-off
        d /= norm / radius
    return _result(g, apply_H, d, mu_lo, boundary=True)


def _phi2_iterative(g: np.ndarray, h_action, n: int) -> TrustRegionResult:
    from scipy.sparse.linalg import LinearOperator, cg

    apply_H = lambda v: np.asarray(h_action(v), dtype=float)
    lam1, q1 = leftmost_eigenpair(h_action, n)
    gnorm = float(np.linalg.norm(g))
    scale = max(1.0, abs(lam1), gnorm)
    zero_shift = 1e-12 * scale
    mu_lo = max(0.0, -lam1)

    def solve(mu: float, rhs: np.ndarray) -> np.ndarray:
        op = LinearOperator((n, n), matvec=lambda v: apply_H(v) + mu * v)
        x, info = cg(op, rhs, rtol=1e-10, atol=0.0, maxiter=40 * n)
        if info < 0:
            raise RuntimeError("conjugate gradient failed in the multiplier search")
        return x

    if lam1 > zero_shift:
        d0 = solve(0.0, -g)
        if np.linalg.norm(d0) <= 1.0:
            return _result(g, apply_H, d0, 0.0, boundary=False)

    # CG cannot solve at mu_lo itself, where H + mu I is singular.
    probe = mu_lo + 1e-8 * scale
    d_probe = solve(probe, -g)
    if np.linalg.norm(d_probe) < 1.0:
        d_f = d_probe - float(q1 @ d_probe) * q1
        return _inside_or_hard_case(g, apply_H, d_f, q1, mu_lo, zero_shift)

    def norm_and_slope(mu: float):
        """||d(mu)|| and d @ (H + mu I)^-1 d."""
        d = d_probe if mu == probe else solve(mu, -g)
        return float(np.linalg.norm(d)), float(d @ solve(mu, d))

    mu_star = _boundary_multiplier(_unit_ball(norm_and_slope), probe, mu_lo + gnorm + 1.0)
    d = solve(mu_star, -g)
    return _result(g, apply_H, d / np.linalg.norm(d), mu_star, boundary=True)
