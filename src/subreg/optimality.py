"""First- and second-order stationarity measures over the unit ball.

The order-one measure is the gradient norm.  The order-two measure is the
largest decrease of the quadratic model over the unit ball,

    phi2 = max_{||d|| <= 1} ( -g @ d - 0.5 * d @ H d ),

computed by safeguarded Newton steps on the Lagrange multiplier of the
boundary-constrained problem (More and Sorensen, 1983), with the classic
hard case (gradient orthogonal to the leftmost eigenspace) handled by
completing the boundary solution along a leftmost eigenvector.  Up to
``DENSE_MAX_N`` unknowns numpy's ``eigh`` of ``SampleHessian.dense()``
serves that search.  Above, it runs on the projection of H onto a
``Basis``, an orthonormal Krylov basis of g and a seeded random start
(the Lanczos trust-region method of Gould, Lucidi, Roma and Toint, SIAM
J. Optim. 1999), which the cubic model's subspace solves grow too.  The
random start finds the curvature that a g-started space misses: the hard
case, and g = 0 at a saddle.  Either way the measure also returns the
leftmost eigenpair it solved with, which the cubic solve's escape reads.

The same search and hard-case rule also give the global minimiser of
the cubic model from an eigendecomposition (``cubic_minimiser``), whose
multiplier is that of a ball of radius 2 mu / sigma: of a sample's dense
matrix, which its order-two measure shares, or of a subspace solve's
projected one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    "Basis",
]

_START_SEED = 1423  # deterministic stream of the Krylov random start
DENSE_MAX_N = 200  # largest order whose Hessian the eigensolvers materialise
_KRYLOV_TOL = 1e-10  # residual at which a Krylov measure stops, relative to its scale
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
    broken by the solver's deterministic iteration order.  ``leftmost`` is
    the smallest eigenvalue of H and a unit eigenvector.
    """

    direction: np.ndarray
    value: float
    multiplier: float
    boundary: bool
    leftmost: tuple[float, np.ndarray]


def check_termination(phis, epsilons) -> bool:
    """True iff phi_j <= eps_j / j for every order j = 1..q (inclusive)."""
    phis = list(phis)
    epsilons = list(epsilons)
    if len(phis) != len(epsilons):
        raise ValueError("need one tolerance per measure")
    return all(phi <= eps / (j + 1) for j, (phi, eps) in enumerate(zip(phis, epsilons)))


def dense_path(n: int) -> bool:
    """Whether the eigensolvers materialise an order-n Hessian."""
    return n <= DENSE_MAX_N


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
    """Smallest eigenvalue and a unit eigenvector of a symmetric action:
    ``phi_2(np.zeros(n), h_action, n).leftmost``, with its symmetry check
    on both paths and its ``FloatingPointError`` on a non-finite action.
    Above ``DENSE_MAX_N`` the basis grows from the seeded random start
    alone, by the leftmost Ritz residual: at most n + 4 columns."""
    return phi_2(np.zeros(n), h_action, n).leftmost


def phi_2(g, h_action, n: int) -> TrustRegionResult:
    """Largest unit-ball decrease of the quadratic model (g, H).

    Both paths find the multiplier by the same safeguarded Newton steps
    and treat the hard case alike.  Dense path (n <= DENSE_MAX_N): build H
    with ``SampleHessian.dense`` and decompose it with numpy's ``eigh``,
    both read back from ``h_action`` when it is a ``SampleHessian`` that
    holds them; the value is accurate to about 1e-12 of itself plus
    machine precision times ||H||.  Krylov path: the projected problem of
    a basis of g and the seeded random start, grown by the residual
    (H + mu I) d + g, read from the basis's actions, to 1e-10 of ||g||
    plus the projected spectrum's scale, then by the leftmost Ritz
    residual to 1e-10 of that scale: at most n columns.  Either path
    first checks that the action is symmetric to 1e-3: the dense one on
    the whole matrix, the Krylov one on two random pairs of vectors (4
    columns).  A non-finite action raises ``FloatingPointError``.
    ``leftmost`` is column 0 of the dense ``eigh``, or the basis's
    converged leftmost Ritz pair lifted to the full space.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"gradient has shape {g.shape}, expected ({n},)")
    hessian = _sample_hessian(h_action, n)
    if dense_path(n):
        return _phi2_dense(g, hessian.dense(), hessian.eigh())
    _check_symmetry_probabilistic(hessian, n)
    return _krylov(g, hessian, n)


class Basis:
    """An orthonormal basis grown one vector at a time, with the actions
    of a symmetric operator on it.

    Row j of ``Q`` is the j-th basis vector and row j of ``W`` its action,
    and T = Q H Q^T; ``k`` rows are in use, and the buffers double when
    full.  Each vector added asks one column of ``action``.
    """

    def __init__(self, action, n: int):
        size = min(n, 8)
        self.action, self.n, self.k = action, n, 0
        self.Q, self.W, self.T = np.empty((size, n)), np.empty((size, n)), np.zeros((size, size))

    def add(self, v, floor: float) -> bool:
        """Add v's part orthogonal to the basis, orthogonalised twice,
        unless its norm is at most ``floor`` or the basis spans the space;
        whether it was added."""
        n, k = self.n, self.k
        for _ in range(2):
            v = v - self.Q[:k].T @ (self.Q[:k] @ v)
        rest = step_norm(v)
        if k == n or rest <= floor:
            return False
        if k == len(self.Q):
            size = min(n, 2 * k)
            self.Q, self.W = (np.resize(A, (size, n)) for A in (self.Q, self.W))
            self.T = np.pad(self.T, (0, size - k))
        Q, W, T = self.Q, self.W, self.T
        Q[k] = v / rest
        W[k] = self.action(Q[k])
        T[k, : k + 1] = T[: k + 1, k] = Q[: k + 1] @ W[k]
        self.k = k + 1
        return True


def _krylov(g, h_action, n: int) -> TrustRegionResult:
    """The Krylov path of ``phi_2``: its projected solution on the basis
    that neither residual grows, lifted to the full space.  Only a
    residual's part outside the basis counts, so a differenced, slightly
    asymmetric action converges as an exact one does."""
    gnorm, basis = step_norm(g), Basis(h_action, n)
    for v in (g, np.random.default_rng(_START_SEED).standard_normal(n)):
        basis.add(v, 0.0)
    while True:
        k = basis.k
        Q, W, T = basis.Q[:k], basis.W[:k], basis.T[:k, :k]
        lam, Y = np.linalg.eigh(T)
        scale = max(-float(lam[0]), float(lam[-1]))
        solution = _phi2_dense(Q @ g, T, (lam, Y))
        y, y1 = solution.direction, Y[:, 0]  # a view: a copy rounds the products otherwise
        if not (
            basis.add(W.T @ y + solution.multiplier * (Q.T @ y) + g, _KRYLOV_TOL * (gnorm + scale))
            or basis.add(W.T @ y1 - lam[0] * (Q.T @ y1), _KRYLOV_TOL * scale)
        ):
            break
    d, x = Q.T @ y, Q.T @ y1
    # The projected value is the value at d; keep d feasible against round-off.
    d /= max(1.0, step_norm(d))
    return replace(solution, direction=d, leftmost=(float(lam[0]), x / step_norm(x)))


def _check_symmetry_probabilistic(h_action, n: int):
    rng = np.random.default_rng(_START_SEED + 1)
    for _ in range(2):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        left = float(u @ np.asarray(h_action(v), dtype=float))
        right = float(v @ np.asarray(h_action(u), dtype=float))
        if abs(left - right) > 1e-3 * (1.0 + abs(left)):
            raise ValueError("Hessian action is not symmetric")


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


def _phi2_dense(g: np.ndarray, H: np.ndarray, eigh) -> TrustRegionResult:
    """phi2 of (g, H) for a symmetric matrix H and its eigendecomposition
    ``eigh = (lam, Q)``, ascending."""
    lam, Q = eigh
    w = Q.T @ g
    lam1 = float(lam[0])
    zero_shift, direction, norm_at = _shifted_solves(lam, Q, w)
    mu_lo = max(0.0, -lam1)

    def result(d, mu: float, boundary: bool) -> TrustRegionResult:
        value = float(-(g @ d) - 0.5 * (d @ (H @ d)))
        return TrustRegionResult(d, value, float(mu), boundary, (lam1, Q[:, 0].copy()))

    probe = mu_lo + max(1e-14, 1e-14 * mu_lo)
    if norm_at(probe) < 1.0:  # interior, d(0) for positive semidefinite H, or hard case
        d, mu = _inside_or_hard_case(g, direction(mu_lo), Q[:, 0], mu_lo, zero_shift)
        return result(d, mu, mu > 0.0)

    # Boundary solution.  Every shift lam_i + mu is positive above mu_lo, so
    # the search and the direction divide by all of them; at mu_lo + ||g|| + 1
    # each is above ||w||, so ||d|| < 1 there.
    def newton(mu: float):
        """Newton steps on 1/||d(mu)|| - 1, whose derivative is
        d @ (H + mu I)^-1 d / ||d||^3 = sum r_i^2 / (lam_i + mu) / ||d||^3,
        with r = w / (lam + mu)."""
        shifted = lam + mu
        r = w / shifted
        nd, slope = step_norm(r), float(r @ (r / shifted))
        return nd >= 1.0, (nd - 1.0) * nd * nd / slope

    hi = mu_lo + float(np.linalg.norm(g)) + 1.0
    mu_star = _boundary_multiplier(newton, probe, hi)
    d = -(Q @ (w / (lam + mu_star)))
    return result(d / np.linalg.norm(d), mu_star, True)


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
        s, _ = _inside_or_hard_case(g, direction(mu_lo), Q[:, 0], mu_lo, zero_shift, radius(mu_lo))
        return s

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


def _inside_or_hard_case(g, d_f, q1, mu_lo: float, zero_shift: float, radius=1.0):
    """The solution and its multiplier when ||d(mu)|| < ``radius`` just
    above the leftmost shift mu_lo.

    ``d_f`` is d(mu_lo) without its component along the leftmost
    eigenvector ``q1``.  For a positive semidefinite H (mu_lo <= ``zero_shift``)
    it is the solution, with multiplier 0; otherwise (hard case) it is
    completed to the boundary along q1, oriented by ``downhill``.
    """
    if mu_lo <= zero_shift:
        return d_f, 0.0
    # Scaled by the radius, which 2 mu_lo / sigma can make too small to square.
    tau = radius * float(np.sqrt(max(0.0, 1.0 - float(d_f @ d_f) / radius / radius)))
    d = d_f + tau * downhill(g, q1)
    norm = float(np.linalg.norm(d))
    if norm > radius:  # keep feasible against round-off
        d /= norm / radius
    return d, mu_lo
