"""Independent reference computations used to freeze expected values.

Everything here is deliberately naive (finite differences, grid scans,
derivative-free polish) and shares no code with the implementation paths
it checks.  The exceptions are the two growth-loop references:
``grow_gradient_reference``, the order-one loop as it stood on its own,
and ``grow_model_and_step_rebuild``, a reference for the order-two
loop's bookkeeping.  They call the same building blocks, and the second
redoes every one of them on every pass.  ``phi2_dense_brentq`` is the
dense order-two measure as it stood on SciPy's ``eigh`` and ``brentq``,
and ``load_dataset_reference`` the dataset loader as it stood on lists
of Python floats.
"""

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq, minimize, minimize_scalar

from subreg.model import RegularisedModel, accuracy_quantities
from subreg.optimality import TrustRegionResult, dense_path, phi_2
from subreg.sampling import (
    bernstein_size,
    draw_subsample,
    extend_subsample,
    gradient_log_argument,
    hessian_log_argument,
    merged_mean,
)
from subreg.solver import StepRecord, _first_gradient, _require_finite
from subreg.subproblem import cubic_step, quadratic_step


def central_diff_gradient(f, x, h=None):
    """Central finite-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def second_diff_quadform(f, x, u, v, h=1e-4):
    """Four-point second difference approximating u^T H(x) v."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        f(x + h * u + h * v)
        - f(x + h * u - h * v)
        - f(x - h * u + h * v)
        + f(x - h * u - h * v)
    ) / (4.0 * h * h)


def phi2_disc_oracle(g, H, grid=20001):
    """Unit-disc maximum of -g@d - 0.5 d@H@d for n = 2.

    Dense boundary angle scan plus a bounded scalar polish, with the
    interior stationary candidate added when the Hessian is positive
    definite.  Zero is always feasible.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    best = 0.0
    w = np.linalg.eigvalsh(H)
    if w.min() > 1e-12:
        d0 = -np.linalg.solve(H, g)
        if np.linalg.norm(d0) <= 1.0:
            best = max(best, float(-(g @ d0) - 0.5 * d0 @ H @ d0))
    thetas = np.linspace(0.0, 2.0 * np.pi, grid)
    D = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vals = -(D @ g) - 0.5 * np.einsum("ij,jk,ik->i", D, H, D)
    jbest = int(np.argmax(vals))
    span = thetas[1] - thetas[0]

    def neg_boundary_value(theta):
        d = np.array([np.cos(theta), np.sin(theta)])
        return float(g @ d + 0.5 * d @ H @ d)

    r = minimize_scalar(
        neg_boundary_value,
        bounds=(thetas[jbest] - 2 * span, thetas[jbest] + 2 * span),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return max(best, -float(r.fun))


def phi2_dense_brentq(g, H):
    """The dense unit-ball measure phi2 by SciPy's ``eigh`` (dsyevr) and
    ``brentq`` on 1/||d(mu)|| - 1, with a doubling search for the upper end
    of the bracket."""
    lam, Q = eigh(H)
    w = Q.T @ g
    lam1 = float(lam[0])
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    zero_shift = 1e-12 * scale
    mu_lo = max(0.0, -lam1)

    def direction(mu):
        shifted = lam + mu
        coef = np.zeros_like(w)
        active = shifted > zero_shift
        coef[active] = w[active] / shifted[active]
        return -(Q @ coef)

    def norm_at(mu):
        shifted = lam + mu
        active = shifted > zero_shift
        if np.abs(w[~active]).max(initial=0.0) > 1e-13 * (1.0 + np.linalg.norm(w)):
            return np.inf
        return float(np.linalg.norm(w[active] / shifted[active]))

    def result(d, mu, boundary):
        value = float(-(g @ d) - 0.5 * (d @ H @ d))
        leftmost = (lam1, Q[:, 0])
        return TrustRegionResult(d, value, float(mu), boundary, leftmost)

    if lam1 > zero_shift:
        d0 = direction(0.0)
        if np.linalg.norm(d0) <= 1.0:
            return result(d0, 0.0, False)
    probe = mu_lo + max(1e-14, 1e-14 * mu_lo)
    if norm_at(probe) < 1.0:
        d_f = direction(mu_lo)
        if mu_lo <= zero_shift:
            return result(d_f, 0.0, False)
        q1 = Q[:, 0]
        tau = float(np.sqrt(max(0.0, 1.0 - float(d_f @ d_f))))
        if float(g @ q1) > 0.0:
            tau = -tau
        return result(d_f + tau * q1, mu_lo, True)
    mu_hi = mu_lo + float(np.linalg.norm(g)) + 1.0
    secular = lambda mu: 1.0 / norm_at(mu) - 1.0
    while secular(mu_hi) < 0.0:
        mu_hi = mu_lo + 2.0 * (mu_hi - mu_lo)
    mu_star = brentq(secular, probe, mu_hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)
    d = direction(mu_star)
    nd = np.linalg.norm(d)
    if nd > 0.0:
        d = d / max(1.0, nd)
    return result(d, mu_star, True)


def phi2_spectral(lam, w):
    """phi2 of H = Q diag(lam) Q^T and g = Q w from the spectral data alone.

    Works in the leftmost shift t = min(lam) + mu, so that each lam_i + mu =
    (lam_i - min(lam)) + t keeps its relative accuracy next to the pole,
    bisects ||w / (lam + mu)|| = 1 to the last bit, and sums nonnegative
    terms: with r = w / (lam + mu) the value is 0.5 * sum r_i^2 (lam_i + 2 mu)
    plus 0.5 * mu * tau^2 for the completion tau along a leftmost
    eigenvector in the hard case.
    """
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(w, dtype=float)
    lam1 = float(lam.min())
    gaps = lam - lam1
    mu_lo = max(0.0, -lam1)
    t_lo = lam1 + mu_lo
    on = w != 0.0

    def coefficients(t):
        r = np.zeros_like(w)
        r[on] = w[on] / (gaps[on] + t)
        return r

    tau2 = 0.0
    if (gaps[on] + t_lo > 0.0).all() and np.linalg.norm(coefficients(t_lo)) <= 1.0:
        # Interior solution, or the hard case at mu_lo.
        t = t_lo
        r = coefficients(t)
        tau2 = max(0.0, 1.0 - float(r @ r))
    else:
        lo, hi = t_lo, t_lo + float(np.linalg.norm(w)) + 1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.linalg.norm(coefficients(mid)) > 1.0:
                lo = mid
            else:
                hi = mid
        t = hi
        r = coefficients(t)
        r /= np.linalg.norm(r)
    mu = t - lam1
    return float(0.5 * np.sum(r * r * (gaps + t + mu)) + 0.5 * mu * tau2)


def cubic_model_oracle(g, H, sigma, grid=25):
    """Global minimum of the cubic model by grid scan plus Powell polish.

    The search box comes from the stationarity bound
    ||s|| <= (||H|| + sqrt(||H||^2 + 2 sigma ||g||)) / sigma.
    Reliable for convex instances in dimension <= 3.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    n = g.size
    w = np.linalg.eigvalsh(H)
    hnorm = max(abs(w[0]), abs(w[-1]))
    radius = (hnorm + np.sqrt(hnorm**2 + 2.0 * sigma * np.linalg.norm(g))) / sigma + 1.0

    def m(s):
        s = np.asarray(s, dtype=float)
        return float(g @ s + 0.5 * s @ H @ s + sigma / 6.0 * np.linalg.norm(s) ** 3)

    pts = np.linspace(-radius, radius, grid)
    mesh = np.meshgrid(*([pts] * n), indexing="ij")
    S = np.stack([axis.ravel() for axis in mesh], axis=1)
    vals = S @ g + 0.5 * np.einsum("ij,jk,ik->i", S, H, S)
    vals += sigma / 6.0 * np.linalg.norm(S, axis=1) ** 3
    s0 = S[int(np.argmin(vals))]
    r = minimize(
        m,
        s0,
        method="Powell",
        options={"xtol": 1e-14, "ftol": 1e-16, "maxiter": 100000, "maxfev": 200000},
    )
    return min(float(r.fun), m(s0))


def sphere_scan_max(fun, n, samples=10_000, seed=0):
    """Maximum of ``fun(d)`` over random unit vectors."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((samples, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    return max(fun(d) for d in D)


def masked_sigmoid(z, clamp=500.0, lo=1e-300, hi=1.0 - 1e-16):
    """Logistic function by two masked branches: 1 / (1 + exp(-z)) where
    z >= 0 and exp(z) / (1 + exp(z)) elsewhere, clamped like the
    implementation."""
    z = np.clip(np.asarray(z, dtype=float), -clamp, clamp)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, lo, hi)


def terminated(cfg, g, hessian):
    """The termination test at x_k: ||g|| <= eps1 and, at q = 2, phi_2 of
    (g, ``hessian``) <= eps2 / 2; never at ``eps1 = 0``."""
    if not (cfg.eps1 > 0.0 and float(np.linalg.norm(g)) <= cfg.eps1):
        return False
    return cfg.q == 1 or phi_2(g, hessian, g.size).value <= cfg.eps2 / 2.0


def grow_gradient_reference(problem, x, omega, sigma, cfg, rng, known):
    """The order-one growth loop on its own: one gradient sample, grown
    until its accuracy level is at most omega * ||g|| or it is the full
    sum, then the quadratic step and the termination test.

    Same contract and return value as ``solver._grow_and_step`` at p = 1.
    """
    N = problem.N
    log_arg = gradient_log_argument(problem.n, cfg.t)
    eps = cfg.kappa_eps
    size = bernstein_size(cfg.kappa, eps, cfg.t, log_arg, N)
    idx = draw_subsample(rng, N, size)
    g = _first_gradient(problem, idx, x, known)
    passes = 1
    while idx.size < N and eps > omega * float(np.linalg.norm(g)):
        eps *= cfg.gamma_eps
        size = bernstein_size(cfg.kappa, eps, cfg.t, log_arg, N)
        if size > idx.size:
            old_count = idx.size
            idx, ext = extend_subsample(rng, N, idx, size)
            g = merged_mean(g, old_count, problem.gradient_mean(ext, x), ext.size)
        passes += 1
    _require_finite("gradient", float(np.linalg.norm(g)))
    s, delta_t = quadratic_step(g, sigma)
    return StepRecord(
        g, idx, np.empty(0, dtype=np.intp), s, delta_t, 0, passes, None, terminated(cfg, g, None)
    )


def grow_model_and_step_rebuild(problem, x, omega, sigma, cfg, rng, known):
    """The order-two growth loop that rebuilds everything on every pass.

    Same contract and return value as ``solver._grow_and_step`` at p = 2, but
    each pass builds a new ``SampleHessian`` and solves the cubic model
    again, whether or not a sample grew.  A pass sizes the samples from the
    step without ``eps2``; at q = 2, once its targets hold, it takes the
    step with ``eps2`` and checks the targets again against that one; on
    full samples, and at ``eps1 = 0`` on the dense path, it takes that step
    at once.  On full samples the termination test (``terminated``) comes
    first, and when it holds the loop returns the zero step, converged,
    with no solve on that pass; otherwise the loop takes it on the
    estimates it returns.  A pass that grew neither sample solves again
    for the step the previous pass ended with, and that solve is not
    charged; every other solve is charged its columns.  After each pass the
    accuracy level drops to the smallest of ``gamma_eps`` times itself and
    the step's targets.
    """
    N, n = problem.N, problem.n
    glog = gradient_log_argument(n, cfg.t)
    hlog = hessian_log_argument(n, cfg.t)
    eps = cfg.kappa_eps
    eps2 = cfg.eps2 if cfg.q == 2 else None

    g_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps, cfg.t, glog, N))
    g = _first_gradient(problem, g_idx, x, known)
    h_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps, cfg.t, hlog, N))

    hvp_props = 0
    passes = 0
    grew = True
    taken = False  # whether the previous pass ended with the step it would take
    while True:
        passes += 1
        _require_finite("gradient", float(np.linalg.norm(g)))
        hessian = problem.hessian_action(h_idx, x)
        model = RegularisedModel(g, sigma, hessian)
        full = g_idx.size == N and h_idx.size == N
        if full and terminated(cfg, g, hessian):
            return StepRecord(g, g_idx, h_idx, np.zeros(n), 0.0, hvp_props, passes, hessian, True)
        taken = (taken and not grew) or full or cfg.q == 1 or (cfg.eps1 == 0.0 and dense_path(n))
        s, diag = cubic_step(model, cfg.eps1, cfg.theta, eps2 if taken else None)
        if grew:
            hvp_props += diag["hvp_evals"] * h_idx.size
        targets = accuracy_quantities(s, diag, omega)
        done = full or all(eps <= e for e in targets)
        if done and not taken:
            s, diag = cubic_step(model, cfg.eps1, cfg.theta, eps2)
            hvp_props += diag["hvp_evals"] * h_idx.size
            taken = True
            targets = accuracy_quantities(s, diag, omega)
            done = full or all(eps <= e for e in targets)
        if done:
            delta_t = diag["taylor_decrease"]
            converged = not full and terminated(cfg, g, hessian)  # full: tested above
            return StepRecord(g, g_idx, h_idx, s, delta_t, hvp_props, passes, hessian, converged)

        eps = min(cfg.gamma_eps * eps, *targets)
        grew = False
        new_g = bernstein_size(cfg.kappa, eps, cfg.t, glog, N)
        if new_g > g_idx.size:
            old = g_idx.size
            g_idx, ext = extend_subsample(rng, N, g_idx, new_g)
            g = merged_mean(g, old, problem.gradient_mean(ext, x), ext.size)
            grew = True
        new_h = bernstein_size(cfg.kappa, eps, cfg.t, hlog, N)
        if new_h > h_idx.size:
            h_idx, _ = extend_subsample(rng, N, h_idx, new_h)
            grew = True


def gathered_sigmoid(problem, indices, x):
    """The bias-free sigmoid's mean value, Hessian action and dense Hessian
    over a sample, every row product taken on rows gathered block by block
    in ``problem._row_blocks``, as ``(value, action, dense)``.

    ``action`` takes an ``(n, k)`` block; ``dense`` builds the symmetrised
    matrix when called.
    """
    idx = np.sort(np.asarray(indices))
    a, y = problem.dataset.features, problem.dataset.labels
    blocks = [(rows, a[take], y[take]) for rows, take in problem._row_blocks(idx)]
    r = np.empty(idx.size)
    c = np.empty(idx.size)
    for rows, a_b, y_b in blocks:
        p = masked_sigmoid(a_b @ x)
        r[rows] = y_b - p
        dp = p * (1.0 - p)
        c[rows] = 2.0 * dp * (dp - (y_b - p) * (1.0 - 2.0 * p))
    c /= idx.size

    def action(V):
        out = np.zeros(V.shape)
        for rows, a_b, _ in blocks:
            out += a_b.T @ (c[rows][:, None] * (a_b @ V))
        return out

    def dense():
        H = np.zeros((x.size, x.size))
        for rows, a_b, _ in blocks:
            H += a_b.T @ (c[rows][:, None] * a_b)
        return 0.5 * (H + H.T)

    return float(np.sum(r * r) / idx.size), action, dense


def load_dataset_reference(path, fmt="csv", label_col=0, dim=None):
    """``(features, labels)`` of a well-formed dataset file, parsed one
    Python ``float`` at a time into lists, as ``harness.load_dataset`` did
    before it parsed rows with numpy."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    labels, rows = [], []
    if fmt == "csv":
        for line in lines:
            values = [float(tok) for tok in line.split(",")]
            labels.append(values.pop(label_col))
            rows.append(values)
        features = np.array(rows, dtype=float)
    else:
        entries = []
        for line in lines:
            tokens = line.split()
            labels.append(float(tokens[0]))
            entries.append([(int(i), float(v)) for i, v in (tok.split(":", 1) for tok in tokens[1:])])
        width = dim if dim is not None else max((i for pairs in entries for i, _ in pairs), default=0)
        features = np.zeros((len(entries), width))
        for row, pairs in enumerate(entries):
            for i, v in pairs:
                features[row, i - 1] = v
    return features, (np.array(labels) > 0.0).astype(float)
