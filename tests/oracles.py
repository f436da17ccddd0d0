"""Independent reference computations used to freeze expected values.

Everything here is deliberately naive (finite differences, grid scans,
derivative-free polish) and shares no code with the implementation paths
it checks.  The exception is ``grow_model_and_step_rebuild``, a reference
for the order-two growth loop's bookkeeping: it calls the same building
blocks but redoes every one of them on every pass.
"""

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from subreg.model import AccuracyQuantities, RegularisedModel, accuracy_quantities
from subreg.sampling import (
    bernstein_size,
    draw_subsample,
    extend_subsample,
    gradient_log_argument,
    hessian_log_argument,
    merged_mean,
)
from subreg.solver import _first_gradient, _require_finite
from subreg.subproblem import cubic_step


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


def grow_model_and_step_rebuild(problem, x, omega, sigma, cfg, rng, known):
    """The order-two growth loop that rebuilds everything on every pass.

    Same contract and return value as ``solver._grow_model_and_step``, but
    each pass builds a new ``SampleHessian`` and solves the cubic model
    again, whether or not a sample grew.
    """
    N, n = problem.N, problem.n
    glog = gradient_log_argument(n, cfg.t)
    hlog = hessian_log_argument(n, cfg.t)
    eps_g = eps_h = cfg.kappa_eps

    g_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_g, cfg.t, glog, N))
    g = _first_gradient(problem, g_idx, x, known)
    h_idx = draw_subsample(rng, N, bernstein_size(cfg.kappa, eps_h, cfg.t, hlog, N))
    h_base = g if g_idx.size == h_idx.size == N else problem.gradient_mean(h_idx, x)

    hvp_props = 0
    passes = 0
    while True:
        passes += 1
        _require_finite("gradient", float(np.linalg.norm(g)) + float(np.linalg.norm(h_base)))
        hessian = problem.hessian_action(h_idx, x, base=h_base)
        model = RegularisedModel(g, sigma, hessian)
        eps2 = cfg.eps2 if cfg.q == 2 else None
        s, diag = cubic_step(model, cfg.eps1, cfg.theta, eps2)
        hvp_props += diag["hvp_evals"] * h_idx.size

        norm_s = float(np.linalg.norm(s))
        dtf = sigma * norm_s**3 / 6.0 - diag["model_value"]
        grad_norm = diag["grad_norm"]
        if cfg.q == 2:
            quantities = accuracy_quantities(model, s, diag["phi2"])
        else:
            degenerate = grad_norm == 0.0
            quantities = AccuracyQuantities(
                tau=norm_s if degenerate else max(norm_s, 1.0),
                delta_t_min=min(dtf, grad_norm),
                delta_t_f=dtf,
                model_grad_norm=grad_norm,
            )
        full = g_idx.size == N and h_idx.size == N
        targets = quantities.targets(omega)
        if full or (eps_g <= targets[0] and eps_h <= targets[1]):
            return g, g_idx, h_idx, s, quantities, hvp_props, passes, hessian

        eps_g *= cfg.gamma_eps
        eps_h *= cfg.gamma_eps
        new_g = bernstein_size(cfg.kappa, max(eps_g, 1e-300), cfg.t, glog, N)
        if new_g > g_idx.size:
            old = g_idx.size
            g_idx, ext = extend_subsample(rng, N, g_idx, new_g)
            g = merged_mean(g, old, problem.gradient_mean(ext, x), ext.size)
        new_h = bernstein_size(cfg.kappa, max(eps_h, 1e-300), cfg.t, hlog, N)
        if new_h > h_idx.size:
            old = h_idx.size
            h_idx, ext = extend_subsample(rng, N, h_idx, new_h)
            h_base = merged_mean(h_base, old, problem.gradient_mean(ext, x), ext.size)


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
