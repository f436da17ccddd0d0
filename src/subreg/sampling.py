"""Bernstein-bound sample sizes, subsample draws and their empirical audit.

Sample sizes come from an operator-Bernstein tail inequality: averaging
``m`` uniformly drawn components approximates the full mean to accuracy
``nu`` with failure probability at most ``t`` once

    m >= (4 kappa / nu) (2 kappa / nu + 1/3) log(L),

where ``kappa`` bounds the component norms and ``L`` is 2/t for values,
(n+1)/t for gradients and 2n/t for Hessians.  Draws are uniform without
replacement, which concentrates at least as well as the with-replacement
setting the bound is stated for.

Reproducibility: all draws use a caller-supplied ``numpy.random.Generator``
(PCG64 when built via ``numpy.random.default_rng(seed)``), so a seed pins
every index set.
"""

from __future__ import annotations

import math

import numpy as np

from .finite_sum import FiniteSumProblem, full_gradient, full_value

__all__ = [
    "bernstein_size",
    "value_log_argument",
    "gradient_log_argument",
    "hessian_log_argument",
    "draw_subsample",
    "extend_subsample",
    "audit_accuracy",
]


def value_log_argument(t: float) -> float:
    return 2.0 / t


def gradient_log_argument(n: int, t: float) -> float:
    return (n + 1) / t


def hessian_log_argument(n: int, t: float) -> float:
    return 2.0 * n / t


def bernstein_size(kappa: float, nu: float, t: float, log_argument: float, N: int) -> int:
    """Subsample size meeting accuracy ``nu`` with failure probability ``t``.

    Clamped to [1, N]; the closed form can round to zero for loose accuracy
    targets and exceeds N near stationarity, where the exact mean is used.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if log_argument <= 1.0:
        raise ValueError("log_argument must exceed 1")
    if N < 1:
        raise ValueError("N must be positive")
    ratio = kappa / nu
    raw = 4.0 * ratio * (2.0 * ratio + 1.0 / 3.0) * math.log(log_argument)
    if not math.isfinite(raw):
        return int(N)
    return int(min(N, max(1, math.ceil(raw))))


def draw_subsample(rng: np.random.Generator, N: int, m: int) -> np.ndarray:
    """Draw m distinct indices uniformly from {0, ..., N-1}, ascending.

    The full draw m == N returns every index without consuming the
    generator, so full-sample runs do not depend on the seed.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 1 <= m <= N:
        raise ValueError(f"subsample size {m} outside [1, {N}]")
    if m == N:
        return np.arange(N, dtype=np.intp)
    idx = rng.choice(N, size=m, replace=False)
    return np.sort(idx.astype(np.intp))


def extend_subsample(rng: np.random.Generator, N: int, indices: np.ndarray, m: int):
    """Grow an existing draw to m indices by sampling from its complement.

    Extending a uniform without-replacement draw uniformly yields a uniform
    draw of the larger size, so grown sets keep the distribution of a fresh
    draw while each component is touched only once.  Returns the grown set
    and the extension block separately.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if m < indices.size:
        raise ValueError("cannot shrink a subsample")
    if m > N:
        raise ValueError(f"subsample size {m} exceeds N = {N}")
    if m == indices.size:
        return indices, np.empty(0, dtype=np.intp)
    complement = np.setdiff1d(np.arange(N, dtype=np.intp), indices, assume_unique=True)
    need = m - indices.size
    if need == complement.size:
        extra = complement
    else:
        extra = complement[np.sort(rng.choice(complement.size, size=need, replace=False))]
    return np.sort(np.concatenate([indices, extra])), np.sort(extra)


def audit_accuracy(
    problem: FiniteSumProblem,
    x,
    nu: float,
    kappa: float,
    t: float,
    order: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical failure rate of the Bernstein-sized estimator.

    Draws ``trials`` independent subsamples of the resolved size and counts
    how often the estimate misses the exact mean by more than ``nu``.  With
    ``kappa`` at least the true component norm bound the rate should stay
    below ``t``; smaller ``kappa`` values void the guarantee and the audit
    simply reports the observed rate.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 (values) or 1 (gradients)")
    if trials < 100:
        raise ValueError("audit needs at least 100 trials")
    if order == 0:
        log_arg = value_log_argument(t)
        exact = full_value(problem, x)
    else:
        log_arg = gradient_log_argument(problem.n, t)
        exact = full_gradient(problem, x)
    m = bernstein_size(kappa, nu, t, log_arg, problem.N)
    failures = 0
    for _ in range(trials):
        idx = draw_subsample(rng, problem.N, m)
        if order == 0:
            err = abs(problem.value_mean(idx, x) - exact)
        else:
            err = float(np.linalg.norm(problem.gradient_mean(idx, x) - exact))
        if err > nu:
            failures += 1
    return failures / trials


def merged_mean(mean_a, count_a: int, mean_b, count_b: int):
    """Combine two disjoint-block means into the mean of the union."""
    total = count_a + count_b
    return (mean_a * count_a + mean_b * count_b) / total
