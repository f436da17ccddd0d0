"""Finite-sum objectives of the form f(x) = (1/N) * sum_i f_i(x).

The mean convention makes full-sample and subsampled evaluations directly
comparable.  All reductions run over ascending component indices so that
repeated evaluations are bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "FiniteSumProblem",
    "CustomProblem",
    "full_value",
    "full_gradient",
    "full_hvp",
]


def as_vector(x, n: int, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a float vector of length ``n``, raising on mismatch."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr


def as_index_set(indices, N: int) -> np.ndarray:
    """Validate a non-empty set of component indices and return it ascending.

    A set that is already ascending is not sorted again and may share
    memory with ``indices``; callers that keep the set beyond the call copy
    it.
    """
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size == 0:
        raise ValueError("index set must be non-empty")
    if not (idx[1:] >= idx[:-1]).all():
        idx = np.sort(idx)
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"component index out of range [0, {N})")
    return idx


class FiniteSumProblem:
    """Contract for objectives built from N component functions.

    Subclasses set ``n`` (parameter dimension) and ``N`` (component count)
    and implement per-component values and gradients.  Hessian information
    is exposed only through ``hessian_action``; by default the action is a
    forward difference of component gradients.  Instances must be
    read-only after construction so they can be evaluated concurrently.
    """

    n: int
    N: int

    def component_value(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def component_hvp(self, i: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.hessian_action([i], x)(v)

    # Batched means over an index subset.  The defaults loop over the
    # components; subclasses override them with vectorised code.

    def value_mean(self, indices, x) -> float:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        values = np.array([self.component_value(int(i), x) for i in idx])
        return float(values.sum() / idx.size)

    def gradient_mean(self, indices, x) -> np.ndarray:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        total = np.zeros(self.n)
        for i in idx:
            total += self.component_gradient(int(i), x)
        return total / idx.size

    def hessian_action(self, indices, x, base=None) -> Callable[[np.ndarray], np.ndarray]:
        """Mean Hessian action over a frozen index set, as a closure.

        The action is a forward difference of batched gradient means about
        ``base``, the gradient mean at ``x`` over the same indices; callers
        that already hold it pass it in, otherwise it is computed here once.
        Each call then costs one batched gradient evaluation at a shifted
        point.  Problems with analytic Hessians override this one method and
        may ignore ``base``.
        """
        idx = as_index_set(indices, self.N).copy()
        x = as_vector(x, self.n).copy()
        if base is None:
            base = self.gradient_mean(idx, x)
        u = float(np.finfo(float).eps)
        scale = float(np.sqrt(u)) * (1.0 + float(np.linalg.norm(x)))

        def action(v: np.ndarray) -> np.ndarray:
            v = as_vector(v, self.n, "v")
            if not v.any():
                return np.zeros(self.n)
            # Step balancing truncation against round-off.
            h = scale / max(float(np.linalg.norm(v)), u)
            return (self.gradient_mean(idx, x + h * v) - base) / h

        return action


class CustomProblem(FiniteSumProblem):
    """Finite-sum problem assembled from per-component callables.

    ``value(i, x)`` and ``gradient(i, x)`` are required; ``hvp(i, x, v)`` is
    optional and, when given, replaces the finite-difference Hessian action
    with the exact one.
    """

    def __init__(self, n: int, N: int, value, gradient, hvp=None):
        self.n = int(n)
        self.N = int(N)
        if self.n < 1 or self.N < 1:
            raise ValueError("n and N must be positive")
        self._value = value
        self._gradient = gradient
        self._hvp = hvp

    def component_value(self, i: int, x) -> float:
        return float(self._value(int(i), as_vector(x, self.n)))

    def component_gradient(self, i: int, x) -> np.ndarray:
        return as_vector(self._gradient(int(i), as_vector(x, self.n)), self.n, "gradient")

    def hessian_action(self, indices, x, base=None):
        if self._hvp is None:
            return super().hessian_action(indices, x, base)
        idx = as_index_set(indices, self.N).copy()
        x = as_vector(x, self.n).copy()

        def action(v: np.ndarray) -> np.ndarray:
            v = as_vector(v, self.n, "v")
            total = np.zeros(self.n)
            for i in idx:
                total += as_vector(self._hvp(int(i), x, v), self.n, "hvp")
            return total / idx.size

        return action


def full_value(problem: FiniteSumProblem, x) -> float:
    """Mean of all component values, ascending index order."""
    return problem.value_mean(np.arange(problem.N), x)


def full_gradient(problem: FiniteSumProblem, x) -> np.ndarray:
    """Mean of all component gradients, ascending index order."""
    return problem.gradient_mean(np.arange(problem.N), x)


def full_hvp(problem: FiniteSumProblem, x, v) -> np.ndarray:
    """Mean Hessian action over all components."""
    return problem.hessian_action(np.arange(problem.N), x)(v)

