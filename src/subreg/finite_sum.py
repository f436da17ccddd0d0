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
    "SampleHessian",
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


def as_operand(v, n: int) -> np.ndarray:
    """Coerce a Hessian-action operand: a vector ``(n,)`` or a block ``(n, k)``."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] != n:
        raise ValueError(f"v has shape {arr.shape}, expected ({n},) or ({n}, k)")
    return arr


def by_columns(apply: Callable[[np.ndarray], np.ndarray]):
    """Extend a vector action to ``(n, k)`` blocks, one column at a time.

    Each column is passed as its own contiguous vector, so a block result
    equals the stacked vector results bit for bit.
    """

    def action(v: np.ndarray) -> np.ndarray:
        if v.ndim == 1:
            return apply(v)
        out = np.empty(v.shape)
        for j, column in enumerate(np.array(v.T)):
            out[:, j] = apply(column)
        return out

    return action


def symmetric_part(H, n: int, check_symmetry: bool = True) -> np.ndarray:
    """Validate an ``(n, n)`` Hessian matrix and return its symmetric part.

    With ``check_symmetry`` it raises if the matrix is asymmetric beyond
    1e-3 relative to its scale, which violates the Hessian-operator
    contract.  The tolerance accommodates actions built by differencing
    gradients, whose asymmetry is bounded by the differencing error.
    """
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n):
        raise ValueError(f"Hessian action returned shape {H.shape} for an ({n}, {n}) block")
    if check_symmetry:
        scale = 1.0 + float(np.abs(H).max(initial=0.0))
        if float(np.abs(H - H.T).max(initial=0.0)) > 1e-3 * scale:
            raise ValueError("Hessian action is not symmetric")
    return 0.5 * (H + H.T)


class SampleHessian:
    """Mean Hessian over a frozen index sample, answered as actions.

    Called with a vector ``(n,)`` or a block ``(n, k)`` it returns the
    action with the same shape, and ``columns`` counts every column asked
    for, however it is answered.  ``dense()`` builds the symmetrised
    n x n matrix once, with ``build`` when given and otherwise with one
    call of the action on the identity block, checks its symmetry like
    ``optimality.materialise_operator`` and keeps it; from then on every
    call is a product with that matrix and reads no data.  The build is
    not counted.  The counter and the cache make an instance stateful, so
    it belongs to one solve at a time.  A non-finite estimate raises
    ``FloatingPointError``: the matrix is checked once when it is built,
    and every action computed without it is checked.
    """

    def __init__(self, n: int, apply: Callable[[np.ndarray], np.ndarray], build=None):
        self.n = int(n)
        self.columns = 0
        self._apply = apply
        self._build = build
        self._dense = None

    def __call__(self, v) -> np.ndarray:
        v = as_operand(v, self.n)
        self.columns += 1 if v.ndim == 1 else v.shape[1]
        if self._dense is not None:
            return self._dense @ v
        return _finite(np.asarray(self._apply(v), dtype=float))

    def dense(self) -> np.ndarray:
        """The symmetrised matrix, built on the first call."""
        if self._dense is None:
            H = self._build() if self._build is not None else self._apply(np.eye(self.n))
            self._dense = symmetric_part(_finite(np.asarray(H, dtype=float)), self.n)
        return self._dense


def _finite(H: np.ndarray) -> np.ndarray:
    """``H``, unless it holds a NaN or an infinity."""
    if not np.isfinite(H).all():
        raise FloatingPointError("non-finite Hessian estimate")
    return H


def index_array(indices, N: int) -> np.ndarray:
    """Validate component indices, possibly none, and return them ascending.

    Indices must have an integer dtype (a float would be truncated and a
    boolean mask read as the indices 0 and 1) and lie in [0, N); repeats
    are kept.  An empty input may have any dtype, since ``np.asarray([])``
    is float.  An array that is already ascending is not sorted again and
    may share memory with ``indices``; callers that keep it beyond the
    call copy it.
    """
    arr = np.asarray(indices)
    if arr.size == 0:
        return np.empty(0, dtype=np.intp)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"component indices must have an integer dtype, not {arr.dtype}")
    idx = arr.astype(np.intp, copy=False).ravel()
    if not (idx[1:] >= idx[:-1]).all():
        idx = np.sort(idx)
    if idx[0] < 0 or idx[-1] >= N:
        raise ValueError(f"component index out of range [0, {N})")
    return idx


def as_index_set(indices, N: int) -> np.ndarray:
    """Validate a non-empty set of component indices and return it ascending.

    See ``index_array``; an empty set is refused whatever its dtype.
    """
    idx = index_array(indices, N)
    if idx.size == 0:
        raise ValueError("index set must be non-empty")
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

    def hessian_action(self, indices, x, base=None) -> SampleHessian:
        """Mean Hessian over a frozen index set, as a :class:`SampleHessian`.

        It takes a vector ``(n,)`` or a block ``(n, k)`` and returns the
        action with the same shape.  Here it is a forward difference of
        batched gradient means about ``base``, the gradient mean at ``x``
        over the same indices.  A caller that holds it passes it in, and one
        that can produce it passes a function of no arguments that returns
        it; otherwise it is computed here once.  Each column then costs one
        batched gradient evaluation at a shifted point, and ``dense()``
        costs n of them.  Problems with analytic Hessians override this one
        method and may ignore ``base``, so a function passed as ``base`` is
        then never called.
        """
        idx = as_index_set(indices, self.N).copy()
        x = as_vector(x, self.n).copy()
        if base is None:
            base = self.gradient_mean(idx, x)
        elif callable(base):
            base = base()
        u = float(np.finfo(float).eps)
        scale = float(np.sqrt(u)) * (1.0 + float(np.linalg.norm(x)))

        def action(v: np.ndarray) -> np.ndarray:
            if not v.any():
                return np.zeros(self.n)
            # Step balancing truncation against round-off.
            h = scale / max(float(np.linalg.norm(v)), u)
            return (self.gradient_mean(idx, x + h * v) - base) / h

        return SampleHessian(self.n, by_columns(action))


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
            total = np.zeros(self.n)
            for i in idx:
                total += as_vector(self._hvp(int(i), x, v), self.n, "hvp")
            return total / idx.size

        return SampleHessian(self.n, by_columns(action))


def full_value(problem: FiniteSumProblem, x) -> float:
    """Mean of all component values, ascending index order."""
    return problem.value_mean(np.arange(problem.N), x)


def full_gradient(problem: FiniteSumProblem, x) -> np.ndarray:
    """Mean of all component gradients, ascending index order."""
    return problem.gradient_mean(np.arange(problem.N), x)


def full_hvp(problem: FiniteSumProblem, x, v) -> np.ndarray:
    """Mean Hessian action over all components."""
    return problem.hessian_action(np.arange(problem.N), x)(v)

