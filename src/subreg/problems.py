"""Square-loss binary classifiers over a finite training set.

Two predictor families share the :class:`FiniteSumProblem` contract: a
bias-free single sigmoid ``net(a; x) = sigmoid(a @ x)`` and small
feed-forward networks with tanh hidden layers and a sigmoid output unit.
Component i of the objective is the squared residual on training sample i.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .finite_sum import FiniteSumProblem, SampleHessian, as_index_set, as_vector

__all__ = [
    "Dataset",
    "NetworkSpec",
    "SquaredLossProblem",
    "sigmoid",
    "predict",
    "initial_point",
    "testing_loss",
    "classification_rate",
]

# Saturation guards: arguments are clamped before exponentiation and outputs
# are kept strictly inside (0, 1) so residuals never reach +-1 exactly.
_ARG_CLAMP = 500.0
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16

# Partial index sets are gathered in row blocks of about this many bytes.
_BLOCK_BYTES = 2**20

# Row blocks hold a multiple of this many rows, and a dense set's in-place
# product covers whole groups of it (see ``SquaredLossProblem._margins``).
_GROUP = 64

# A row product is split across cores only from this many bytes of rows on.
# Below it waking a worker costs more than the split saves: on the 2-vCPU
# box a 20000 x 50 product took 481 us whole and 531 us split, an 80000 x 20
# one 747 and 786 us, and a 4800 x 5000 one 17.5 and 9.6 ms.
_SPLIT_BYTES = 16 * 2**20

# A value's sigmoid and residual run over chunks of this many entries, so
# their temporaries stay in cache and are not fresh N-long buffers.
_CHUNK = 2**15


def sigmoid(z):
    """Numerically stable logistic function, strictly inside (0, 1).

    ``z`` is never written to; the result is a new array, computed in place
    in two buffers.  A scalar or 0-d input gives a 0-d result.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return sigmoid(z.reshape(1))[0]
    return _sigmoid_into(z, np.empty(z.shape), np.empty(z.shape))


def _sigmoid_into(z, t, e):
    """Write ``sigmoid(z)`` into ``t`` (which may be ``z``), using ``e`` as
    scratch; all three have one shape.  Returns ``t``."""
    # np.maximum/np.minimum clamp as np.clip does, without its Python
    # wrapper; a NaN stays NaN.
    np.maximum(z, -_ARG_CLAMP, out=t)
    np.minimum(t, _ARG_CLAMP, out=t)
    # exp(-|z|) is exp(-z) for z >= 0 and exp(z) otherwise, so each entry
    # is 1 / (1 + exp(-z)) or exp(z) / (1 + exp(z)), the same operations
    # as two masked branches.  The numerator needs no select: for z < 0,
    # min(z, 0) is z, which is -|z| exactly, so its exp has the bits of e;
    # for z >= 0 it is exp(0) = 1.
    np.abs(t, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.minimum(t, 0.0, out=t)
    np.exp(t, out=t)
    t /= e
    np.maximum(t, _P_LO, out=t)
    np.minimum(t, _P_HI, out=t)
    return t


@functools.cache
def _blas_thread_query():
    """numpy's OpenBLAS thread-count query, or None where numpy exposes none."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    # dlsym on the extension's handle also searches the libraries it links.
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        query = getattr(lib, name, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return query
    return None


def _blas_threads() -> Optional[int]:
    """Threads numpy's BLAS runs one product on, or None when unknown."""
    query = _blas_thread_query()
    return None if query is None else int(query())


# Every this many large products one runs the way last measured slower, so
# that a change in how the machine shares its cores shows.
_PROBE = 16


class _SlabPool:
    """One process's row-slab workers, one per core but the caller's, and
    the measured cost of large products split among them and run whole.

    Splitting pays only while the cores really run in parallel.  On a
    2-vCPU virtual machine whose host at times gave both vCPUs about one
    core's time (the guest saw 30-37% of each vCPU's time stolen while
    splitting, under 6% while not), a split product cost 0.095-0.12 ns per
    byte against 0.085-0.089 run whole, and 0.057 when the host gave two
    cores.  So each large product runs the way whose moving average of
    seconds per byte is lower, except that the first two products try one
    way each and every ``_PROBE``-th product takes the other way.  Either
    way gives the same bits.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.executor = ThreadPoolExecutor(workers, "subreg-rows") if workers else None
        self._lock = threading.Lock()
        self._cost = {False: None, True: None}  # seconds per byte, by split
        self._products = 0

    def split_pays(self) -> bool:
        """Whether to split the next large product."""
        with self._lock:
            self._products += 1
            whole, split = self._cost[False], self._cost[True]
            if whole is None or split is None:
                return whole is not None
            return (split < whole) != (self._products % _PROBE == 0)

    def record(self, split: bool, seconds: float, nbytes: int) -> None:
        """Fold one product's time into the moving average of its way."""
        with self._lock:
            cost, old = seconds / nbytes, self._cost[split]
            self._cost[split] = cost if old is None else old + (cost - old) / 4


_pool_lock = threading.Lock()
_pool = None  # the process's _SlabPool, made by the first large product


def _forget_pool():
    """Drop the pool: a forked child has none of its parent's threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _slab_pool() -> _SlabPool:
    """This process's ``_SlabPool``; on one core it has no executor."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            _pool = _SlabPool(cores - 1)
        return _pool


def _row_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for C-contiguous rows ``a``, split across cores when large.

    With one BLAS thread a product over rows that start on a 64-row boundary
    rounds each row as one product over all of them does (see
    ``SquaredLossProblem._margins``), so the rows are cut at multiples of 64
    into one slab per core, each slab computed into its part of the result,
    the first by the caller and the others by the pool's workers.  A worker
    never submits work, so concurrent callers cannot deadlock.  A product
    is split only when it reads at least ``_SPLIT_BYTES``, BLAS reports
    exactly one thread (a threaded BLAS already spreads a product over the
    cores, and splitting it again oversubscribes them) and splitting has
    been measured to pay (``_SlabPool``).  Otherwise this is ``a @ x``.
    """
    if a.nbytes < _SPLIT_BYTES or not a.flags.c_contiguous or _blas_threads() != 1:
        return a @ x
    pool = _slab_pool()
    rows = a.shape[0]
    # At least 64 rows per slab, so that no slab is a lone row, which numpy
    # computes as a vector product.
    k = min(pool.workers + 1, rows // _GROUP)
    if k < 2:
        return a @ x
    split = pool.split_pays()
    start = time.perf_counter()
    if not split:
        z = a @ x
    else:
        cuts = [rows * i // k // _GROUP * _GROUP for i in range(k)] + [rows]
        z = np.empty(rows)
        futures = [
            pool.executor.submit(np.matmul, a[lo:hi], x, out=z[lo:hi])
            for lo, hi in zip(cuts[1:-1], cuts[2:])
        ]
        try:
            np.matmul(a[: cuts[1]], x, out=z[: cuts[1]])
        finally:
            for future in futures:
                future.result()
    pool.record(split, time.perf_counter() - start, a.nbytes)
    return z


@dataclass
class Dataset:
    """Feature matrix with binary labels.

    ``features`` has one finite row per sample; ``labels`` entries must be 0
    or 1.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # Row-major like a gathered subset, so that a full-sample evaluation
        # in place runs the same BLAS calls as one over copied rows.
        self.features = np.ascontiguousarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array (N, d)")
        # min and max propagate NaN and reach any infinity without the N x d
        # temporary of isfinite(features), which inflates the heap.
        f = self.features
        if f.size and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            raise ValueError("features must be finite (found NaN or infinity)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector with one entry per sample")
        if self.labels.size and not np.isin(self.labels, (0.0, 1.0)).all():
            raise ValueError("labels must lie in {0, 1}")

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the predictor.

    Empty ``hidden_sizes`` selects the bias-free single sigmoid, in which
    case the parameter count equals the input dimension.  With hidden
    layers each layer carries a bias and the output layer has width one.
    """

    input_dim: int
    hidden_sizes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden layer widths must be positive")

    @property
    def layer_dims(self) -> tuple:
        if not self.hidden_sizes:
            return ()
        return (self.input_dim, *self.hidden_sizes, 1)

    @property
    def parameter_count(self) -> int:
        if not self.hidden_sizes:
            return self.input_dim
        dims = self.layer_dims
        return sum((din + 1) * dout for din, dout in zip(dims[:-1], dims[1:]))


def _unpack(spec: NetworkSpec, x: np.ndarray):
    """Split a flat parameter vector into per-layer (W, b) pairs."""
    dims = spec.layer_dims
    layers = []
    pos = 0
    for din, dout in zip(dims[:-1], dims[1:]):
        w = x[pos : pos + din * dout].reshape(dout, din)
        pos += din * dout
        b = x[pos : pos + dout]
        pos += dout
        layers.append((w, b))
    return layers


def initial_point(spec: NetworkSpec, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Starting parameters: zeros for the no-net model, seeded uniform
    weights in +-sqrt(6 / (fan_in + fan_out)) with zero biases otherwise.

    A zero start would make every tanh layer identically zero, so layered
    networks require a generator.
    """
    if not spec.hidden_sizes:
        return np.zeros(spec.input_dim)
    if rng is None:
        raise ValueError("layered networks need a seeded generator for initialisation")
    parts = []
    dims = spec.layer_dims
    for din, dout in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (din + dout))
        parts.append(rng.uniform(-limit, limit, size=din * dout))
        parts.append(np.zeros(dout))
    return np.concatenate(parts)


def _forward(spec: NetworkSpec, x: np.ndarray, features: np.ndarray):
    """Batched forward pass.

    Returns the predictions and, for layered networks, the list of hidden
    activations needed by backpropagation.
    """
    if not spec.hidden_sizes:
        return sigmoid(_row_product(features, x)), None
    layers = _unpack(spec, x)
    acts = [features]
    h = features
    for w, b in layers[:-1]:
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    w_out, b_out = layers[-1]
    p = sigmoid((h @ w_out.T + b_out)[:, 0])
    return p, acts


def predict(spec: NetworkSpec, x, a) -> float:
    """Predicted label probability for a single feature vector."""
    x = as_vector(x, spec.parameter_count)
    a = as_vector(a, spec.input_dim, "a")
    if not np.isfinite(a).all() or not np.isfinite(x).all():
        raise FloatingPointError("non-finite input to predict")
    p, _ = _forward(spec, x, a[None, :])
    return float(p[0])


class SquaredLossProblem(FiniteSumProblem):
    """Training loss (1/N) * sum_i (y_i - net(a_i; x))^2 as a finite sum.

    The dataset arrays are read and never written.  The full set is
    evaluated on them in place.  A partial set's rows are gathered, at once
    for a network's gradient and a sigmoid gradient over at most N/8 rows,
    and in blocks otherwise, except that the bias-free sigmoid's row
    products over most of N are read in place (``_margins``).  Those
    in-place products, and the bias-free forward pass of a gradient, are
    split across cores when large, BLAS runs one thread and splitting is
    measured to pay, with the bits of one product (``_row_product``).  An
    instance holds no mutable state of its own, so several threads may
    evaluate it at once.
    """

    def __init__(self, dataset: Dataset, spec: NetworkSpec):
        if dataset.d != spec.input_dim:
            raise ValueError(
                f"dataset dimension {dataset.d} does not match network input {spec.input_dim}"
            )
        if dataset.N < 1:
            raise ValueError("training set is empty")
        self.dataset = dataset
        self.spec = spec
        self.n = spec.parameter_count
        self.N = dataset.N
        # A multiple of 64 rows, so that block edges fall on whole groups of
        # the rows that BLAS kernels compute together: with one BLAS thread a
        # product over row blocks then rounds each row as one product over
        # all the rows does.
        self._block = max(_GROUP, _BLOCK_BYTES // (8 * dataset.d) // _GROUP * _GROUP)

    def component_value(self, i: int, x) -> float:
        return self.value_mean(np.array([i]), x)

    def component_gradient(self, i: int, x) -> np.ndarray:
        return self.gradient_mean(np.array([i]), x)

    def _is_full(self, idx: np.ndarray) -> bool:
        """Whether an index set validated by ``as_index_set`` is 0..N-1.

        A validated set is ascending and inside [0, N) but may repeat
        indices, so a size-N set is the full set exactly when it has no
        repeats.
        """
        return idx.size == self.N and bool((idx[1:] != idx[:-1]).all())

    def _rows(self, idx: np.ndarray):
        """Features and labels of a validated index set.

        The full set reads the dataset arrays in place; any other set
        gathers a copy of its rows.
        """
        if self._is_full(idx):
            return self.dataset.features, self.dataset.labels
        return _take(self.dataset.features, idx), _take(self.dataset.labels, idx)

    def _row_blocks(self, idx: np.ndarray):
        """Yield ``(rows, take)`` per row block of a validated index set.

        ``rows`` slices ``idx``; ``take`` indexes the dataset arrays: the
        same slice for the full set, which reads them in place, and the
        block's indices otherwise, which gather a copy.  The partition also
        fixes the bits of every row product, gathered or not (``_margins``).
        Gathering inside the expression that uses the block frees it before
        the next one is read.  A lone trailing row joins the block before
        it, because numpy computes a one-row matrix product as a vector
        product, which rounds differently.
        """
        full = self._is_full(idx)
        starts = list(range(0, idx.size, self._block))
        if len(starts) > 1 and idx.size - starts[-1] == 1:
            starts.pop()
        for lo, hi in zip(starts, starts[1:] + [idx.size]):
            rows = slice(lo, hi)
            yield rows, rows if full else idx[rows]

    def _streams(self, m: int) -> bool:
        """Whether a partial set of m rows reads the dataset in place.

        With one BLAS thread, one product over all N rows beats gathering
        m of them from m = 0.3-0.5 N on for rows of at most 1 KB, and from
        0.5-0.72 N for longer rows, which gather at close to copy speed.
        """
        if self.dataset.d <= 128:
            return 2 * m >= self.N
        return 4 * m >= 3 * self.N

    def _margins(self, idx: np.ndarray, x: np.ndarray):
        """Row products ``A[idx] @ x`` of the bias-free sigmoid and the
        labels ``y[idx]`` of a validated index set.

        The products have the bits of the gathered row blocks of
        ``_row_blocks``, and come from one of three paths:

        - the full set is one product over the dataset in place;
        - a dense partial set (``_streams``) reads one product in place
          over the dataset's whole 64-row groups up to its members.  With
          one BLAS thread a matrix-vector product rounds a row by where it
          falls among the row groups its kernel computes together, and
          every group is whole in a product over whole 64-row groups, as it
          is in a gathered block of a multiple of 64 rows.  So only the
          set's last block, which may end in a partial group, and any
          block holding a member at or past N - N % 64, past the in-place
          product, are gathered as before;
        - a sparse set gathers every block.

        The two in-place products go through ``_row_product``, which may
        split a large one into 64-row-aligned slabs across cores when BLAS
        runs one thread; by the same rule the bits do not depend on the
        core count or on whether it splits.
        """
        a, y = self.dataset.features, self.dataset.labels
        if self._is_full(idx):
            return _row_product(a, x), y
        z = np.empty(idx.size)
        blocks = list(self._row_blocks(idx))
        if self._streams(idx.size):
            # The first gathered block: the one holding the first member
            # past the whole groups, or else the last one.
            past = int(np.searchsorted(idx, self.N - self.N % _GROUP))
            cut = max(rows.start for rows, _ in blocks if rows.start <= past)
            if cut:
                hi = (int(idx[cut - 1]) // _GROUP + 1) * _GROUP
                # The members are validated, so "clip" clips nothing; it
                # only spares the copy that take makes of ``out`` to check.
                np.take(_row_product(a[:hi], x), idx[:cut], out=z[:cut], mode="clip")
                blocks = [block for block in blocks if block[0].start >= cut]
        for rows, take in blocks:
            z[rows] = _take(a, take) @ x
        return z, _take(y, idx)

    def value_mean(self, indices, x) -> float:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        if not self.spec.hidden_sizes:
            z, y = self._margins(idx, x)
            return _sigmoid_mean_square_residual(y, z)
        a, y = self.dataset.features, self.dataset.labels
        if self._is_full(idx):
            return _mean_square_residual(y, _forward(self.spec, x, a)[0])
        # A partial set is read in row blocks, so no copy of all its rows is
        # made.
        p = np.empty(idx.size)
        for rows, take in self._row_blocks(idx):
            p[rows] = _forward(self.spec, x, _take(a, take))[0]
        return _mean_square_residual(_take(y, idx), p)

    def gradient_mean(self, indices, x) -> np.ndarray:
        idx = as_index_set(indices, self.N)
        x = as_vector(x, self.n)
        if not self.spec.hidden_sizes:
            if 8 * idx.size <= self.N or self._is_full(idx):
                parts = [self._rows(idx)]
            else:
                # More than N/8 rows are gathered and summed block by
                # block, so no copy of all of them is made.  Fewer keep
                # one gather and the bits of its one product.
                a, y = self.dataset.features, self.dataset.labels
                parts = ((_take(a, take), _take(y, take)) for _, take in self._row_blocks(idx))
            total = None
            for a_b, y_b in parts:
                part = a_b.T @ _output_slope(y_b, _forward(self.spec, x, a_b)[0])
                total = part if total is None else total + part
            return total / idx.size
        a, y = self._rows(idx)
        p, acts = _forward(self.spec, x, a)
        dz = _output_slope(y, p)
        layers = _unpack(self.spec, x)
        delta = dz[:, None]
        grads = [None] * len(layers)
        for ell in range(len(layers) - 1, -1, -1):
            w, _ = layers[ell]
            gw = delta.T @ acts[ell]
            gb = delta.sum(axis=0)
            grads[ell] = (gw, gb)
            if ell > 0:
                delta = (delta @ w) * (1.0 - acts[ell] ** 2)
        flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
        return flat / idx.size

    def hessian_action(self, indices, x) -> SampleHessian:
        """Mean Hessian over a frozen index set, as a ``SampleHessian``.

        For the bias-free sigmoid it is exact: with p = sigmoid(A x) over
        the set's rows A, component i has Hessian c_i a_i a_i^T with
        c_i = 2 p_i' (p_i' - (y_i - p_i)(1 - 2 p_i)) and p_i' = p_i (1 - p_i),
        so the mean action is A^T (c * A v) / m.  The curvatures are
        computed once here from ``_margins``; each action reads the rows in
        blocks and never copies the whole set, and ``dense()`` is one Gram
        product A_b^T (c_b * A_b) per row block, which equals the action on
        the identity block bit for bit.  Networks keep the differenced
        default.
        """
        if self.spec.hidden_sizes:
            return super().hessian_action(indices, x)
        idx = as_index_set(indices, self.N).copy()
        x = as_vector(x, self.n)
        a = self.dataset.features
        z, y = self._margins(idx, x)
        # Block by block: temporaries as long as the set raised the peak
        # resident memory of p = 2 runs on 20000 x 50 data by 5 MB (5%).
        c = np.empty(idx.size)
        for rows, _ in self._row_blocks(idx):
            p = sigmoid(z[rows])
            dp = p * (1.0 - p)
            c[rows] = 2.0 * dp * (dp - (y[rows] - p) * (1.0 - 2.0 * p))
        c /= idx.size

        def action(v: np.ndarray) -> np.ndarray:
            cols = v.reshape(self.n, -1)
            out = np.zeros(cols.shape)
            for rows, take in self._row_blocks(idx):
                out += _weighted_gram(_take(a, take), c[rows], cols)
            return out.reshape(v.shape)

        def gram() -> np.ndarray:
            out = np.zeros((self.n, self.n))
            for rows, take in self._row_blocks(idx):
                a_b = _take(a, take)
                out += a_b.T @ (c[rows][:, None] * a_b)
            return out

        return SampleHessian(self.n, action, gram)


def _take(arr: np.ndarray, take) -> np.ndarray:
    """Rows ``take`` of ``arr``: a view for a slice, a gathered copy for an
    index array.  ``ndarray.take`` copies the same rows as fancy indexing
    with less overhead per row."""
    return arr[take] if isinstance(take, slice) else arr.take(take, axis=0)


def _output_slope(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d(y - p)^2 / dz at the output unit, -2 (y - p) p (1 - p)."""
    return -2.0 * (y - p) * p * (1.0 - p)


def _mean_square_residual(y: np.ndarray, p: np.ndarray) -> float:
    """Mean of (y - p)^2, computed in place in ``p``, which the caller owns."""
    r = np.subtract(y, p, out=p)
    np.multiply(r, r, out=r)
    return float(np.sum(r) / r.size)


def _sigmoid_mean_square_residual(y: np.ndarray, z: np.ndarray) -> float:
    """``_mean_square_residual(y, sigmoid(z))``, bit for bit, computed in
    place in ``z``, which the caller owns, one chunk at a time."""
    e = np.empty(min(_CHUNK, z.size))
    for lo in range(0, z.size, _CHUNK):
        zc = z[lo : lo + _CHUNK]
        p = _sigmoid_into(zc, zc, e[: zc.size])
        np.subtract(y[lo : lo + _CHUNK], p, out=p)
        np.multiply(p, p, out=p)
    return float(np.sum(z) / z.size)


def _weighted_gram(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a.T @ diag(w) @ a @ v`` without forming the diagonal matrix."""
    return a.T @ (w[:, None] * (a @ v))


def testing_loss(spec: NetworkSpec, x, dataset: Dataset) -> float:
    """Mean squared residual of the predictor on a held-out set."""
    if dataset.d != spec.input_dim:
        raise ValueError("test set dimension does not match the network input")
    if dataset.N == 0:
        raise ValueError("test set is empty")
    x = as_vector(x, spec.parameter_count)
    return _mean_square_residual(dataset.labels, _forward(spec, x, dataset.features)[0])


def classification_rate(spec: NetworkSpec, x, dataset: Dataset) -> float:
    """Fraction of samples classified correctly at threshold 0.5.

    Predictions exactly at the threshold count as class 1.
    """
    if dataset.d != spec.input_dim:
        raise ValueError("test set dimension does not match the network input")
    if dataset.N == 0:
        raise ValueError("classification rate undefined on an empty set")
    x = as_vector(x, spec.parameter_count)
    p, _ = _forward(spec, x, dataset.features)
    predicted = (p >= 0.5).astype(float)
    return float(np.mean(predicted == dataset.labels))
