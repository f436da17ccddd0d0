"""Experiment harness: dataset ingestion, synthetic data, seeded runs,
and CSV emission of traces and summaries.

CSV output uses '.' as the decimal separator, shortest round-trip float
formatting and LF line endings, so identical configurations and seeds
produce byte-identical files on every platform.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .finite_sum import full_value
from .problems import Dataset, NetworkSpec, SquaredLossProblem, classification_rate, initial_point, testing_loss
from .solver import SolverConfig, SolverResult, SolverStallError, TraceEvent, minimize

__all__ = [
    "load_dataset",
    "minmax_scale",
    "synthesize_dataset",
    "save_dataset_csv",
    "convert_labels",
    "ExperimentConfig",
    "RunSummary",
    "run_experiment",
    "write_trace",
    "read_trace",
    "write_summary",
]

TRACE_COLUMNS = [f.name for f in fields(TraceEvent)]


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


# One parser per trace column, from the TraceEvent field's declared type;
# an empty optional field is None.
_TRACE_PARSERS = [
    {"int": int, "float": float, "Optional[float]": lambda tok: float(tok) if tok else None}[f.type]
    for f in fields(TraceEvent)
]


def _lines(path: Path):
    """Yield ``(lineno, line)`` for each stripped, non-blank line."""
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def load_dataset(path, fmt: str = "csv", label_col: int = 0, dim: Optional[int] = None) -> Dataset:
    """Read a dense CSV or sparse ``label index:value`` file.

    Labels map to {0, 1}: values <= 0 become 0, positive values become 1;
    a NaN or infinite label is rejected with its line number.
    Sparse indices are 1-based; ``dim`` caps the feature dimension and is
    inferred from the largest index seen when omitted.  Features are
    returned as read; ``minmax_scale`` rescales them.

    A file is read twice: once to count its rows (and, for the sparse
    format, its entries), then to parse each row with one numpy conversion
    straight into arrays of that size.  Every token goes through Python's
    ``float`` (``int`` for sparse indices), so the values have its bits.
    Besides the features the call holds one row's tokens, the labels and,
    for the sparse format, the flat index and value arrays that one scatter
    copies into the features.  A path that is not a regular file, such as
    a pipe, can be read only once, so its lines are held for both passes.
    """
    path = Path(path)
    if fmt not in ("csv", "sparse"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    if path.is_file():
        counted, parsed = _lines(path), _lines(path)
    else:
        counted = parsed = list(_lines(path))
    rows, entries = 0, 0
    for _, line in counted:
        rows += 1
        if fmt == "sparse":
            entries += len(line.split()) - 1
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    labels = np.empty(rows)
    if fmt == "csv":
        features = None
        for row, (lineno, line) in enumerate(parsed):
            try:
                values = np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            if features is None:
                width = values.size
                if not 0 <= label_col < width:
                    raise ValueError(f"label column {label_col} outside row of width {width}")
                features = np.empty((rows, width - 1))
            elif values.size != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, found {values.size}")
            labels[row] = _finite_label(float(values[label_col]), path, lineno)
            features[row, :label_col] = values[:label_col]
            features[row, label_col:] = values[label_col + 1 :]
    else:
        index = np.empty(entries, dtype=np.int64)
        value = np.empty(entries)
        starts = np.empty(rows + 1, dtype=np.int64)
        starts[0] = 0
        for row, (lineno, line) in enumerate(parsed):
            tokens = line.split()
            lo, hi = starts[row], starts[row] + len(tokens) - 1
            try:
                label = float(tokens[0])
                index_tokens, value_tokens = [], []
                for tok in tokens[1:]:
                    index_str, value_str = tok.split(":", 1)
                    index_tokens.append(index_str)
                    value_tokens.append(value_str)
                index[lo:hi] = np.array(index_tokens, dtype=np.int64)
                value[lo:hi] = np.array(value_tokens, dtype=float)
                low = int(index[lo:hi].min(initial=1))
                if low < 1:
                    raise ValueError(f"index {low} is not 1-based")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            labels[row] = _finite_label(label, path, lineno)
            starts[row + 1] = hi
        max_index = int(index.max(initial=0))
        d = dim if dim is not None else max_index
        if max_index > d:
            raise ValueError(f"{path}: feature index {max_index} exceeds dimension {d}")
        features = np.zeros((rows, d))
        # Entry (row, i) lands at flat position row * d + i - 1, in file
        # order, so a repeated index keeps the row's last value.
        index -= 1
        index += np.repeat(np.arange(rows, dtype=np.int64) * d, np.diff(starts))
        features.reshape(-1)[index] = value
    np.greater(labels, 0.0, out=labels)
    return Dataset(features=features, labels=labels)


def _finite_label(label: float, path: Path, lineno: int) -> float:
    # NaN > 0 is False, so a NaN label would silently become class 0.
    if not math.isfinite(label):
        raise ValueError(f"{path}:{lineno}: non-finite label {label!r}")
    return label


def minmax_scale(features: np.ndarray, reference: Optional[np.ndarray] = None) -> np.ndarray:
    """Map each column's range in ``reference`` (default ``features``) onto
    [0, 1] and apply that map to ``features``.

    A held-out set is scaled with its training set as ``reference``, so
    both see the same map.
    """
    reference = features if reference is None else reference
    if reference.shape[1] != features.shape[1]:
        raise ValueError(
            f"reference has {reference.shape[1]} columns, features {features.shape[1]}"
        )
    lo = reference.min(axis=0)
    span = reference.max(axis=0) - lo
    span[span == 0.0] = 1.0  # constant columns map to 0
    return (features - lo) / span


def synthesize_dataset(seed: int, N: int, d: int, separation: float) -> Dataset:
    """Two seeded Gaussian blobs at +-separation * u for a random unit u.

    Labels follow the blob; separation 0 collapses both blobs so no
    predictor can beat chance.  Feature (i, j) is ``z + (separation *
    sign_i) * u_j`` for a standard normal z; each blob's shift is one
    d-vector added in place.  The rows are then shuffled in place, as one
    array of N d-float items, and the labels with a copy of the generator
    taken before that shuffle, so both get the swaps of
    ``rng.permutation(N)``.  The call holds the noise and no other N x d
    array.
    """
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    if separation < 0.0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    half = (N + 1) // 2
    labels = np.zeros(N)
    labels[:half] = 1.0
    features = rng.standard_normal((N, d))
    features[:half] += separation * u
    features[half:] += -separation * u
    # Prefix splits stay label-balanced.  Shuffling a 1-d array swaps its
    # items in C; a 2-d one would be swapped row by row in Python.
    copy.deepcopy(rng).shuffle(labels)
    rng.shuffle(features.view(np.dtype((np.void, d * features.itemsize))).reshape(N))
    return Dataset(features=features, labels=labels)


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write label-first CSV rows compatible with ``load_dataset``."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for y, row in zip(dataset.labels, dataset.features):
            fh.write(",".join([_format(float(y))] + [_format(float(v)) for v in row]) + "\n")


def convert_labels(in_path, out_path, label_col: int = 0, rule: str = "odd-even") -> None:
    """Rewrite the label column of a CSV file.

    ``odd-even`` maps odd integer labels to 1 and even ones to 0 (the usual
    parity split of digit datasets) and rejects a non-integer label, which
    has no parity; ``sign`` maps positives to 1.  A label that is not a
    number, or is NaN or infinite, is rejected with its line number, as
    ``load_dataset`` does.  Every row is converted before ``out_path`` is
    opened, so a rejected file writes nothing there.
    """
    if rule not in ("odd-even", "sign"):
        raise ValueError(f"unknown conversion rule {rule!r}")
    in_path, out_path = Path(in_path), Path(out_path)
    rows = []
    for lineno, line in _lines(in_path):
        tokens = line.split(",")
        if not 0 <= label_col < len(tokens):
            raise ValueError(f"{in_path}:{lineno}: label column out of range")
        try:
            value = float(tokens[label_col])
        except ValueError as exc:
            raise ValueError(f"{in_path}:{lineno}: malformed row ({exc})") from None
        value = _finite_label(value, in_path, lineno)
        if rule == "odd-even":
            if not value.is_integer():
                raise ValueError(f"{in_path}:{lineno}: non-integer label {value!r} has no parity")
            tokens[label_col] = _format(float(int(value) % 2))
        else:
            tokens[label_col] = _format(1.0 if value > 0.0 else 0.0)
        rows.append(",".join(tokens) + "\n")
    with out_path.open("w", encoding="utf-8", newline="") as dst:
        dst.writelines(rows)


@dataclass
class ExperimentConfig:
    """One experiment: a problem, a solver setup and a repetition count."""

    train: Dataset
    network: NetworkSpec
    solver: SolverConfig
    test: Optional[Dataset] = None
    runs: int = 1
    out_dir: Optional[Path] = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.test is not None and self.test.d != self.train.d:
            raise ValueError(f"test set has {self.test.d} features, training set {self.train.d}")
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)


@dataclass
class RunSummary:
    seed: int
    stop_reason: str
    iterations: int
    successes: int
    total_cm: float
    final_train_loss: float
    final_test_loss: Optional[float]
    classification_rate: Optional[float]


SUMMARY_COLUMNS = [f.name for f in fields(RunSummary)]


def write_trace(path, events: List[TraceEvent]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for event in events:
            fh.write(",".join(_format(getattr(event, c)) for c in TRACE_COLUMNS) + "\n")


def read_trace(path) -> List[TraceEvent]:
    """Events of a ``write_trace`` file; a malformed row is rejected with its line."""
    path = Path(path)
    lines = _lines(path)
    if next(lines, (0, ""))[1].split(",") != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace header")
    events = []
    for lineno, line in lines:
        tokens = line.split(",")
        try:
            if len(tokens) != len(TRACE_COLUMNS):
                raise ValueError(f"expected {len(TRACE_COLUMNS)} fields, found {len(tokens)}")
            events.append(TraceEvent(*(parse(tok) for parse, tok in zip(_TRACE_PARSERS, tokens))))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
    return events


def write_summary(path, summaries: List[RunSummary]) -> None:
    """Per-run rows plus a final arithmetic-mean row."""
    path = Path(path)
    means = summary_means(summaries)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for s in summaries:
            fh.write(",".join(_format(getattr(s, c)) for c in SUMMARY_COLUMNS) + "\n")
        row = ["mean", ""] + [_format(means[c]) for c in SUMMARY_COLUMNS[2:]]
        fh.write(",".join(row) + "\n")


def summary_means(summaries: List[RunSummary]) -> dict:
    """Mean of each numeric summary column over the completed runs that have it."""
    completed = [s for s in summaries if not s.stop_reason.startswith("error:")]
    means = {}
    for c in SUMMARY_COLUMNS[2:]:
        values = [getattr(s, c) for s in completed if getattr(s, c) is not None]
        means[c] = sum(values) / len(values) if values else None
    return means


def run_experiment(config: ExperimentConfig, verbose: bool = True) -> List[RunSummary]:
    """Execute the configured number of seeded runs.

    Writes one trace CSV per run plus a summary CSV when an output
    directory is set, prints the mean classification rate, and keeps going
    through remaining seeds if a run fails.
    """
    spec = config.network
    problem = SquaredLossProblem(config.train, spec)
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)

    test_loss_fn = None
    if config.test is not None:
        test_set = config.test
        test_loss_fn = lambda x: testing_loss(spec, x, test_set)

    summaries: List[RunSummary] = []
    for run_index in range(config.runs):
        seed = config.solver.seed + run_index
        cfg = replace(config.solver, seed=seed)
        x0 = initial_point(spec, np.random.default_rng([seed, 1]))
        try:
            result: SolverResult = minimize(problem, cfg, x0=x0, test_loss=test_loss_fn)
        except (SolverStallError, RuntimeError, FloatingPointError) as exc:
            if verbose:
                print(f"run seed={seed}: failed ({exc})")
            summaries.append(
                RunSummary(seed, f"error: {exc}", 0, 0, math.nan, math.nan, None, None)
            )
            continue
        last = result.trace[-1]
        if last.train_loss is not None:
            # The last event measured both losses at the returned iterate.
            final_train, final_test = last.train_loss, last.test_loss
        else:
            final_train = full_value(problem, result.x)
            final_test = test_loss_fn(result.x) if test_loss_fn is not None else None
        rate = (
            classification_rate(spec, result.x, config.test)
            if config.test is not None
            else None
        )
        summaries.append(
            RunSummary(
                seed=seed,
                stop_reason=result.stop_reason,
                iterations=result.iterations,
                successes=result.successes,
                total_cm=result.total_cm,
                final_train_loss=final_train,
                final_test_loss=final_test,
                classification_rate=rate,
            )
        )
        if config.out_dir is not None:
            write_trace(config.out_dir / f"trace_seed{seed}.csv", result.trace)
        if verbose:
            rate_text = "" if rate is None else f" rate={rate:.4f}"
            print(
                f"run seed={seed}: {result.stop_reason} after {result.iterations} iterations,"
                f" {result.total_cm:.2f} CM, train loss {final_train:.6f}{rate_text}"
            )

    if config.out_dir is not None:
        write_summary(config.out_dir / "summary.csv", summaries)
    rates = [s.classification_rate for s in summaries if s.classification_rate is not None]
    if verbose and rates:
        print(f"mean classification rate over {len(rates)} runs: {sum(rates) / len(rates):.4f}")
    return summaries
