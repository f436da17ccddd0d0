"""Experiment harness: dataset ingestion, synthetic data, seeded runs,
and CSV emission of traces and summaries.

CSV output uses '.' as the decimal separator, shortest round-trip float
formatting and LF line endings, so identical configurations and seeds
produce byte-identical files on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
SUMMARY_COLUMNS = [
    "seed",
    "stop_reason",
    "iterations",
    "successes",
    "total_cm",
    "final_train_loss",
    "final_test_loss",
    "classification_rate",
]


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(token: str) -> Optional[float]:
    return None if token == "" else float(token)


def load_dataset(path, fmt: str = "csv", label_col: int = 0, dim: Optional[int] = None,
                 scale: str = "none") -> Dataset:
    """Read a dense CSV or sparse ``label index:value`` file.

    Labels map to {0, 1}: values <= 0 become 0, positive values become 1;
    a NaN or infinite label is rejected with its line number.
    Sparse indices are 1-based; ``dim`` caps the feature dimension and is
    inferred from the largest index seen when omitted.  ``scale="minmax"``
    rescales every feature column to [0, 1].
    """
    path = Path(path)
    if fmt not in ("csv", "sparse"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    if scale not in ("none", "minmax"):
        raise ValueError(f"unknown scaling mode {scale!r}")
    raw_labels: List[float] = []
    if fmt == "csv":
        rows: List[List[float]] = []
        width = None
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                tokens = line.split(",")
                try:
                    values = [float(tok) for tok in tokens]
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
                if width is None:
                    width = len(values)
                    if not 0 <= label_col < width:
                        raise ValueError(f"label column {label_col} outside row of width {width}")
                elif len(values) != width:
                    raise ValueError(
                        f"{path}:{lineno}: expected {width} columns, found {len(values)}"
                    )
                raw_labels.append(_finite_label(values.pop(label_col), path, lineno))
                rows.append(values)
        if not rows:
            raise ValueError(f"{path}: empty dataset")
        features = np.asarray(rows, dtype=float)
    else:
        entries: List[List[tuple]] = []
        max_index = 0
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                tokens = line.split()
                try:
                    label = float(tokens[0])
                    pairs = []
                    for tok in tokens[1:]:
                        index_str, value_str = tok.split(":", 1)
                        index = int(index_str)
                        if index < 1:
                            raise ValueError(f"index {index} is not 1-based")
                        pairs.append((index, float(value_str)))
                        max_index = max(max_index, index)
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
                raw_labels.append(_finite_label(label, path, lineno))
                entries.append(pairs)
        if not entries:
            raise ValueError(f"{path}: empty dataset")
        d = dim if dim is not None else max_index
        if max_index > d:
            raise ValueError(f"{path}: feature index {max_index} exceeds dimension {d}")
        features = np.zeros((len(entries), d))
        for row, pairs in enumerate(entries):
            for index, value in pairs:
                features[row, index - 1] = value
    labels = (np.asarray(raw_labels) > 0.0).astype(float)
    if scale == "minmax":
        features = minmax_scale(features)
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
    lo = reference.min(axis=0)
    span = reference.max(axis=0) - lo
    span[span == 0.0] = 1.0  # constant columns map to 0
    return (features - lo) / span


def synthesize_dataset(seed: int, N: int, d: int, separation: float) -> Dataset:
    """Two seeded Gaussian blobs at +-separation * u for a random unit u.

    Labels follow the blob; separation 0 collapses both blobs so no
    predictor can beat chance.
    """
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    if separation < 0.0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    labels = np.zeros(N)
    labels[: (N + 1) // 2] = 1.0
    signs = np.where(labels == 1.0, 1.0, -1.0)
    features = rng.standard_normal((N, d)) + separation * signs[:, None] * u[None, :]
    order = rng.permutation(N)  # prefix splits stay label-balanced
    return Dataset(features=features[order], labels=labels[order])


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write label-first CSV rows compatible with ``load_dataset``."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for y, row in zip(dataset.labels, dataset.features):
            fh.write(",".join([_format(float(y))] + [_format(float(v)) for v in row]) + "\n")


def convert_labels(in_path, out_path, label_col: int = 0, rule: str = "odd-even") -> None:
    """Rewrite the label column of a CSV file.

    ``odd-even`` maps odd integer labels to 1 and even ones to 0 (the usual
    parity split of digit datasets); ``sign`` maps positives to 1.  A label
    that is not a number, or is NaN or infinite, is rejected with its line
    number, as ``load_dataset`` does.
    """
    if rule not in ("odd-even", "sign"):
        raise ValueError(f"unknown conversion rule {rule!r}")
    in_path, out_path = Path(in_path), Path(out_path)
    with in_path.open("r", encoding="utf-8") as src, out_path.open(
        "w", encoding="utf-8", newline=""
    ) as dst:
        for lineno, line in enumerate(src, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if not 0 <= label_col < len(tokens):
                raise ValueError(f"{in_path}:{lineno}: label column out of range")
            try:
                value = float(tokens[label_col])
            except ValueError as exc:
                raise ValueError(f"{in_path}:{lineno}: malformed row ({exc})") from None
            value = _finite_label(value, in_path, lineno)
            if rule == "odd-even":
                tokens[label_col] = _format(float(int(round(value)) % 2))
            else:
                tokens[label_col] = _format(1.0 if value > 0.0 else 0.0)
            dst.write(",".join(tokens) + "\n")


@dataclass
class ExperimentConfig:
    """One experiment: a problem, a solver setup and a repetition count.

    ``trace_every`` thins written trace files to every k-th iteration (the
    final row is always kept); cost reconstruction from a file needs the
    default full granularity.
    """

    train: Dataset
    network: NetworkSpec
    solver: SolverConfig
    test: Optional[Dataset] = None
    runs: int = 1
    out_dir: Optional[Path] = None
    trace_every: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.trace_every < 1:
            raise ValueError("trace_every must be at least 1")
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


def write_trace(path, events: List[TraceEvent]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for event in events:
            fh.write(",".join(_format(getattr(event, c)) for c in TRACE_COLUMNS) + "\n")


def read_trace(path) -> List[TraceEvent]:
    path = Path(path)
    events = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header")
        int_cols = {
            "k", "success", "d1_size", "d2_size", "g_size", "h_size",
            "g_d1_overlap", "h_g_overlap", "hvp_props",
        }
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            tokens = line.split(",")
            kwargs = {}
            for name, token in zip(TRACE_COLUMNS, tokens):
                if name in int_cols:
                    kwargs[name] = int(token)
                else:
                    kwargs[name] = _parse_float(token)
            events.append(TraceEvent(**kwargs))
    return events


def write_summary(path, summaries: List[RunSummary]) -> None:
    """Per-run rows plus a final arithmetic-mean row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for s in summaries:
            row = [
                str(s.seed), s.stop_reason, str(s.iterations), str(s.successes),
                _format(s.total_cm), _format(s.final_train_loss),
                _format(s.final_test_loss), _format(s.classification_rate),
            ]
            fh.write(",".join(row) + "\n")
        means = summary_means(summaries)
        row = ["mean", "", _format(means["iterations"]), _format(means["successes"]),
               _format(means["total_cm"]), _format(means["final_train_loss"]),
               _format(means["final_test_loss"]), _format(means["classification_rate"])]
        fh.write(",".join(row) + "\n")


def summary_means(summaries: List[RunSummary]) -> dict:
    def mean_of(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else None

    return {
        "iterations": mean_of([float(s.iterations) for s in summaries]),
        "successes": mean_of([float(s.successes) for s in summaries]),
        "total_cm": mean_of([s.total_cm for s in summaries]),
        "final_train_loss": mean_of([s.final_train_loss for s in summaries]),
        "final_test_loss": mean_of([s.final_test_loss for s in summaries]),
        "classification_rate": mean_of([s.classification_rate for s in summaries]),
    }


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
        cfg = SolverConfig(**{**config.solver.__dict__, "seed": seed})
        if spec.hidden_sizes:
            x0 = initial_point(spec, np.random.default_rng([seed, 1]))
        else:
            x0 = np.zeros(spec.parameter_count)
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
            events = result.trace
            if config.trace_every > 1 and events:
                kept = events[:: config.trace_every]
                if kept[-1] is not events[-1]:
                    kept.append(events[-1])
                events = kept
            write_trace(config.out_dir / f"trace_seed{seed}.csv", events)
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
