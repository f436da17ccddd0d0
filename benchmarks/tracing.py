"""In-memory span tracing of subreg's public functions, for the traced run.

Each traced function is replaced, for the duration of the run, at the name
where its caller looks it up: ``solver`` imports ``bernstein_size`` and
friends by name, so wrapping ``subreg.sampling.bernstein_size`` would
record nothing.  A span is (name, start, end, parent, note); the parent is
the innermost traced call open when the span started, and ``note`` keeps
the one argument or result a per-layer metric needs.  Spans stay in memory
and are written out once, after the run.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from subreg import harness, optimality, problems, sampling, solver, subproblem


def _rows(args, result):
    return int(np.size(args[1]))  # (self, indices, x)


def _log_argument(args, result):
    return float(args[3])  # (kappa, nu, t, log_argument, N)


def _diagnostics(args, result):
    return result[1]  # (step, diagnostics)


# (owner, attribute, span name, note).  Several owners may share a span
# name: phi_2 is looked up in solver, in subproblem and, through
# ``optimality.phi_2``, in model.
TARGETS = [
    (solver, "minimize", "solver.minimize", None),
    (solver, "full_value", "finite_sum.full_value", None),
    (solver, "bernstein_size", "sampling.bernstein_size", _log_argument),
    (solver, "draw_subsample", "sampling.draw_subsample", None),
    (solver, "extend_subsample", "sampling.extend_subsample", None),
    (solver, "cubic_step", "subproblem.cubic_step", _diagnostics),
    (solver, "accuracy_quantities", "model.accuracy_quantities", None),
    (solver, "phi_2", "optimality.phi_2", None),
    (subproblem, "phi_2", "optimality.phi_2", None),
    (optimality, "phi_2", "optimality.phi_2", None),
    (subproblem, "leftmost_eigenpair", "optimality.leftmost_eigenpair", None),
    (optimality, "leftmost_eigenpair", "optimality.leftmost_eigenpair", None),
    (problems.SquaredLossProblem, "value_mean", "problems.value_mean", _rows),
    (problems.SquaredLossProblem, "gradient_mean", "problems.gradient_mean", _rows),
    (problems, "testing_loss", "problems.testing_loss", None),
    (harness, "write_trace", "harness.write_trace", None),
    (harness, "synthesize_dataset", "harness.synthesize_dataset", None),
]


class Tracer:
    """Records spans of the TARGETS while installed (a context manager)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, note]
        self._open = []
        self._saved = []

    def _wrap(self, fn, name, note):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, note in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path):
        """Write every span, with its self time, as CSV."""
        self_times = self_seconds(self.spans)
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "self_s"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.writerow([i, name, repr(start - t0), repr(end - t0), parent, repr(self_times[i])])


def self_seconds(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, results, N, n, d, p, t):
    """Per-layer metrics, as means per traced solver run.

    ``results`` are the traced runs' SolverResults.  Layer spans count only
    inside ``solver.minimize``; the ``harness`` spans lie outside it.
    """
    runs = len(results)
    inside = [False] * len(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    notes = defaultdict(list)
    for i, (name, start, end, parent, note) in enumerate(spans):
        inside[i] = name == "solver.minimize" or (parent >= 0 and inside[parent])
        if inside[i] or name.startswith("harness."):
            calls[name] += 1
            secs[name] += end - start
            notes[name].append(note)
    selfs = self_seconds(spans)

    def within(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    value_rows = sum(notes["problems.value_mean"])
    grad_rows = sum(notes["problems.gradient_mean"])
    busy = secs["problems.value_mean"] + secs["problems.gradient_mean"]
    measure = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name in ("finite_sum.full_value", "problems.testing_loss")
        and parent >= 0 and spans[parent][0] == "solver.minimize"
    )
    # p = 1 draws one gradient size per growth pass, p = 2 one Hessian size.
    if p == 1:
        pass_log = sampling.gradient_log_argument(n, t)
    else:
        pass_log = sampling.hessian_log_argument(n, t)
    passes = notes["sampling.bernstein_size"].count(pass_log)
    diags = notes["subproblem.cubic_step"]
    hvp_s = sum(
        s[2] - s[1]
        for i, s in enumerate(spans)
        if s[0] == "problems.gradient_mean" and within(i, "subproblem.cubic_step")
    )

    rows = [e for r in results for e in r.trace]
    cm_f = sum((e.d1_size + e.d2_size) / N for e in rows)
    cm_g = sum((2 * (e.g_size - e.g_d1_overlap) + e.g_d1_overlap) / N for e in rows)
    cm_h = sum(2.0 * e.hvp_props / N + (e.h_size - e.h_g_overlap) / N for e in rows)

    def frac(sizes):
        sizes = [s for s in sizes if s > 0]
        return sum(sizes) / (N * len(sizes)) if sizes else 0.0

    iterations = sum(r.iterations for r in results)
    per_run = {
        "problems.value_mean.calls": calls["problems.value_mean"],
        "problems.value_mean.s": secs["problems.value_mean"],
        "problems.value_mean.rows": value_rows,
        "problems.gradient_mean.calls": calls["problems.gradient_mean"],
        "problems.gradient_mean.s": secs["problems.gradient_mean"],
        "problems.gradient_mean.rows": grad_rows,
        "problems.gather_bytes": (value_rows + grad_rows) * d * 8,
        "problems.testing_loss.s": secs["problems.testing_loss"],
        "solver.iterations": iterations,
        "solver.self_s": sum(selfs[i] for i, s in enumerate(spans) if s[0] == "solver.minimize"),
        "solver.measure_s": measure,
        "solver.growth_passes": passes,
        "solver.cm_f": cm_f,
        "solver.cm_g": cm_g,
        "solver.cm_h": cm_h,
        "sampling.draw_subsample.calls": calls["sampling.draw_subsample"],
        "sampling.draw_subsample.s": secs["sampling.draw_subsample"],
        "sampling.extend_subsample.calls": calls["sampling.extend_subsample"],
        "sampling.extend_subsample.s": secs["sampling.extend_subsample"],
        "sampling.bernstein_size.calls": calls["sampling.bernstein_size"],
        "subproblem.cubic_step.calls": calls["subproblem.cubic_step"],
        "subproblem.cubic_step.s": secs["subproblem.cubic_step"],
        "subproblem.bb_iters": sum(g["iterations"] for g in diags),
        "subproblem.hvp_evals": sum(g["hvp_evals"] for g in diags),
        "subproblem.escapes": sum(g["escapes"] for g in diags),
        "subproblem.hvp_s": hvp_s,
        "subproblem.hvp_props": sum(e.hvp_props for e in rows),
        "model.accuracy_quantities.calls": calls["model.accuracy_quantities"],
        "model.accuracy_quantities.s": secs["model.accuracy_quantities"],
        "optimality.phi_2.calls": calls["optimality.phi_2"],
        "optimality.phi_2.s": secs["optimality.phi_2"],
        "optimality.leftmost_eigenpair.calls": calls["optimality.leftmost_eigenpair"],
        "optimality.leftmost_eigenpair.s": secs["optimality.leftmost_eigenpair"],
        "harness.write_trace.s": secs["harness.write_trace"],
        "harness.synthesize_dataset.s": secs["harness.synthesize_dataset"],
        "trace.spans": len(spans),
    }
    metrics = {k: v / runs for k, v in per_run.items()}
    metrics.update({
        "problems.rows_per_s": (value_rows + grad_rows) / busy if busy > 0 else 0.0,
        "solver.accept_rate": sum(r.successes for r in results) / max(iterations, 1),
        "subproblem.converged_frac": (
            sum(bool(g["converged"]) for g in diags) / len(diags) if diags else 0.0
        ),
        "sampling.g_frac": frac([e.g_size for e in rows]),
        "sampling.h_frac": frac([e.h_size for e in rows]),
        "sampling.d_frac": frac([e.d1_size for e in rows] + [e.d2_size for e in rows]),
        "sampling.full_frac": sum(
            1 for e in rows if e.g_size == N and (p == 1 or e.h_size == N)
        ) / max(len(rows), 1),
    })
    return metrics, calls


# Unit of every per-layer metric, as BENCHMARK.json lists them.
UNITS = {
    "problems.value_mean.calls": "count", "problems.value_mean.s": "s",
    "problems.value_mean.rows": "rows", "problems.gradient_mean.calls": "count",
    "problems.gradient_mean.s": "s", "problems.gradient_mean.rows": "rows",
    "problems.rows_per_s": "rows/s", "problems.gather_bytes": "B_computed",
    "problems.testing_loss.s": "s",
    "solver.iterations": "count", "solver.accept_rate": "ratio", "solver.self_s": "s",
    "solver.measure_s": "s", "solver.growth_passes": "count",
    "solver.cm_f": "CM", "solver.cm_g": "CM", "solver.cm_h": "CM",
    "sampling.draw_subsample.calls": "count", "sampling.draw_subsample.s": "s",
    "sampling.extend_subsample.calls": "count", "sampling.extend_subsample.s": "s",
    "sampling.bernstein_size.calls": "count", "sampling.g_frac": "ratio",
    "sampling.h_frac": "ratio", "sampling.d_frac": "ratio", "sampling.full_frac": "ratio",
    "subproblem.cubic_step.calls": "count", "subproblem.cubic_step.s": "s",
    "subproblem.bb_iters": "count", "subproblem.hvp_evals": "count",
    "subproblem.escapes": "count", "subproblem.converged_frac": "ratio",
    "subproblem.hvp_s": "s", "subproblem.hvp_props": "rows",
    "model.accuracy_quantities.calls": "count", "model.accuracy_quantities.s": "s",
    "optimality.phi_2.calls": "count", "optimality.phi_2.s": "s",
    "optimality.leftmost_eigenpair.calls": "count", "optimality.leftmost_eigenpair.s": "s",
    "harness.write_trace.s": "s", "harness.synthesize_dataset.s": "s",
    "trace.spans": "count", "trace.runs": "count",
    "trace.base_wall_s": "s", "trace.overhead_s": "s",
}
