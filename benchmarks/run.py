"""End-to-end and per-layer benchmark of the subreg solvers.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload p1_wide --seed 1 --seconds 30 --trace 0

One process with one solver thread drives the public API as a closed loop
with one caller, each solver run starting when the previous one has finished.  Until
``--seconds`` have passed, pair j synthesises a dataset from seed
``1000 * seed + j``, builds a ``SquaredLossProblem`` and runs ``minimize``
with that solver seed twice, so that the two trace CSVs can be compared
byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
one seed per dataset untraced, then again with every public layer function
wrapped (see tracing.py), and reports the per-layer metrics plus the
tracing overhead.  Either way the last line of standard output is one
JSON object; the line before it stamps the machine.  Traces, spans and
the full result go to ``benchmarks/out/<workload>-seed<seed>/``.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# One BLAS thread keeps the process single-threaded.  On the 2-core reference
# box a second thread helps only p1_wide's matvecs, and its spinning makes
# run times more sensitive to other load on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings it must see)
import scipy  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """A synthetic problem and the solver settings run on it."""

    N: int  # training samples
    n_test: int  # held-out samples passed to minimize as test_loss
    d: int
    separation: float
    hidden: tuple
    solver: dict
    expected: tuple  # spans that must record calls in the traced run


COMMON_SPANS = (
    "solver.minimize", "problems.gradient_mean", "problems.value_mean",
    "sampling.bernstein_size", "sampling.draw_subsample", "harness.write_trace",
)

WORKLOADS = {
    "p1_wide": Workload(
        N=4800, n_test=1200, d=5000, separation=20.0, hidden=(),
        solver=dict(p=1, kappa=8e-4, budget_cm=30.0),
        expected=("finite_sum.full_value", "problems.testing_loss", "sampling.extend_subsample"),
    ),
    "p1_tall": Workload(
        N=200_000, n_test=0, d=20, separation=1.0, hidden=(),
        solver=dict(p=1, eps1=0.0, budget_cm=100.0),
        expected=("sampling.extend_subsample",),
    ),
    "p2_net": Workload(
        N=5000, n_test=1000, d=20, separation=3.0, hidden=(15,),
        solver=dict(p=2, q=1, budget_cm=3000.0),
        expected=("subproblem.cubic_step", "finite_sum.full_value", "problems.testing_loss"),
    ),
    "q2_sigmoid": Workload(
        N=20_000, n_test=0, d=50, separation=1.0, hidden=(),
        solver=dict(p=2, q=2, eps2=1e-3, budget_cm=1200.0),
        expected=(
            "subproblem.cubic_step", "model.accuracy_quantities", "optimality.phi_2",
            "finite_sum.full_value",
        ),
    ),
}

STOP_REASONS = ("budget", "converged")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_subreg():
    """Import subreg from this checkout's src/, never from site-packages."""
    if not (SRC / "subreg" / "__init__.py").is_file():
        sys.exit(f"benchmark: no subreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import subreg

    if Path(subreg.__file__).resolve().parent != SRC / "subreg":
        sys.exit(f"benchmark: imported subreg from {subreg.__file__}, not {SRC}")
    return subreg


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_stamp(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class RssPeak:
    """Highest resident set size seen while ``active``, sampled every 5 ms.

    The process high-water mark would report dataset synthesis, whose
    temporaries exceed everything the solver allocates on p1_wide, so only
    the solver runs are sampled.
    """

    def __init__(self):
        self.peak = 0
        self.active = False
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(0.005):
            if self.active:
                with open("/proc/self/statm", "rb") as fh:
                    rss = int(fh.read().split()[1]) * self._page
                self.peak = max(self.peak, rss)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


@dataclass
class Setup:
    problem: object
    spec: object
    test: object
    seconds: float


def set_up(sr, wl, data_seed):
    """Synthesise the dataset and build the problem, timed."""
    t0 = time.perf_counter()
    full = sr.harness.synthesize_dataset(data_seed, wl.N + wl.n_test, wl.d, wl.separation)
    train = sr.Dataset(full.features[: wl.N], full.labels[: wl.N])
    test = sr.Dataset(full.features[wl.N :], full.labels[wl.N :]) if wl.n_test else None
    spec = sr.NetworkSpec(wl.d, wl.hidden)
    problem = sr.SquaredLossProblem(train, spec)
    return Setup(problem, spec, test, time.perf_counter() - t0)


@dataclass
class Run:
    seed: int
    ok: bool = False
    wall_s: float = math.nan
    cm: float = math.nan
    final_loss: float = math.nan
    result: object = None
    trace_path: Path = None
    errors: list = field(default_factory=list)


def solve(sr, wl, setup, seed, trace_path, max_iters=None):
    """One solver run plus the checks that need only its own output."""
    # Layer functions are looked up as module attributes at each call, so
    # the traced run's wrappers see them.
    run = Run(seed, trace_path=trace_path)
    spec, test = setup.spec, setup.test
    x0 = None
    if spec.hidden_sizes:
        x0 = sr.initial_point(spec, np.random.default_rng([seed, 1]))
    test_loss = None
    if test is not None:
        test_loss = lambda x: sr.problems.testing_loss(spec, x, test)  # noqa: E731
    config = sr.SolverConfig(seed=seed, **wl.solver)
    if max_iters is not None:
        config.max_iters = max_iters
    try:
        t0 = time.perf_counter()
        result = sr.solver.minimize(setup.problem, config, x0=x0, test_loss=test_loss)
        run.wall_s = time.perf_counter() - t0
    except Exception:
        run.errors.append(traceback.format_exc())
        return run
    run.result = result
    run.cm = result.total_cm
    run.final_loss = sr.full_value(setup.problem, result.x)
    sr.harness.write_trace(trace_path, result.trace)
    run.errors.extend(check(sr, setup.problem.N, result, run.final_loss, trace_path))
    run.ok = not run.errors
    return run


def check(sr, N, result, final_loss, trace_path):
    """Output checks for one run; returns the failures found."""
    errors = []
    if result.stop_reason not in STOP_REASONS:
        errors.append(f"stop_reason {result.stop_reason!r} not in {STOP_REASONS}")
    events = sr.harness.read_trace(trace_path)
    if not events:
        errors.append("empty trace")
    total = 0.0
    for e in events:
        total += sr.iteration_charge(
            N, e.d1_size, e.d2_size, e.g_size, e.g_d1_overlap, e.h_size, e.h_g_overlap, e.hvp_props
        )
        if total != e.cm:
            errors.append(f"iteration {e.k}: iteration_charge sums to {total!r}, trace says {e.cm!r}")
            break
    if events and events[-1].cm != result.total_cm:
        errors.append("trace CM column does not end at total_cm")
    losses = [final_loss] + [
        v for e in events for v in (e.loss_estimate, e.train_loss, e.test_loss) if v is not None
    ]
    if not all(math.isfinite(v) for v in losses):
        errors.append("non-finite loss")
    return errors


def same_trace(first, second):
    """Both runs of one seed must write byte-identical trace CSVs."""
    if not (first.ok and second.ok):
        return
    if first.trace_path.read_bytes() != second.trace_path.read_bytes():
        for run in (first, second):
            run.errors.append(f"trace differs between two runs of seed {run.seed}")
            run.ok = False


def median(values):
    return statistics.median(values) if values else math.nan


def more_time(start, done, seconds):
    """Whether to start another pair: stop when it would more likely end
    after ``seconds`` than before, judging by the pairs done so far."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def warm_up(sr, wl, setup, out):
    """Two untimed iterations: the first run in a process is otherwise slower
    while the allocator and the BLAS thread pool settle."""
    solve(sr, wl, setup, 0, out / "warm_up.csv", max_iters=2)


def measure(sr, wl, args, out, import_s):
    """Untraced closed loop until the time is up.

    Pair j synthesises its own dataset and runs solver seed ``1000 * seed +
    j`` twice on it, so that a median over pairs also averages over data.
    """
    runs, setups = [], []
    start = time.perf_counter()
    with RssPeak() as rss:
        while not runs or more_time(start, len(setups), args.seconds):
            seed = 1000 * args.seed + len(setups)
            setup = None  # free the previous problem before building the next
            setup = set_up(sr, wl, seed)
            setups.append(setup.seconds)
            if len(setups) == 1:
                warm_up(sr, wl, setup, out)
            rss.active = True
            pair = [solve(sr, wl, setup, seed, out / f"trace_seed{seed}_{rep}.csv") for rep in "ab"]
            rss.active = False
            same_trace(*pair)
            runs.extend(pair)
    passed = [r for r in runs if r.ok]
    metrics = {
        "wall_s": (median([r.wall_s for r in passed]), "s"),
        "cm": (median([r.cm for r in passed]), "CM"),
        "final_loss": (median([r.final_loss for r in passed]), "loss"),
        "pass_rate": (len(passed) / len(runs), "ratio"),
        "peak_rss_mb": (rss.peak / 2**20, "MB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
    }
    return runs, metrics


def measure_traced(sr, wl, args, out):
    """Untraced runs for half the time, then the same seeds and data traced."""
    from tracing import UNITS, Tracer, layer_metrics

    untraced = []
    start = time.perf_counter()
    while not untraced or more_time(start, len(untraced), args.seconds / 2):
        seed = 1000 * args.seed + len(untraced)
        setup = None
        setup = set_up(sr, wl, seed)
        if not untraced:
            warm_up(sr, wl, setup, out)
        untraced.append(solve(sr, wl, setup, seed, out / f"trace_seed{seed}_a.csv"))
    traced = []
    with Tracer() as tracer:
        for base in untraced:
            setup = None
            setup = set_up(sr, wl, base.seed)
            run = solve(sr, wl, setup, base.seed, out / f"trace_seed{base.seed}_t.csv")
            same_trace(base, run)
            traced.append(run)
    tracer.write(out / "spans.csv")
    runs = untraced + traced
    if not all(r.ok for r in runs):
        return runs, {}
    values, calls = layer_metrics(
        tracer.spans, [r.result for r in traced], setup.problem.N, setup.problem.n, wl.d,
        wl.solver["p"], sr.SolverConfig().t,
    )
    silent = [name for name in COMMON_SPANS + wl.expected if calls[name] == 0]
    if silent:
        raise SystemExit(f"benchmark: traced run recorded no calls of {', '.join(silent)}")
    base = median([r.wall_s for r in untraced])
    values["trace.base_wall_s"] = base
    values["trace.overhead_s"] = median([r.wall_s for r in traced]) - base
    values["trace.runs"] = len(traced)
    return runs, {name: (value, UNITS[name]) for name, value in values.items()}


def main(argv=None):
    args = parse_args(argv)
    sr = import_subreg()
    import_s = time.perf_counter() - _T0
    wl = WORKLOADS[args.workload]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    stamp = machine_stamp(args)

    if args.trace:
        runs, metrics = measure_traced(sr, wl, args, out)
    else:
        runs, metrics = measure(sr, wl, args, out, import_s)

    failed = [r for r in runs if not r.ok]
    for r in failed:
        print(f"run seed={r.seed} failed:", *r.errors, sep="\n  ", file=sys.stderr)
    if not metrics or not any(r.ok for r in runs):
        sys.exit(f"benchmark: {len(failed)} of {len(runs)} runs failed; no result")

    rows = [
        {"seed": r.seed, "ok": r.ok, "wall_s": r.wall_s, "cm": r.cm, "final_loss": r.final_loss,
         "stop_reason": r.result.stop_reason if r.result else None,
         "iterations": r.result.iterations if r.result else None}
        for r in runs
    ]
    for row in rows:
        print(json.dumps(row))
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / f"result_trace{args.trace}.json").write_text(
        json.dumps({"machine": stamp, "runs": rows, **result}, indent=1)
    )
    print(json.dumps({"machine": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
