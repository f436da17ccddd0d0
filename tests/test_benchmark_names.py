"""The names the benchmark's tracer wraps stay in place.

``benchmarks/tracing.py`` replaces functions at the names where their
callers look them up, and the traced run fails when a span it expects
records no call.  This runs the tracer on two tiny problems so that a
refactor which renames or bypasses one of those names fails here too.
"""

from pathlib import Path

import pytest

from subreg import NetworkSpec, SolverConfig, SquaredLossProblem, solver
from subreg.harness import synthesize_dataset

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

RUNS = {
    "p1": (
        dict(p=1, budget_cm=5.0),
        (
            "solver.minimize", "sampling.bernstein_size", "sampling.draw_subsample",
            "sampling.extend_subsample", "problems.gradient_mean", "problems.value_mean",
            "finite_sum.full_value",
        ),
    ),
    # The run converges, so minimize's termination test takes phi_2.
    "p2_q2": (
        dict(p=2, q=2, eps2=1e-3, budget_cm=400.0),
        (
            "solver.minimize", "sampling.bernstein_size", "sampling.draw_subsample",
            "sampling.extend_subsample", "subproblem.cubic_step",
            "model.accuracy_quantities", "optimality.phi_2",
        ),
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_traced_spans_record_calls(run, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    settings, expected = RUNS[run]
    N, d = 200, 5
    prob = SquaredLossProblem(synthesize_dataset(3, N, d, 2.0), NetworkSpec(d))
    config = SolverConfig(seed=1, **settings)
    with tracing.Tracer() as tracer:
        # Called through the module, as the benchmark does: the tracer
        # wraps the module attribute.
        result = solver.minimize(prob, config)
    _, calls = tracing.layer_metrics(tracer.spans, [result], N, d, d, config.p, config.t)
    assert [name for name in expected if calls[name] == 0] == []
