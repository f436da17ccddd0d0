"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8 reproduces the published benchmark numbers and needs external
datasets; it is skipped unless SUBREG_DATA_DIR points at them.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import subreg as sr
from subreg.model import RegularisedModel
from subreg.problems import Dataset
from subreg.solver import iteration_charge

from oracles import (
    central_diff_gradient,
    cubic_model_oracle,
    phi2_disc_oracle,
    second_diff_quadform,
)

SQRT3_MINUS_1 = 0.7320508075688772


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# Traces produced by criteria 6, 7 and 9, audited again by criterion 10.
_RUN_CACHE = {}


def _split(seed, total, train_n, d, separation):
    full = sr.synthesize_dataset(seed, total, d, separation)
    return (
        Dataset(full.features[:train_n], full.labels[:train_n]),
        Dataset(full.features[train_n:], full.labels[train_n:]),
    )


def test_criterion_1_derivative_oracles():
    """Backprop gradients against central differences, Hessian actions
    against second differences, for the plain sigmoid and a (5, 2) net."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_grad, worst_hvp = 0.0, 0.0
    for hidden in ((), (5, 2)):
        ds = Dataset(rng.standard_normal((8, 6)), (rng.random(8) > 0.5).astype(float))
        spec = sr.NetworkSpec(6, hidden)
        prob = sr.SquaredLossProblem(ds, spec)
        for _ in range(20):
            x = 0.5 * rng.standard_normal(prob.n)
            i = int(rng.integers(prob.N))
            fd = central_diff_gradient(lambda z: prob.component_value(i, z), x)
            g = prob.component_gradient(i, x)
            worst_grad = max(worst_grad, float(np.max(np.abs(g - fd) / (1.0 + np.abs(fd)))))
            v = rng.standard_normal(prob.n)
            hv = prob.component_hvp(i, x, v)
            u = rng.standard_normal(prob.n)
            ref = second_diff_quadform(lambda z: prob.component_value(i, z), x, u, v)
            worst_hvp = max(worst_hvp, abs(float(u @ hv) - ref) / (1.0 + abs(ref)))
    elapsed = time.time() - start
    ok = worst_grad <= 1e-5 and worst_hvp <= 1e-3 and elapsed < 10.0
    _report(1, ok, f"gradient err {worst_grad:.2e} (<=1e-5), "
                   f"hvp err {worst_hvp:.2e} (<=1e-3), {elapsed:.1f}s (<10s)")


def test_criterion_2_phi2_oracle_equivalence():
    """Unit-ball curvature measure against a grid-plus-polish oracle on 50
    random two-dimensional instances, hard cases included."""
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        A = rng.standard_normal((2, 2))
        H = 0.5 * (A + A.T) * float(rng.uniform(0.5, 3.0))
        if trial % 5 == 0:
            # hard case: gradient orthogonal to the leftmost eigenvector
            w, Q = np.linalg.eigh(H)
            H = Q @ np.diag([-abs(w[0]) - 0.5, abs(w[1]) + 0.5]) @ Q.T
            g = Q[:, 1] * float(rng.uniform(0.1, 0.5))
        else:
            g = rng.standard_normal(2)
        value = sr.phi_2(g, (lambda M: (lambda v: M @ v))(H), 2).value
        worst = max(worst, abs(value - phi2_disc_oracle(g, H)))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(2, ok, f"worst |phi2 - oracle| {worst:.2e} (<=1e-4), {elapsed:.1f}s (<30s)")


def test_criterion_3_cubic_subproblem_stationarity():
    """Frozen stationary point of the (e1, I, 1) instance plus global-value
    agreement with the grid oracle on 30 random convex instances, n <= 3."""
    start = time.time()
    m = RegularisedModel(np.array([1.0, 0.0]), 1.0, lambda v: v)
    s, _ = sr.cubic_step(m, eps1=1e-9, theta=0.5)
    frozen_err = float(np.linalg.norm(s - np.array([-SQRT3_MINUS_1, 0.0])))

    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        H = A @ A.T + 0.1 * np.eye(n)
        g = rng.standard_normal(n)
        sigma = float(rng.uniform(0.3, 3.0))
        model = RegularisedModel(g, sigma, (lambda M: (lambda v: M @ v))(H))
        step, _ = sr.cubic_step(model, eps1=1e-9, theta=0.5)
        worst = max(worst, abs(model.value(step) - cubic_model_oracle(g, H, sigma)))
    elapsed = time.time() - start
    ok = frozen_err <= 1e-4 and worst <= 1e-6
    _report(3, ok, f"frozen-root err {frozen_err:.2e} (<=1e-4), "
                   f"oracle gap {worst:.2e} (<=1e-6), {elapsed:.1f}s")


def test_criterion_4_bernstein_closed_form_and_monotonicity():
    start = time.time()
    exact = sr.bernstein_size(1.0, 0.5, 0.2, 10.0, 10**6) == 80
    nus = np.logspace(-3.0, 1.0, 10)
    kappas = np.logspace(-3.0, 1.0, 10)
    mono = True
    for kappa in kappas:  # 100-point lattice
        sizes = [sr.bernstein_size(float(kappa), float(nu), 0.2, 10.0, 10**9) for nu in nus]
        mono &= all(a >= b for a, b in zip(sizes, sizes[1:]))
    for nu in nus:
        sizes = [sr.bernstein_size(float(kappa), float(nu), 0.2, 10.0, 10**9) for kappa in kappas]
        mono &= all(a <= b for a, b in zip(sizes, sizes[1:]))
    elapsed = time.time() - start
    ok = exact and mono and elapsed < 1.0
    _report(4, ok, f"closed form == 80: {exact}, lattice monotone: {mono}, "
                   f"{elapsed:.2f}s (<1s)")


def test_criterion_5_sampling_audit():
    """Bernstein guarantee audited empirically with the true gradient bound."""
    start = time.time()
    ds = sr.synthesize_dataset(3, 5000, 10, 2.0)
    prob = sr.SquaredLossProblem(ds, sr.NetworkSpec(10))
    x = np.zeros(10)
    kappa = max(
        float(np.linalg.norm(prob.component_gradient(i, x))) for i in range(prob.N)
    )
    rate = sr.audit_accuracy(
        prob, x, 0.5 * kappa, kappa, 0.2, 1, 1000, np.random.default_rng(5)
    )
    elapsed = time.time() - start
    ok = rate <= 0.25 and elapsed < 120.0
    _report(5, ok, f"failure rate {rate:.3f} (<=0.25 for t=0.2), {elapsed:.1f}s (<2min)")


def _exact_mode_runs():
    if "criterion6" in _RUN_CACHE:
        return _RUN_CACHE["criterion6"]
    train, _ = _split(11, 240, 200, 8, 3.0)
    prob = sr.SquaredLossProblem(train, sr.NetworkSpec(8))
    runs = {}
    for p in (1, 2):
        variants = []
        for seed in (0, 0, 17):
            cfg = sr.SolverConfig(
                q=1, p=p, kappa=1e9, eps1=1e-4, seed=seed,
                max_iters=5000, record_iterates=True,
            )
            variants.append((cfg, sr.minimize(prob, cfg)))
        runs[p] = variants
    _RUN_CACHE["criterion6"] = (prob, runs)
    return _RUN_CACHE["criterion6"]


def test_criterion_6_deterministic_reduction():
    """With the sample sizes clamped to N both solver variants must be
    bit-reproducible across repeats and seeds, decrease monotonically on
    successful iterations, and obey the update rules exactly."""
    start = time.time()
    prob, runs = _exact_mode_runs()
    ok = True
    details = []
    for p, variants in runs.items():
        (cfg, a), (_, b), (_, c) = variants
        identical = (
            len(a.iterates) == len(b.iterates) == len(c.iterates)
            and all((x == y).all() for x, y in zip(a.iterates, b.iterates))
            and all((x == y).all() for x, y in zip(a.iterates, c.iterates))
        )
        mono = all(
            e2.train_loss <= e1.train_loss
            for e1, e2 in zip(a.trace, a.trace[1:])
            if e2.success
        )
        sigma_floor = all(e.sigma >= cfg.sigma_min for e in a.trace)
        updates = all(
            (cur.sigma == max(cfg.sigma_min, prev.sigma / cfg.gamma))
            if prev.success
            else (cur.sigma == cfg.gamma * prev.sigma)
            for prev, cur in zip(a.trace, a.trace[1:])
        )
        omegas = all(
            e.omega == min(0.5 * cfg.alpha * cfg.eta, 1.0 / e.sigma) for e in a.trace
        )
        ok &= identical and mono and sigma_floor and updates and omegas
        details.append(
            f"p={p}: identical={identical} monotone={mono} sigma>=min={sigma_floor} "
            f"updates={updates} omega={omegas}"
        )
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _report(6, ok, "; ".join(details) + f", {elapsed:.1f}s (<1min)")


def _complexity_runs():
    if "criterion7" in _RUN_CACHE:
        return _RUN_CACHE["criterion7"]
    train = sr.synthesize_dataset(42, 500, 10, 2.0)
    prob = sr.SquaredLossProblem(train, sr.NetworkSpec(10))
    runs = {}
    for p in (1, 2):
        per_eps = {}
        for eps in (1e-1, 1e-2, 1e-3):
            cfg = sr.SolverConfig(q=1, p=p, kappa=1e9, eps1=eps, seed=0, max_iters=500_000)
            per_eps[eps] = sr.minimize(prob, cfg)
        runs[p] = per_eps
    _RUN_CACHE["criterion7"] = (prob, runs)
    return _RUN_CACHE["criterion7"]


def test_criterion_7_complexity_scaling():
    """Exact-mode hitting times scale no worse than the worst-case orders
    eps^-2 (quadratic model) and eps^-1.5 (cubic model), up to a factor 10
    against the eps = 0.1 anchor."""
    start = time.time()
    prob, runs = _complexity_runs()
    ok = True
    details = []
    for p, per_eps in runs.items():
        power = 2.0 if p == 1 else 1.5
        assert all(r.stop_reason == "converged" for r in per_eps.values())
        anchor = per_eps[1e-1].iterations * (1e-1) ** power
        worst_ratio = max(
            (per_eps[eps].iterations * eps**power) / anchor for eps in (1e-2, 1e-3)
        )
        ok &= worst_ratio <= 10.0
        counts = {eps: r.iterations for eps, r in per_eps.items()}
        details.append(f"p={p}: hits {counts}, worst scaled ratio {worst_ratio:.2f} (<=10)")
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(7, ok, "; ".join(details) + f", {elapsed:.1f}s (<5min)")


def _benchmark_dataset_dir():
    root = os.environ.get("SUBREG_DATA_DIR")
    if not root:
        return None
    return Path(root)


@pytest.mark.skipif(
    _benchmark_dataset_dir() is None,
    reason="set SUBREG_DATA_DIR to run the external-dataset reproduction",
)
def test_criterion_8_published_benchmarks():
    """Mean test classification rates over 20 seeded runs within 3 points
    of the published values (GISETTE 94.67 / 87.75, MNIST parity 87.37)."""
    root = _benchmark_dataset_dir()
    start = time.time()
    results = {}

    gisette_train = root / "gisette_train.csv"
    if gisette_train.exists():
        train = sr.load_dataset(gisette_train, "csv")
        test = sr.load_dataset(root / "gisette_test.csv", "csv")
        for label, p, budget, target in (("gisette-p2", 2, 100.0, 0.9467),
                                         ("gisette-p1", 1, 100.0, 0.8775)):
            config = sr.ExperimentConfig(
                train=train,
                network=sr.NetworkSpec(train.d),
                solver=sr.SolverConfig(p=p, kappa=8e-4, budget_cm=budget, seed=0),
                test=test,
                runs=20,
            )
            rates = [s.classification_rate for s in sr.run_experiment(config, verbose=False)]
            results[label] = (float(np.mean(rates)), target)

    mnist_train = root / "mnistb_train.csv"
    if mnist_train.exists():
        train = sr.load_dataset(mnist_train, "csv")
        test = sr.load_dataset(root / "mnistb_test.csv", "csv")
        config = sr.ExperimentConfig(
            train=train,
            network=sr.NetworkSpec(train.d),
            solver=sr.SolverConfig(p=1, kappa=3e-2, budget_cm=80.0, seed=0),
            test=test,
            runs=20,
        )
        rates = [s.classification_rate for s in sr.run_experiment(config, verbose=False)]
        results["mnistb-p1"] = (float(np.mean(rates)), 0.8737)

    if not results:
        pytest.skip("SUBREG_DATA_DIR set but no recognised dataset files found")
    ok = all(abs(mean - target) <= 0.03 for mean, target in results.values())
    detail = ", ".join(
        f"{name}: {mean:.4f} vs {target:.4f}" for name, (mean, target) in results.items()
    )
    _report(8, ok, detail + f", {time.time() - start:.0f}s")


def _synthetic_end_to_end_runs():
    if "criterion9" in _RUN_CACHE:
        return _RUN_CACHE["criterion9"]
    train, test = _split(100, 2400, 2000, 20, 5.0)
    prob = sr.SquaredLossProblem(train, sr.NetworkSpec(20))
    runs = []
    for seed in range(20):
        cfg = sr.SolverConfig(q=1, p=1, budget_cm=20.0, seed=seed)
        result = sr.minimize(prob, cfg)
        runs.append(result)
    _RUN_CACHE["criterion9"] = (prob, test, runs)
    return _RUN_CACHE["criterion9"]


def test_criterion_9_synthetic_end_to_end():
    """Default solver on well-separated blobs: at least 18 of 20 seeds reach
    a 95% held-out classification rate within a 20 CM budget."""
    start = time.time()
    prob, test, runs = _synthetic_end_to_end_runs()
    spec = sr.NetworkSpec(20)
    rates = [sr.classification_rate(spec, r.x, test) for r in runs]
    hits = sum(rate >= 0.95 for rate in rates)
    elapsed = time.time() - start
    ok = hits >= 18 and elapsed < 120.0
    _report(9, ok, f"{hits}/20 seeds at rate >= 0.95 (min {min(rates):.4f}), "
                   f"{elapsed:.1f}s (<2min)")


def test_criterion_10_cost_accounting():
    """Recomputing cumulative cost from the per-iteration trace fields must
    reproduce the meter column exactly on every run of criteria 6, 7, 9."""
    start = time.time()
    audited = 0
    exact = True
    jobs = []
    prob6, runs6 = _exact_mode_runs()
    jobs += [(prob6.N, r.trace) for variants in runs6.values() for _, r in variants]
    prob7, runs7 = _complexity_runs()
    jobs += [(prob7.N, r.trace) for per_eps in runs7.values() for r in per_eps.values()]
    prob9, _, runs9 = _synthetic_end_to_end_runs()
    jobs += [(prob9.N, r.trace) for r in runs9]
    for N, trace in jobs:
        cm = 0.0
        for e in trace:
            cm += iteration_charge(
                N, e.d1_size, e.d2_size, e.g_size, e.g_d1_overlap,
                e.h_size, e.h_g_overlap, e.hvp_props,
            )
            exact &= cm == e.cm
        audited += 1
    elapsed = time.time() - start
    ok = exact and audited == 6 + 6 + 20
    _report(10, ok, f"{audited} runs audited, meter reproduced exactly: {exact}, "
                    f"{elapsed:.1f}s")
