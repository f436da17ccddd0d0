"""No run loads SciPy: every solve and measure runs on numpy alone, at
p = 1 and at q = 1 and q = 2, on both sides of DENSE_MAX_N.

The check runs in a fresh interpreter: this test process has imported
SciPy already (``oracles`` uses ``scipy.optimize``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import subreg

RUNS = """
import sys
import numpy as np
import subreg
from subreg import cli, harness, solver
from subreg.optimality import DENSE_MAX_N

data, out = sys.argv[1:]

# p = 1, through the API and the command line.
ds = harness.synthesize_dataset(0, 300, 4, 2.0)
problem = subreg.SquaredLossProblem(ds, subreg.NetworkSpec(4))
result = subreg.minimize(problem, subreg.SolverConfig(p=1, budget_cm=5.0, seed=1))
assert result.stop_reason in ("budget", "converged"), result.stop_reason
harness.save_dataset_csv(ds, data)
code = cli.main(["train", "--dataset", data, "--p", "1", "--budget-cm", "2",
                 "--runs", "1", "--out", out])
assert code == 0

# The dense path on 4 unknowns: subspace solves to size the samples and
# exact q = 2 steps, and phi_2 in the termination test of the converged
# run; a q = 1 run then takes only subspace solves.
solves, measures = [], []
solve, phi_2 = solver.cubic_step, solver.phi_2
solver.cubic_step = lambda model, *args: solves.append((model.n, args[-1])) or solve(model, *args)
solver.phi_2 = lambda *args: measures.append(args[-1]) or phi_2(*args)
config = subreg.SolverConfig(p=2, q=2, eps2=1e-3, budget_cm=400.0, seed=1)
result = subreg.minimize(problem, config)
assert result.stop_reason == "converged", result.stop_reason
assert set(solves) == {(4, None), (4, 1e-3)}, solves
assert measures == [4], measures
solves.clear()
result = subreg.minimize(problem, subreg.SolverConfig(p=2, q=1, budget_cm=100.0, seed=1))
assert set(solves) == {(4, None)}, solves

# Above DENSE_MAX_N: q = 1 from a start where the gradient vanishes and
# from one where it does not, and a q = 2 run that measures phi_2 on the
# Krylov path in its solves and its termination test.
n = DENSE_MAX_N + 5
ds = harness.synthesize_dataset(1, 400, n, 3.0)
problem = subreg.SquaredLossProblem(ds, subreg.NetworkSpec(n))
for x0 in (None, np.full(n, 0.01)):
    config = subreg.SolverConfig(p=2, q=1, budget_cm=20.0, seed=1)
    result = subreg.minimize(problem, config, x0=x0)
    assert result.stop_reason in ("budget", "converged"), result.stop_reason
measures.clear()
config = subreg.SolverConfig(p=2, q=2, eps1=0.1, eps2=0.1, budget_cm=3000.0, seed=1000)
result = subreg.minimize(problem, config)
assert result.stop_reason == "converged", result.stop_reason
assert measures == [n], measures
"""


def scipy_modules_after(code, *args):
    """The SciPy modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('scipy')]))\n"
    src = str(Path(subreg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_run_imports_scipy(tmp_path):
    assert scipy_modules_after(RUNS, tmp_path / "d.csv", tmp_path / "out") == []
