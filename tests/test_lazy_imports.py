"""SciPy serves only the iterative eigensolvers (n > DENSE_MAX_N), which
only a q = 2 solve there asks: the quadratic variant, the cubic one at
q = 1 and the cubic one at q = 2 on small n never load it.

Each check runs in a fresh interpreter: this test process has imported
SciPy already (``oracles`` uses ``scipy.optimize``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import subreg

SCIPY_SUBPACKAGES = ("scipy.linalg", "scipy.optimize", "scipy.sparse")

P1_RUN = """
import sys
import subreg
from subreg import cli, harness

data, out = sys.argv[1:]
ds = harness.synthesize_dataset(0, 300, 4, 2.0)
problem = subreg.SquaredLossProblem(ds, subreg.NetworkSpec(4))
result = subreg.minimize(problem, subreg.SolverConfig(p=1, budget_cm=5.0, seed=1))
assert result.stop_reason in ("budget", "converged"), result.stop_reason
harness.save_dataset_csv(ds, data)
code = cli.main(["train", "--dataset", data, "--p", "1", "--budget-cm", "2",
                 "--runs", "1", "--out", out])
assert code == 0
"""

P2_RUN = """
import subreg
from subreg import solver

# The dense path ran: subspace solves to size the samples and exact q = 2
# steps, and phi_2 in the termination test of the converged run, each on
# 4 unknowns; a q = 1 run then takes only subspace solves.
solves, measures = [], []
solve, phi_2 = solver.cubic_step, solver.phi_2
solver.cubic_step = lambda model, *args: solves.append((model.n, args[-1])) or solve(model, *args)
solver.phi_2 = lambda *args: measures.append(args[-1]) or phi_2(*args)
ds = subreg.synthesize_dataset(0, 300, 4, 2.0)
problem = subreg.SquaredLossProblem(ds, subreg.NetworkSpec(4))
config = subreg.SolverConfig(p=2, q=2, eps2=1e-3, budget_cm=400.0, seed=1)
result = subreg.minimize(problem, config)
assert result.stop_reason == "converged", result.stop_reason
assert set(solves) == {(4, None), (4, 1e-3)}, solves
assert measures and set(measures) == {4}, measures
solves.clear()
result = subreg.minimize(problem, subreg.SolverConfig(p=2, q=1, budget_cm=100.0, seed=1))
assert set(solves) == {(4, None)}, solves
"""

FIRST_ORDER_ABOVE_DENSE = """
import numpy as np
import subreg
from subreg.optimality import DENSE_MAX_N

# A q = 1 run above DENSE_MAX_N takes subspace solves in numpy only, from
# a start where the gradient vanishes and from one where it does not.
n = DENSE_MAX_N + 5
ds = subreg.synthesize_dataset(0, 300, n, 2.0)
problem = subreg.SquaredLossProblem(ds, subreg.NetworkSpec(n))
for x0 in (None, np.full(n, 0.01)):
    config = subreg.SolverConfig(p=2, q=1, budget_cm=20.0, seed=1)
    result = subreg.minimize(problem, config, x0=x0)
    assert result.stop_reason in ("budget", "converged"), result.stop_reason
"""

ITERATIVE_PHI2 = """
import numpy as np
from subreg.optimality import DENSE_MAX_N, phi_2

n = DENSE_MAX_N + 1
result = phi_2(np.ones(n), lambda v: 2.0 * v, n)
assert result.value > 0.0
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


def test_quadratic_variant_imports_no_scipy_subpackage(tmp_path):
    modules = scipy_modules_after(P1_RUN, tmp_path / "d.csv", tmp_path / "out")
    assert [m for m in modules if m.startswith(SCIPY_SUBPACKAGES)] == []


def test_cubic_variant_on_the_dense_path_imports_no_scipy_subpackage():
    modules = scipy_modules_after(P2_RUN)
    assert [m for m in modules if m.startswith(SCIPY_SUBPACKAGES)] == []


def test_first_order_cubic_variant_imports_no_scipy_subpackage_at_any_order():
    modules = scipy_modules_after(FIRST_ORDER_ABOVE_DENSE)
    assert [m for m in modules if m.startswith(SCIPY_SUBPACKAGES)] == []


def test_iterative_phi2_loads_the_sparse_eigensolvers_on_first_use():
    assert "scipy.sparse.linalg" in scipy_modules_after(ITERATIVE_PHI2)
