"""Adaptively regularised quadratic and cubic solvers for finite-sum
minimisation, with subsampled derivative estimates sized by operator
Bernstein bounds."""

from .finite_sum import (
    CustomProblem,
    FiniteSumProblem,
    SampleHessian,
    full_gradient,
    full_hvp,
    full_value,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    load_dataset,
    run_experiment,
    synthesize_dataset,
)
from .model import RegularisedModel, accuracy_quantities
from .optimality import TrustRegionResult, check_termination, phi_1, phi_2
from .problems import (
    Dataset,
    NetworkSpec,
    SquaredLossProblem,
    classification_rate,
    initial_point,
    predict,
    sigmoid,
    testing_loss,
)
from .sampling import (
    audit_accuracy,
    bernstein_size,
    draw_subsample,
)
from .solver import (
    CostMeter,
    SolverConfig,
    SolverResult,
    SolverStallError,
    TraceEvent,
    iteration_charge,
    minimize,
    rho,
)
from .subproblem import cubic_step, quadratic_step

__version__ = "0.1.0"
