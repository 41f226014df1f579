"""Semi-implicit Euler-Maruyama for SDEs with super-linear drift and jumps.

The drift is advanced implicitly (one scalar root-find per path and step),
while diffusion and jump increments enter explicitly at the left endpoint.
The package bundles increment samplers for alpha-stable and tempered stable
drivers, strong-convergence measurement on coupled grids, and empirical
invariant-measure diagnostics, plus a CLI exposing the built-in experiments.
"""

from .convergence import (
    ErrorRow,
    ErrorTable,
    OrderFit,
    fit_order,
    predicted_order,
    strong_error_table,
)
from .engine import (
    EnsembleResult,
    IncrementTape,
    MomentCurve,
    StrongErrorRun,
    coupling_curve,
    make_tape,
    second_moment_curve,
    simulate_ensemble,
    steps_for_horizon,
    strong_error_run,
)
from .errors import ConfigurationError, StepFailureError
from .experiments import catalog, entry_config, execute_config, write_run
from .implicit import (
    StepDiagnostics,
    residual_function,
    solvability_limit,
    solve_implicit_steps,
)
from .measures import (
    EmpiricalMeasure,
    StationaryReference,
    evolve_empirical_law,
    invariant_convergence_report,
    ks_statistic,
    ou_stationary_scale,
    two_initial_value_coupling,
    wasserstein_k,
)
from .model import (
    AssumptionConstants,
    SdeProblem,
    coupling_envelope,
    run_declared_probes,
    second_moment_envelope,
)
from .noise import (
    NoiseSpec,
    PathStreams,
    increment_characteristic_function,
    sample_levy_increments,
    validate_moment_conditions,
)
from .problems import builtin_problem, builtin_problem_names, problem_from_config

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AssumptionConstants",
    "ConfigurationError",
    "EmpiricalMeasure",
    "EnsembleResult",
    "ErrorRow",
    "ErrorTable",
    "IncrementTape",
    "MomentCurve",
    "NoiseSpec",
    "OrderFit",
    "PathStreams",
    "SdeProblem",
    "StationaryReference",
    "StepDiagnostics",
    "StepFailureError",
    "StrongErrorRun",
    "builtin_problem",
    "builtin_problem_names",
    "catalog",
    "coupling_curve",
    "coupling_envelope",
    "entry_config",
    "evolve_empirical_law",
    "execute_config",
    "fit_order",
    "increment_characteristic_function",
    "invariant_convergence_report",
    "ks_statistic",
    "make_tape",
    "ou_stationary_scale",
    "predicted_order",
    "problem_from_config",
    "residual_function",
    "run_declared_probes",
    "sample_levy_increments",
    "second_moment_curve",
    "second_moment_envelope",
    "simulate_ensemble",
    "solvability_limit",
    "solve_implicit_steps",
    "steps_for_horizon",
    "strong_error_run",
    "strong_error_table",
    "two_initial_value_coupling",
    "validate_moment_conditions",
    "wasserstein_k",
    "write_run",
]
