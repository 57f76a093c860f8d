"""Structure-preserving integrators for charged-particle motion.

The package integrates the Lorentz force system in its non-canonical
Hamiltonian form z' = K(z) grad H(z) with discrete line integral (DLI)
one-step methods, whose headline instance ``bdli`` uses Boole's rule and
conserves polynomial energies of degree <= 4 exactly (up to solver
tolerance).  Boris and RK4 steppers are included as references, along
with conserved-quantity diagnostics and reproducible experiment drivers.
"""

from .diagnostics import QUANTITIES, quantity_series, series_errors
from .experiments import (
    BUILTIN_SCENARIOS,
    ComparisonReport,
    ConfigError,
    ConvergenceStudy,
    RunSummary,
    Scenario,
    builtin_scenario,
    compare_methods,
    convergence_study,
    load_config,
    parse_step_size,
    run_scenario,
    scenario_to_config,
)
from .fields import (
    FIELD_MODELS,
    CylindricalDriftField,
    FieldModel,
    FieldSingularityError,
    PotentialUnavailableError,
    QuarticWellField,
    TokamakField,
    UniformField,
    make_field,
)
from .hamiltonian import ChargedParticleSystem, PhaseState
from .integrators import (
    DLIKernel,
    IntegrationError,
    NonConvergenceError,
    SingularityError,
    SolverOptions,
    StepReport,
    Trajectory,
    boris_step,
    dli_kernel,
    dli_step,
    integrate,
    resolve_method,
    rk4_step,
)
from .quadrature import QuadratureRule, builtin_rule

__version__ = "0.1.0"
