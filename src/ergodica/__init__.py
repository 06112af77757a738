"""Periodic homogenization of principal eigenvalues for second-order
elliptic operators: torus cell problems, effective coefficients, corrector
hierarchies, and empirical convergence-rate studies.

The names below are the documented API (README, "Python API"); everything
else is reached through its module.
"""

from .coeff import (
    BellmanSpec,
    CoefficientField,
    LinearOperatorSpec,
    PucciSpec,
    check_structure,
    constant_field,
    pucci_controls_1d,
    separable_sin_field_2d,
    sin_field_1d,
)
from .corrector import (
    align_eigenfunctions,
    core_residual,
    derivative_bundle,
    full_corrector,
    linear_expansion,
    nonlinear_expansion,
    pivot_problem,
    prepare_expansion,
    second_corrector,
    slow_corrector,
    solve_psi1,
    third_corrector,
)
from .domain import (
    DiscreteOperator,
    DomainGrid,
    assemble_effective,
    assemble_linear,
    assemble_oscillatory,
    bellman_operators,
    dirichlet_solve,
    fast_coordinates,
    trace_grid,
)
from .effective import (
    CorrectorSet,
    EffectiveLinear,
    build_corrector_set,
    effective_linear,
    first_order_effective,
)
from .eigen import (
    effective_eigenpair,
    linear_eigenpair,
    principal_eigenpair,
    principal_eigenpair_bellman,
)
from .errors import (
    AssemblyError,
    ConfigError,
    ErgodicaError,
    InputError,
    IterationError,
    SolverError,
)
from .cli import SweepConfig, fit_rate, run_sweep
from .torus import GridFunction, PeriodicGrid, solve_cell, solve_nonlinear_cell

__version__ = "0.1.0"
