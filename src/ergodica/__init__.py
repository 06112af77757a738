"""Periodic homogenization of principal eigenvalues for second-order
elliptic operators: torus cell problems, effective coefficients, corrector
hierarchies, and empirical convergence-rate studies.
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
    DerivativeBundle,
    ExpansionResult,
    PreparedExpansion,
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
    apply_bellman,
    assemble_effective,
    assemble_linear,
    assemble_oscillatory,
    bellman_operators,
    dirichlet_solve,
    fast_coordinates,
    node_index,
    properness_shift,
    trace_grid,
)
from .effective import (
    CorrectorSet,
    EffectiveLinear,
    build_corrector_set,
    effective_bellman_1d,
    effective_linear,
    first_order_effective,
)
from .eigen import (
    EigenPair,
    collatz_wielandt,
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
from .cli import SweepConfig, SweepReport, emit_report, fit_rate, run_sweep
from .torus import (
    ErgodicSolution,
    GridFunction,
    PeriodicGrid,
    assemble_torus_diffusion,
    gradient_matrices,
    solve_cell,
    solve_nonlinear_cell,
)

__version__ = "0.1.0"
