"""Principal eigenpairs of monotone discrete operators.

The linear solver runs inverse power iteration on B = s*I - L_h (a
nonsingular M-matrix after the properness shift s), whose inverse is
entrywise nonnegative, so the iterates stay positive and the Collatz-
Wielandt ratios bracket the Perron value rigorously at every step. Bellman
problems wrap the linear solver in Howard policy iteration.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from .coeff import BellmanSpec
from .domain import (
    DiscreteOperator,
    DomainGrid,
    bellman_operators,
    is_monotone,
    properness_shift,
)
from .errors import InputError, IterationError, SolverError
from .torus import FactoredOperator, GridFunction, policy_iteration, select_rows


@dataclass
class EigenPair:
    """Principal eigenpair with sign convention L phi = -lambda phi.

    phi is positive on the interior, sup-normalized; [cw_lower, cw_upper]
    is an a posteriori Perron bracket around lambda.
    """

    lam: float
    phi: GridFunction
    residual: float
    cw_lower: float
    cw_upper: float
    iterations: int
    bracket_history: list = dc_field(default_factory=list)


def collatz_wielandt(op: DiscreteOperator, phi):
    """Nodewise ratio bounds (min, max) of (-L_h phi) / phi for positive phi.

    By Perron theory on the monotone discretization the principal eigenvalue
    lies between the two.
    """
    vec = phi.flat[op.grid.interior_index()] if isinstance(phi, GridFunction) \
        else np.asarray(phi, dtype=float).ravel()
    if vec.min() <= 0:
        raise InputError("Collatz-Wielandt bounds need phi > 0 on the interior")
    ratios = -(op.matrix @ vec) / vec
    return float(ratios.min()), float(ratios.max())


def principal_eigenpair(op: DiscreteOperator, tol=1e-9, max_iter=500,
                        x0=None) -> EigenPair:
    """Positive principal eigenpair of a monotone discrete operator.

    Stops when the Collatz-Wielandt bracket around lambda is narrower than
    `tol`; lambda is reported as the bracket midpoint. B = s*I - L_h is
    factored once by FactoredOperator (LAPACK's tridiagonal LU in 1D,
    SuperLU with the minimum-degree ordering on B^T + B in 2D) and every
    iteration is one pair of triangular solves against it.
    """
    s = properness_shift(op)
    ok, info = is_monotone(op, s)
    if not ok:
        raise SolverError(f"operator is not monotone under shift {s:g}: {info}")
    n = op.matrix.shape[0]
    lu = FactoredOperator(sparse.identity(n) * s - op.matrix)
    v = np.ones(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if v.min() <= 0:
        raise InputError("starting vector must be positive")
    v /= v.max()

    history = []
    lower = upper = None
    for it in range(1, max_iter + 1):
        w = lu.solve(v)
        if w.min() <= 0:
            raise SolverError(
                "inverse power iterate lost positivity; monotonicity failure"
            )
        r = w / v
        # Perron value of B^{-1} lies in [r.min(), r.max()]; map to lambda
        lower = 1.0 / r.max() - s
        upper = 1.0 / r.min() - s
        history.append(upper - lower)
        v = w / w.max()
        if upper - lower <= tol:
            break
    else:
        raise IterationError(
            f"power iteration: bracket width {upper - lower:.3e} > tol after "
            f"{max_iter} iterations (bracket [{lower:.12g}, {upper:.12g}])"
        )
    lam = 0.5 * (lower + upper)
    residual = float(np.max(np.abs(op.matrix @ v + lam * v)))
    phi = GridFunction(op.grid, op.grid.embed(v))
    return EigenPair(
        lam=float(lam), phi=phi, residual=residual,
        cw_lower=float(lower), cw_upper=float(upper),
        iterations=it, bracket_history=history,
    )


def principal_eigenpair_bellman(spec: BellmanSpec, eps, grid: DomainGrid,
                                tol=1e-9, max_outer=60, ops=None):
    """Principal eigenpair of the sup-form Bellman operator, plus its policy.

    Howard outer loop: solve the frozen-policy eigenpair, re-select the
    nodewise argmax control against the current eigenfunction, repeat until
    the policy is stationary. The eigenvalue sequence is nonincreasing (the
    optimal eigenvalue is the minimum over frozen-policy eigenvalues).
    """
    if ops is None:
        ops = bellman_operators(spec, eps, grid)
    interior = grid.interior_index()
    prev = None

    def evaluate(policy):
        nonlocal prev
        pair = principal_eigenpair(
            _freeze_policy(ops, policy, grid, eps), tol=tol,
            x0=None if prev is None else prev.phi.flat[interior])
        if prev is not None and pair.lam > prev.lam + 10 * tol:
            raise IterationError(
                f"policy oscillation: eigenvalue rose from {prev.lam:.12g} to "
                f"{pair.lam:.12g} at eps={eps:g}"
            )
        prev = pair
        vec = pair.phi.flat[interior]
        return pair, np.array([op.matrix @ vec for op in ops])

    policy = np.zeros(ops[0].matrix.shape[0], dtype=int)
    return policy_iteration(evaluate, policy, max_outer)


def _freeze_policy(ops, policy, grid, eps):
    return DiscreteOperator(
        matrix=select_rows([op.matrix for op in ops], policy),
        boundary=select_rows([op.boundary for op in ops], policy),
        grid=grid, eps=eps, scheme={"policy": "frozen"},
        c_max=max(ops[beta].c_max for beta in np.unique(policy)),
    )
