"""Principal eigenpairs of monotone discrete operators.

The linear solver runs inverse power iteration on B = s*I - L_h (a
nonsingular M-matrix after the properness shift s), whose inverse is
entrywise nonnegative, so the iterates stay positive and the Collatz-
Wielandt ratios bracket the Perron value rigorously at every step. Bellman
problems wrap the linear solver in Howard policy iteration.

A 2D operator whose samples separate by axis (sep-2d, a 2D effective one)
is a Kronecker sum of two 1D ones, whose Perron roots and brackets add.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .coeff import BellmanSpec
from .domain import (
    DiscreteOperator,
    DomainGrid,
    assemble_linear,
    bellman_operators,
    effective_samples,
    properness_shift,
    shifted_m_matrix,
)
from .effective import EffectiveLinear
from .errors import InputError, IterationError, SolverError
from .stencils import separable_by_axis
from .torus import (FactoredOperator, GridFunction, improve_policy,
                    policy_iteration, select_rows)


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
    lies between the two. phi is checked as a start vector (`_start_vector`).
    """
    vec = _start_vector(phi, op.grid, op.matrix.shape[0], "phi")
    ratios = -(op.matrix @ vec) / vec
    return float(ratios.min()), float(ratios.max())


def _start_vector(x0, grid, n, name="starting"):
    """x0, a GridFunction on `grid` or a vector on its n interior nodes, as
    a fresh interior vector; InputError, naming x0 `name`, unless it is
    finite and positive."""
    if isinstance(x0, GridFunction):
        if x0.values.shape != grid.shape:
            raise InputError(f"{name} grid function has shape "
                             f"{x0.values.shape}, not {grid.shape}")
        x0 = x0.flat[grid.interior_index()]
    v = np.array(x0, dtype=float)
    if v.shape != (n,) or not (np.all(np.isfinite(v)) and v.min() > 0):
        raise InputError(f"{name} vector must be finite and positive, of "
                         f"shape ({n},); got shape {v.shape}")
    return v


def principal_eigenpair(op: DiscreteOperator, tol=1e-9, max_iter=500,
                        x0=None) -> EigenPair:
    """Positive principal eigenpair of a monotone discrete operator.

    Stops when the Collatz-Wielandt bracket around lambda is narrower than
    `tol`; lambda is reported as the bracket midpoint. B = s*I - L_h, from
    `shifted_m_matrix`, is factored once by FactoredOperator (LAPACK's
    tridiagonal LU of B's bands in 1D, SuperLU with the minimum-degree
    ordering on B^T + B in 2D) and every iteration is one pair of triangular
    solves against it. It starts from `x0`, a GridFunction on op.grid or a
    vector on the interior nodes (default ones); s and B do not depend on
    it, so it moves lambda only inside the certified bracket.
    """
    n = op.matrix.shape[0]
    v = np.ones(n) if x0 is None else _start_vector(x0, op.grid, n)
    s = properness_shift(op)
    shifted, ok, info = shifted_m_matrix(op, s)
    if not ok:
        raise SolverError(f"operator is not monotone under shift {s:g}: {info}")
    lu = FactoredOperator(shifted)
    del shifted  # the power loop needs only the factor
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


def linear_eigenpair(grid: DomainGrid, avals, bvals, cvals, tol=1e-9,
                     x0=None):
    """(pair, op): the principal eigenpair of `assemble_linear(grid, avals,
    bvals, cvals)` (samples on the full node set) and that operator, or None.

    2D samples that pass `stencils.separable_by_axis` (b1 and c with a11, b2
    with a22) give L_1 (x) I + I (x) L_2: each axis is solved with tol/2, op
    is None, lam is the midpoint of the certified [l_1 + l_2, u_1 + u_2],
    phi = phi_1 (x) phi_2, residual = max |L phi + lam phi| = max |r_1 (x)
    phi_2 + phi_1 (x) r_2 + (lam - lam_1 - lam_2) phi| with r_k = L_k phi_k
    + lam_k phi_k, and iterations and bracket widths add. Anything else is
    assembled and solved from the start vector `x0` (see
    `principal_eigenpair`). The axis solves ignore x0 and start from ones:
    seeding them with the rank-one factors of the homogenized eigenfunction
    raised the sep-2d sweep's iterations from 104 to 110.
    """
    if grid.dim == 2:
        a = np.asarray(avals, dtype=float).reshape(grid.shape + (2, 2))
        b = np.asarray(bvals, dtype=float).reshape(grid.shape + (2,))
        c = np.reshape(cvals, grid.shape)
    if grid.dim != 2 or not separable_by_axis(a, (b[..., 0], c), (b[..., 1],)):
        op = assemble_linear(grid, avals, bvals, cvals)
        return principal_eigenpair(op, tol=tol, x0=x0), op
    axes = []
    for k, samples in enumerate(((a[:, 0, 0, 0], b[:, 0, 0], c[:, 0]),
                                 (a[0, :, 1, 1], b[0, :, 1], np.zeros(c.shape[1])))):
        op = assemble_linear(DomainGrid(1, (grid.bounds[k],), (grid.n[k],)),
                             *samples)
        pair = principal_eigenpair(op, tol=tol / 2)
        v = pair.phi.values[1:-1]
        axes.append((pair, v, op.matrix @ v + pair.lam * v))
    (p1, v1, r1), (p2, v2, r2) = axes
    lower, upper = p1.cw_lower + p2.cw_lower, p1.cw_upper + p2.cw_upper
    lam = 0.5 * (lower + upper)
    residual = np.outer(r1, v2) + np.outer(v1, r2) + \
        (lam - p1.lam - p2.lam) * np.outer(v1, v2)
    h1, h2 = p1.bracket_history, p2.bracket_history
    history = [h1[min(i, len(h1) - 1)] + h2[min(i, len(h2) - 1)]
               for i in range(max(len(h1), len(h2)))]
    phi = GridFunction(grid, np.outer(p1.phi.values, p2.phi.values))
    return EigenPair(float(lam), phi, float(np.max(np.abs(residual))),
                     float(lower), float(upper),
                     p1.iterations + p2.iterations, history), None


def effective_eigenpair(eff: EffectiveLinear, grid: DomainGrid,
                        tol=1e-9) -> EigenPair:
    """`linear_eigenpair` of the effective constants broadcast to `grid`."""
    return linear_eigenpair(grid, *effective_samples(eff, grid), tol=tol)[0]


def principal_eigenpair_bellman(spec: BellmanSpec, eps, grid: DomainGrid,
                                tol=1e-9, max_outer=60, ops=None, x0=None):
    """Principal eigenpair of the sup-form Bellman operator, plus its policy.

    Howard outer loop: solve the frozen-policy eigenpair, re-select the
    nodewise argmax control against the current eigenfunction, repeat until
    the policy is stationary. The eigenvalue sequence is nonincreasing (the
    optimal eigenvalue is the minimum over frozen-policy eigenvalues).
    The first policy is control 0, improved once by `improve_policy` against
    the start vector `x0` when one is given (see `principal_eigenpair`; a
    sweep passes the homogenized eigenfunction). The first eigensolve starts
    from x0 (or ones), each later one from the previous eigenfunction. The
    pair's `iterations` add up the inverse-power iterations of all of them.
    """
    if ops is None:
        ops = bellman_operators(spec, eps, grid)
    n = ops[0].matrix.shape[0]
    interior = grid.interior_index()
    start = None if x0 is None else _start_vector(x0, grid, n)
    prev = None

    def values(vec):
        return np.array([op.matrix @ vec for op in ops])

    def evaluate(policy):
        nonlocal prev, start
        pair = principal_eigenpair(_freeze_policy(ops, policy, grid), tol=tol,
                                   x0=start)
        if prev is not None and pair.lam > prev.lam + 10 * tol:
            raise IterationError(
                f"policy oscillation: eigenvalue rose from {prev.lam:.12g} to "
                f"{pair.lam:.12g} at eps={eps:g}"
            )
        pair.iterations += 0 if prev is None else prev.iterations
        prev, start = pair, pair.phi.flat[interior]
        return pair, values(start)

    policy = np.zeros(n, dtype=int)
    if start is not None:
        policy = improve_policy(values(start), policy)[1]
    return policy_iteration(evaluate, policy, max_outer)


def _freeze_policy(ops, policy, grid):
    """The operator whose row i is row i of ops[policy[i]]: taken from the
    stacked bands when the operators carry bands, else by `select_rows`."""
    c_max = max(ops[beta].c_max for beta in np.unique(policy))
    if all(op.bands is not None for op in ops):
        nodes = np.arange(len(policy))
        bands = tuple(np.stack(band)[policy, nodes]
                      for band in zip(*(op.bands for op in ops)))
        return DiscreteOperator.from_bands(grid, bands, c_max)
    return DiscreteOperator(select_rows([op.matrix for op in ops], policy),
                            select_rows([op.boundary for op in ops], policy),
                            grid, c_max)
