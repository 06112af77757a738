"""Two-scale expansion machinery: interior correctors, the linear expansion,
the pivot problem, eigenfunction alignment, and the nonlinear expansion.

Torus profiles are read along the diagonal y = x/eps at the torus node of
each distinct fast coordinate, on a grid that holds them (`trace_grid`),
and scattered back to the nodes. The derivatives of the effective
eigenfunction u are exact (`eigen.ToeplitzPair.derivatives`); other
x-derivatives use 4th-order stencils. The boundary correctors vanish
(`full_corrector`), so none is solved for, and u + v^eps and w^eps are 0
on the boundary: the operators act on their interior values alone.

Both expansions split into an eps-independent part, built once per sweep and
only read by the rows, and a per-eps evaluation: `slow_corrector` (derivatives
of u and psi_1) and `linear_expansion` for linear problems;
`prepare_expansion` (|u''| and the M = -1 cell) and `nonlinear_expansion`
for Bellman problems, whose 1D expansion u + eps^2 w_2 has no first-order
term.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .domain import (
    DiscreteOperator,
    DomainGrid,
    dirichlet_solve,
    fast_coordinates,
    node_index,
    torus_nodes,
)
from .effective import CorrectorSet, EffectiveLinear
from .eigen import EigenPair, ToeplitzPair
from .errors import InputError
from .stencils import bounded_diff_matrix
from .torus import ErgodicSolution, GridFunction


@dataclass
class DerivativeBundle:
    """A domain function with its derivatives up to a requested order."""

    u: GridFunction
    d1: Dict[tuple, GridFunction]
    d2: Dict[tuple, GridFunction]
    d3: Dict[tuple, GridFunction]
    order: int


def _axis_apply(D, values, axis):
    return D @ values if axis == 0 else (D @ values.T).T


def derivative_bundle(u: GridFunction, order: int) -> DerivativeBundle:
    """Differentiate a domain grid function with 4th-order stencils.

    Centered in the interior, one-sided near the boundary. Mixed partials
    are compositions of the per-axis operators, so their symmetry is exact.
    """
    if order > 3:
        raise InputError("order must be <= 3")
    grid = u.grid
    d = grid.dim
    mats = [bounded_diff_matrix(n, h, m=1) for n, h in zip(grid.shape, grid.h)]
    vals = u.values

    d1 = {(k,): _axis_apply(mats[k], vals, k) for k in range(d)}
    d2, d3 = {}, {}
    if order >= 2:
        for k in range(d):
            for l in range(k, d):
                d2[(k, l)] = _axis_apply(mats[l], d1[(k,)], l)
                d2[(l, k)] = d2[(k, l)]
    if order >= 3:
        base = {}
        for key in {tuple(sorted(t)) for t in np.ndindex((d,) * 3)}:
            kk, ll, mm = key
            base[key] = _axis_apply(mats[mm], d2[(kk, ll)], mm)
        for t in np.ndindex((d,) * 3):
            d3[t] = base[tuple(sorted(t))]
    wrap = lambda table: {key: GridFunction(grid, arr) for key, arr in table.items()}
    return DerivativeBundle(u, wrap(d1), wrap(d2), wrap(d3), order)


def _tracer(correctors: CorrectorSet, grid: DomainGrid, eps: float, fast):
    """sol -> x -> sol.chi(x/eps) at every node of `grid` (`torus_nodes`)."""
    rows, at = fast_coordinates(grid, eps) if fast is None else fast
    index = torus_nodes(rows, correctors.grid)[node_index(at)]
    return lambda sol: sol.chi.flat[index]


def second_corrector(correctors: CorrectorSet, bundle: DerivativeBundle,
                     eps: float, fast=None) -> GridFunction:
    """Trace x -> w_2(x, x/eps) of the second-order interior corrector.

    w_2(x, y) = chi^{kl}(y) d2_kl u(x) + eta^k(y) d1_k u(x) + nu(y) u(x).
    The correctors' torus grid must hold every x/eps (`domain.trace_grid`);
    `fast` is `fast_coordinates(grid, eps)`, computed here when not given.
    """
    grid = bundle.u.grid
    d = grid.dim
    trace = _tracer(correctors, grid, eps, fast)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            out += trace(correctors.chi[(k, l)]) * bundle.d2[(k, l)].flat
        out += trace(correctors.eta[k]) * bundle.d1[(k,)].flat
    out += trace(correctors.nu) * bundle.u.flat
    return GridFunction(grid, out.reshape(grid.shape))


def solve_psi1(eff: EffectiveLinear, bundle: DerivativeBundle,
               grid: DomainGrid, op: DiscreteOperator) -> GridFunction:
    """First-order slow corrector: L_bar psi_1 = -(a_klm d3 u + b_kl d2 u
    + c_k d1 u + d u), psi_1 = 0 on the boundary; `op` is L_bar on `grid`
    (`assemble_effective(eff, grid)`)."""
    d = grid.dim
    if bundle.order < 3:
        raise InputError("psi_1 needs third derivatives of u")
    if eff.a_bar_klm is None:
        raise InputError("psi_1 needs the third-order constants of "
                         "effective_linear, not first_order_effective")
    rhs = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            for m in range(d):
                rhs += eff.a_bar_klm[k, l, m] * bundle.d3[(k, l, m)].flat
            rhs += eff.b_bar_kl[k, l] * bundle.d2[(k, l)].flat
        rhs += eff.c_bar_k[k] * bundle.d1[(k,)].flat
    rhs += eff.d_bar * bundle.u.flat
    return dirichlet_solve(op, -grid.restrict(rhs.reshape(grid.shape)))


def third_corrector(correctors: CorrectorSet, bundle: DerivativeBundle,
                    psi1_bundle: DerivativeBundle, eps: float,
                    fast=None) -> GridFunction:
    """Trace x -> w_3(x, x/eps), including the psi_1 block (see `second_corrector`)."""
    grid = bundle.u.grid
    d = grid.dim
    if bundle.order < 3:
        raise InputError("w_3 needs third derivatives of u")
    trace = _tracer(correctors, grid, eps, fast)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            for m in range(d):
                out += trace(correctors.chi3[(k, l, m)]) * bundle.d3[(k, l, m)].flat
            out += trace(correctors.eta2[(k, l)]) * bundle.d2[(k, l)].flat
            out += trace(correctors.chi[(k, l)]) * psi1_bundle.d2[(k, l)].flat
        out += trace(correctors.nu1[k]) * bundle.d1[(k,)].flat
        out += trace(correctors.eta[k]) * psi1_bundle.d1[(k,)].flat
    out += trace(correctors.xi) * bundle.u.flat
    out += trace(correctors.nu) * psi1_bundle.u.flat
    return GridFunction(grid, out.reshape(grid.shape))


@dataclass
class ExpansionResult:
    """Full corrector v^eps and its ingredients."""

    psi1: GridFunction
    w2_trace: GridFunction
    w3_trace: GridFunction
    v_eps: GridFunction
    sup_norm_v: float


def full_corrector(psi1: GridFunction, w2_trace: GridFunction,
                   w3_trace: GridFunction, eps: float) -> ExpansionResult:
    """v^eps = eps psi_1 + eps^2 w_2 + eps^3 w_3, and 0 on the boundary.

    The boundary correctors z_k (L^eps z_k = 0 with data -w_k(x, x/eps))
    vanish: the torus correctors are anchored at y = 0, where every boundary
    node sits at eps = 1/m, so every trace reads exactly 0 there.
    """
    v = eps * psi1.values + eps ** 2 * w2_trace.values
    v = v + eps ** 3 * w3_trace.values
    v.flat[psi1.grid.boundary_index()] = 0.0
    return ExpansionResult(psi1, w2_trace, w3_trace, GridFunction(psi1.grid, v),
                           float(np.max(np.abs(v))))


def slow_corrector(eff: EffectiveLinear, correctors: CorrectorSet,
                   u_pair: ToeplitzPair, op: DiscreteOperator):
    """The eps-independent part of the 1D linear expansion around the
    effective eigenpair, whose exact derivatives of u to order 3 feed psi_1.

    `op` is L_bar on u's grid (`domain.assemble_effective`). Returns (bundle
    of u, psi_1, bundle of psi_1 to order 2 by 4th-order differences,
    correctors), the `slow` argument of `linear_expansion`, which rows share
    and only read.
    """
    u = u_pair.phi
    du = u_pair.derivatives(1, 2, 3)
    bundle = DerivativeBundle(u, *({(0,) * m: du[m - 1]} for m in (1, 2, 3)), 3)
    psi1 = solve_psi1(eff, bundle, u.grid, op)
    return bundle, psi1, derivative_bundle(psi1, 2), correctors


def linear_expansion(u_pair: EigenPair, slow, eps: float, op: DiscreteOperator,
                     fast=None):
    """`full_corrector` v^eps around the effective eigenpair at one eps.

    `slow` is `slow_corrector(eff, correctors, u_pair.phi, L_bar)` and `op`
    is L^eps on the grid of u; `fast` is `fast_coordinates(grid, eps)`,
    computed here when not given. Returns the ExpansionResult and the
    residual L^eps(u + v^eps) + lambda_bar u at the interior nodes, where
    u + v^eps is 0 on the boundary; neither needs the eigenpair of L^eps,
    and nothing is solved.
    """
    bundle, psi1, psi1_bundle, cells = slow
    grid = psi1.grid
    fast = fast_coordinates(grid, eps) if fast is None else fast
    w2 = second_corrector(cells, bundle, eps, fast=fast)
    w3 = third_corrector(cells, bundle, psi1_bundle, eps, fast=fast)
    exp = full_corrector(psi1, w2, w3, eps)
    u = grid.restrict(u_pair.phi.values)
    return exp, op @ (u + grid.restrict(exp.v_eps.values)) + u_pair.lam * u


def core_residual(grid: DomainGrid, res):
    """Max |res| over the interior nodes with x_1 in the closed window
    [0.1, 0.9], away from the boundary layers of an expansion residual."""
    x = grid.interior_points()[:, 0]
    return float(np.max(np.abs(res)[(x >= 0.1) & (x <= 0.9)]))


def pivot_problem(op: DiscreteOperator, u: GridFunction,
                  lambda_bar: float) -> GridFunction:
    """Solve the auxiliary problem L^eps w^eps = -lambda_bar * u, w^eps = 0 on
    the boundary, with `op` = L^eps on the grid of u; w^eps is the pivot
    between u^eps and u."""
    return dirichlet_solve(op, -lambda_bar * op.grid.restrict(u.values))


def align_eigenfunctions(w_eps: GridFunction, u_eps: EigenPair):
    """Alignment factor t_eps and the orthogonal residual z^eps.

    t_eps = (w^eps, u^eps) / ||u^eps||_{L^2}^2 - 1 and
    z^eps = (1 + t_eps) u^eps - w^eps, so (z^eps, u^eps)_h = 0 exactly.
    Inner products use trapezoidal weights.
    """
    grid = w_eps.grid
    wts = grid.inner_weights()
    uu = float(np.sum(wts * u_eps.phi.values ** 2))
    if uu <= 0:
        raise InputError("eigenfunction is identically zero")
    wu = float(np.sum(wts * w_eps.values * u_eps.phi.values))
    t_eps = wu / uu - 1.0
    z = GridFunction(grid, (1.0 + t_eps) * u_eps.phi.values - w_eps.values)
    return t_eps, z


@dataclass(frozen=True)
class PreparedExpansion:
    """The eps-independent part of the 1D Bellman expansion, built once by
    `prepare_expansion` and only read afterwards."""

    abs_hessian: np.ndarray      # |u''| per domain node
    chi: GridFunction            # chi of the M = -1 cell, on the trace grid
    w2F_residual: float


def prepare_expansion(u_pair: ToeplitzPair, cell: ErgodicSolution,
                      trace_cell: ErgodicSolution) -> PreparedExpansion:
    """Everything in the 1D Bellman expansion around u_pair, the effective
    eigenpair of m_minus D^2, that does not depend on eps: u'' < 0, so by
    1-homogeneity w_2(x, y) = |u''(x)| chi_-(y), chi_- from the M = -1 cell
    (`torus.solve_concave_cell`) on the rows' `trace_grid` (`trace_cell`);
    `cell`, on n_torus, gives w2F_residual = max ||u''| gamma + lambda_bar u|.

    There is no first-order term: the data Psi_1 of w_1 averages
    2 a_pol d_x d_y w_2 against the invariant measure mu ~ 1/a_pol of the
    frozen cell operator a_pol D^2. In 1D a_pol mu is constant and d_y
    integrates to zero over the torus, so Psi_1 = 0, and the linear
    Dirichlet problem for w_1 has zero data: w_1 = 0.
    """
    u = u_pair.phi
    grid = u.grid
    if grid.dim != 1:
        raise InputError("the nonlinear expansion is implemented in 1D only")
    abs_hessian = np.abs(u_pair.derivatives(2)[0].flat)
    interior = grid.interior_index()
    w2F_residual = float(np.max(np.abs(
        abs_hessian[interior] * cell.gamma + u_pair.lam * u.flat[interior])))
    return PreparedExpansion(abs_hessian, trace_cell.chi, w2F_residual)


def nonlinear_expansion(u_pair: EigenPair, eps: float,
                        prepared: PreparedExpansion, ops, fast=None):
    """Second-order expansion of the convex Bellman eigenproblem (1D).

    Returns (w^eps = u + eps^2 w_2-trace, report), with the residual of the
    Bellman operator at w^eps against -lambda_bar u; w_1 = 0
    (`prepare_expansion`). w^eps is 0 on the boundary, where u is and
    chi_- reads its anchor y = 0.

    Only the w_2 trace x -> |u''(x)| chi_-(x/eps), w^eps and the Bellman
    operator applied to it depend on eps; the rest is `prepared`, built by
    `prepare_expansion` from the same u_pair. `ops` are the frozen
    operators `bellman_operators(spec, eps, grid)`, and `fast` is
    `fast_coordinates(grid, eps)`, computed here when not given.
    """
    u = u_pair.phi
    grid = u.grid
    rows, at = fast_coordinates(grid, eps) if fast is None else fast
    chi = prepared.chi
    w2 = (prepared.abs_hessian * chi.flat[torus_nodes(rows, chi.grid)][at]
          ).reshape(grid.shape)
    w_eps = GridFunction(grid, u.values + eps ** 2 * w2)

    # the Bellman operator at the interior nodes: the nodewise max of ops
    interior = grid.interior_index()
    bell = np.max([op @ w_eps.flat[interior] for op in ops], axis=0)
    res = bell + u_pair.lam * u.flat[interior]
    report = {
        "w2F_residual": prepared.w2F_residual,
        "expansion_residual_sup": float(np.max(np.abs(res))),
        "expansion_residual_interior": core_residual(grid, res),
        "w2_trace": GridFunction(grid, w2),
    }
    return w_eps, report
