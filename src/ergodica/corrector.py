"""Two-scale expansion machinery: interior correctors, boundary correctors,
the linear expansion, the pivot problem, eigenfunction alignment, and the
nonlinear expansion.

Torus profiles are evaluated along the diagonal y = x/eps by periodic cubic
interpolation, once per distinct fast coordinate: at eps = 1/m y takes
n / gcd(m, n) values on n cells per axis, found in integers, and the values
are scattered back to the nodes. x-derivatives use 4th-order stencils.

Both expansions split into an eps-independent part, built once per sweep and
only read by the rows, and a per-eps evaluation: `slow_corrector` (derivatives
of u and psi_1, corrector interpolants) and `linear_expansion` for linear
problems; `prepare_expansion` (invariant measures, linearized coefficients and
the slow corrector, from the two sign cells of `effective.effective_bellman_1d`)
and `nonlinear_expansion` for Bellman problems.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .coeff import BellmanSpec, LinearOperatorSpec
from .domain import (
    DiscreteOperator,
    DomainGrid,
    apply_bellman,
    assemble_linear,
    assemble_oscillatory,
    dirichlet_solve,
)
from .effective import CorrectorSet, EffectiveLinear
from .eigen import EigenPair
from .errors import InputError
from .stencils import TorusInterpolant, bounded_diff_matrix, periodic_diff_matrix
from .torus import (
    FactoredOperator,
    GridFunction,
    assemble_torus_diffusion,
    factor_cell,
    select_rows,
)


@dataclass
class DerivativeBundle:
    """A domain function with its derivatives up to a requested order."""

    u: GridFunction
    d1: Dict[tuple, GridFunction]
    d2: Dict[tuple, GridFunction]
    d3: Dict[tuple, GridFunction]
    order: int
    mats: list  # the first-derivative matrix of each axis


def _axis_apply(D, values, axis):
    return D @ values if axis == 0 else (D @ values.T).T


def derivative_bundle(u: GridFunction, order: int, mats=None) -> DerivativeBundle:
    """Differentiate a domain grid function with 4th-order stencils.

    Centered in the interior, one-sided near the boundary. Mixed partials
    are compositions of the per-axis operators, so their symmetry is exact.
    `mats` is the `mats` of a bundle on the same grid, built when not given.
    """
    if order > 3:
        raise InputError("order must be <= 3")
    grid = u.grid
    d = grid.dim
    mats = mats or [bounded_diff_matrix(n, h, m=1) for n, h in zip(grid.shape, grid.h)]
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
    return DerivativeBundle(u, wrap(d1), wrap(d2), wrap(d3), order, mats)


def fast_coordinates(grid: DomainGrid, eps: float):
    """Distinct rows of y = x/eps mod 1 over the grid nodes, axis 0 outer, and
    the index that scatters values at those rows to the nodes.

    With eps = 1/m, node i of an axis with integer ends, length L and n cells
    has y = (i L m mod n) / n: the values are g j / n, g = gcd(L m, n), node
    i takes the ((i L m mod n) / g)-th, and no floats are sorted.
    """
    m = round(1 / eps)
    if abs(m * eps - 1) > 1e-12 or np.any(np.mod(grid.bounds, 1)):
        raise InputError(f"fast coordinates need eps = 1/m and integer grid "
                         f"bounds; got eps={eps!r}, bounds {grid.bounds}")
    keys, inverse = [], 0
    for (lo, hi), n in zip(grid.bounds, grid.n):
        step = round(hi - lo) * m
        g = np.gcd(step, n)
        keys.append(np.arange(0, n, g) / n)
        inverse = np.add.outer(inverse * (n // g), np.arange(n + 1) * step % n // g)
    rows = np.stack(np.meshgrid(*keys, indexing="ij"), axis=-1)
    return rows.reshape(-1, grid.dim), inverse.ravel()


def _interp(sol, fast):
    """`sol`, an ErgodicSolution or its TorusInterpolant, at every node."""
    f = sol if isinstance(sol, TorusInterpolant) else TorusInterpolant(sol.chi.values)
    return f(fast[0])[fast[1]]


def second_corrector(correctors: CorrectorSet, bundle: DerivativeBundle,
                     eps: float, fast=None) -> GridFunction:
    """Trace x -> w_2(x, x/eps) of the second-order interior corrector.

    w_2(x, y) = chi^{kl}(y) d2_kl u(x) + eta^k(y) d1_k u(x) + nu(y) u(x).
    `correctors` may hold TorusInterpolants (`_interpolants`); `fast` is
    `fast_coordinates(grid, eps)`, computed here when not given.
    """
    grid = bundle.u.grid
    d = grid.dim
    fast = fast_coordinates(grid, eps) if fast is None else fast
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            out += _interp(correctors.chi[(k, l)], fast) * bundle.d2[(k, l)].flat
        out += _interp(correctors.eta[k], fast) * bundle.d1[(k,)].flat
    out += _interp(correctors.nu, fast) * bundle.u.flat
    return GridFunction(grid, out.reshape(grid.shape))


def solve_psi1(eff: EffectiveLinear, bundle: DerivativeBundle,
               grid: DomainGrid, op: DiscreteOperator) -> GridFunction:
    """First-order slow corrector: L_bar psi_1 = -(a_klm d3 u + b_kl d2 u
    + c_k d1 u + d u), psi_1 = 0 on the boundary; `op` is L_bar on `grid`
    (`assemble_effective(eff, grid)`)."""
    d = grid.dim
    if bundle.order < 3:
        raise InputError("psi_1 needs third derivatives of u")
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
    fast = fast_coordinates(grid, eps) if fast is None else fast
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            for m in range(d):
                out += _interp(correctors.chi3[(k, l, m)], fast) * \
                    bundle.d3[(k, l, m)].flat
            out += _interp(correctors.eta2[(k, l)], fast) * bundle.d2[(k, l)].flat
            out += _interp(correctors.chi[(k, l)], fast) * psi1_bundle.d2[(k, l)].flat
        out += _interp(correctors.nu1[k], fast) * bundle.d1[(k,)].flat
        out += _interp(correctors.eta[k], fast) * psi1_bundle.d1[(k,)].flat
    out += _interp(correctors.xi, fast) * bundle.u.flat
    out += _interp(correctors.nu, fast) * psi1_bundle.u.flat
    return GridFunction(grid, out.reshape(grid.shape))


def boundary_correctors(spec: LinearOperatorSpec, eps: float, grid: DomainGrid,
                        w2_trace: GridFunction, w3_trace: GridFunction,
                        op: Optional[DiscreteOperator] = None,
                        lu: Optional[FactoredOperator] = None):
    """Solve L^eps z_k = 0 with boundary data -w_k(x, x/eps); returns (z2, z3).

    `lu` is `op.factor()` to reuse; without it one is made here and shared
    by both solves.
    """
    op = op or assemble_oscillatory(spec, eps, grid)
    lu = lu or op.factor()
    bidx = grid.boundary_index()
    zero = np.zeros(len(grid.interior_index()))
    z2 = dirichlet_solve(op, zero, boundary_values=-w2_trace.flat[bidx], lu=lu)
    z3 = dirichlet_solve(op, zero, boundary_values=-w3_trace.flat[bidx], lu=lu)
    return z2, z3


@dataclass
class ExpansionResult:
    """Full corrector v^eps and its ingredients."""

    psi1: GridFunction
    w2_trace: GridFunction
    z2: GridFunction
    w3_trace: GridFunction
    z3: GridFunction
    v_eps: GridFunction
    sup_norm_v: float


def full_corrector(psi1: GridFunction, w2_trace: GridFunction, z2: GridFunction,
                   w3_trace: GridFunction, z3: GridFunction,
                   eps: float) -> ExpansionResult:
    """v^eps = eps psi_1 + eps^2 (w_2 + z_2) + eps^3 (w_3 + z_3)."""
    v = eps * psi1.values + eps ** 2 * (w2_trace.values + z2.values)
    v = v + eps ** 3 * (w3_trace.values + z3.values)
    return ExpansionResult(psi1, w2_trace, z2, w3_trace, z3,
                           GridFunction(psi1.grid, v), float(np.max(np.abs(v))))


def _interpolants(c: CorrectorSet) -> CorrectorSet:
    """`c` with each profile replaced by its TorusInterpolant."""
    f = lambda sol: TorusInterpolant(sol.chi.values)
    table = lambda sols: {k: f(sol) for k, sol in sols.items()}
    return CorrectorSet(c.grid, table(c.chi), [f(s) for s in c.eta], f(c.nu),
                        table(c.chi3), table(c.eta2), [f(s) for s in c.nu1], f(c.xi))


def slow_corrector(eff: EffectiveLinear, correctors: CorrectorSet,
                   u: GridFunction, op: DiscreteOperator):
    """The eps-independent part of the linear expansion around u.

    `op` is L_bar on u's grid, the operator whose eigenfunction u is; the
    caller assembles it once for both solves. Returns (bundle of u to order
    3, psi_1, bundle of psi_1 to order 2, `_interpolants(correctors)`), the
    `slow` argument of `linear_expansion`, which rows share and only read.
    """
    bundle = derivative_bundle(u, 3)
    psi1 = solve_psi1(eff, bundle, u.grid, op)
    return (bundle, psi1, derivative_bundle(psi1, 2, bundle.mats),
            _interpolants(correctors))


def linear_expansion(spec: LinearOperatorSpec, u_pair: EigenPair, slow,
                     eps: float, op: DiscreteOperator,
                     lu: Optional[FactoredOperator] = None):
    """Full corrector v^eps around the effective eigenpair at one eps.

    `slow` is `slow_corrector(eff, correctors, u_pair.phi, L_bar)`, `op` is
    L^eps on the grid of u and `lu` its `op.factor()` to reuse. Returns the
    ExpansionResult and the residual L^eps(u + v^eps) + lambda_bar u at the
    interior nodes; neither needs the eigenpair of L^eps.
    """
    bundle, psi1, psi1_bundle, cells = slow
    grid = psi1.grid
    fast = fast_coordinates(grid, eps)
    w2 = second_corrector(cells, bundle, eps, fast=fast)
    w3 = third_corrector(cells, bundle, psi1_bundle, eps, fast=fast)
    z2, z3 = boundary_correctors(spec, eps, grid, w2, w3, op=op, lu=lu)
    exp = full_corrector(psi1, w2, z2, w3, z3, eps)
    u = u_pair.phi
    corrected = GridFunction(grid, u.values + exp.v_eps.values)
    return exp, op.apply(corrected) + u_pair.lam * grid.restrict(u.values)


def core_residual(grid: DomainGrid, res):
    """Max |res| over the interior nodes with x_1 in the closed window
    [0.1, 0.9], away from the boundary layers of an expansion residual."""
    x = grid.interior_points()[:, 0]
    return float(np.max(np.abs(res)[(x >= 0.1) & (x <= 0.9)]))


def pivot_problem(spec: LinearOperatorSpec, eps: float, grid: DomainGrid,
                  u: GridFunction, lambda_bar: float,
                  op: Optional[DiscreteOperator] = None,
                  lu: Optional[FactoredOperator] = None) -> GridFunction:
    """Solve the auxiliary problem L^eps w^eps = -lambda_bar * u, w^eps = 0 on
    the boundary; w^eps is the pivot between u^eps and u. `lu` is a
    factorization of op (`op.factor()`) to reuse."""
    op = op or assemble_oscillatory(spec, eps, grid)
    rhs = -lambda_bar * grid.restrict(u.values)
    return dirichlet_solve(op, rhs, lu=lu)


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
    """The eps-independent part of the Bellman expansion.

    Built once by `prepare_expansion` and only read afterwards, so threaded
    sweep rows may share it.
    """

    abs_hessian: np.ndarray      # |u''| per domain node
    sign_index: np.ndarray       # per node, the position of sign(u'') in cells
    cells: tuple                 # TorusInterpolant of chi per Hessian sign
    w2F_residual: float
    Psi1: np.ndarray
    psi: GridFunction


def prepare_expansion(spec: BellmanSpec, u_pair: EigenPair, grid: DomainGrid,
                      lambda_bar: float, cells) -> PreparedExpansion:
    """Everything in the 1D Bellman expansion that does not depend on eps.

    `cells` are the sign cells of `effective_bellman_1d(spec, torus_grid)`:
    w_2(x, y) = |u''(x)| w(y; sign u''(x)) by positive 1-homogeneity.
    From them come the invariant-measure weights, the consistency residual
    w2F_residual, the ergodic constant Psi_1, the linearized coefficients
    and the slow corrector w_1 = psi.

    Psi_1(x) is the ergodic constant of the frozen-policy cell problem with
    data 2 a(y) d_x d_y w_2(x, y). An ergodic constant is the average of the
    data against the invariant measure of the cell operator, so one
    transposed solve per Hessian sign (the factored augmented cell matrix
    against the last unit vector) replaces a cell solve per domain node.
    """
    if grid.dim != 1:
        raise InputError("the nonlinear expansion is implemented in 1D only")
    u = u_pair.phi
    bundle = derivative_bundle(u, order=2)
    M = bundle.d2[(0, 0)].flat
    npts = len(M)

    sgn = np.where(M < 0, -1, 1)
    sgn[np.abs(M) < 1e-12] = -1  # degenerate Hessian: follow the interior sign
    signs = np.unique(sgn)
    sign_index = np.searchsorted(signs, sgn)
    torus_grid = cells[1][0].chi.grid
    N = torus_grid.npoints
    avals_ctl = np.stack([ctl.field.sample(torus_grid.points())[0]
                          for ctl in spec.controls])
    ops_ctl = [assemble_torus_diffusion(ctl.field, torus_grid)
               for ctl in spec.controls]
    e_last = np.zeros(N + 1)
    e_last[N] = 1.0
    cell, weight = {}, {}
    for s in signs:
        cell[s], pol = cells[s]
        # g = -mu, the invariant measure of the frozen-policy cell operator:
        # the cell problem with data f has ergodic constant -g . f
        g = factor_cell(select_rows(ops_ctl, pol)).solve(e_last, trans="T")[:N]
        weight[s] = 2.0 * avals_ctl[pol, np.arange(N), 0, 0] * g

    # consistency of the frozen cell problems with the effective eigenproblem
    gamma_x = np.array([cell[s].gamma for s in signs])[sign_index]
    c_of_x = np.abs(M) * gamma_x
    interior = grid.interior_index()
    w2F_residual = float(np.max(np.abs(
        c_of_x[interior] + lambda_bar * u.flat[interior])))

    # Psi_1(x) = -g . (2 a_pol d_x d_y w_2(x, .)), g and a_pol of the sign
    # of M(x); moving Dy onto the weight gives
    # Psi_1 = -Dx(|M| (chi_sgn . Dy^T(2 a_pol g))). In 1D this is zero in
    # exact arithmetic: A^T mu = 0 for A = diag(a) D^2 makes a_pol * g
    # constant, and the circulant Dy has zero column sums.
    Dy = periodic_diff_matrix(torus_grid.n, torus_grid.h, m=1)
    psi1_rhs = np.zeros(npts)
    for s in signs:
        h = Dy.T @ weight[s]
        q = np.zeros(npts)
        for t in signs:
            q[sgn == t] = cell[t].chi.flat @ h
        rows = sgn == s
        psi1_rhs[rows] = -(bundle.mats[0] @ (np.abs(M) * q))[rows]

    # linearized effective diffusion, 0-homogeneous in the Hessian direction:
    # F_bar(M) = |M| F_bar(sign M) has derivative s * gamma_s in sign s
    abar_x = sgn * gamma_x
    op_lin = assemble_linear(
        grid, abar_x[:, None, None], np.zeros((npts, 1)), np.zeros(npts))
    psi = dirichlet_solve(op_lin, -psi1_rhs[interior])

    return PreparedExpansion(
        abs_hessian=np.abs(M),
        sign_index=sign_index,
        cells=tuple(TorusInterpolant(cell[s].chi.values) for s in signs),
        w2F_residual=w2F_residual, Psi1=psi1_rhs, psi=psi,
    )


def nonlinear_expansion(spec: BellmanSpec, u_pair: EigenPair, eps: float,
                        grid: DomainGrid, lambda_bar: float,
                        prepared: PreparedExpansion, ops):
    """Second-order expansion of the convex Bellman eigenproblem (1D).

    Returns (w^eps = u + eps w_1 + eps^2 w_2-trace, report), with the
    residual of the Bellman operator at w^eps against -lambda_bar u.

    Only the w_2 trace x -> |u''(x)| chi_sign(x/eps), w^eps and the Bellman
    operator applied to it depend on eps; the rest is `prepared`, built by
    `prepare_expansion` from the same spec, u_pair, grid and lambda_bar.
    `ops` are the frozen operators `bellman_operators(spec, eps, grid)`.
    """
    u = u_pair.phi

    # w_2 by homogeneity: w(y; M) = |M| w(y; sign M)
    rows, inverse = fast_coordinates(grid, eps)
    traces = np.stack([chi(rows) for chi in prepared.cells])
    w2_trace = prepared.abs_hessian * traces[prepared.sign_index, inverse]

    w_eps_vals = u.values + eps * prepared.psi.values + \
        eps ** 2 * w2_trace.reshape(grid.shape)
    w_eps = GridFunction(grid, w_eps_vals)

    bell = apply_bellman(spec, eps, grid, w_eps, ops=ops)
    interior = grid.interior_index()
    res = bell.flat[interior] + lambda_bar * u.flat[interior]
    report = {
        "w2F_residual": prepared.w2F_residual,
        "expansion_residual_sup": float(np.max(np.abs(res))),
        "expansion_residual_interior": core_residual(grid, res),
        "psi1": prepared.psi,
        "w2_trace": GridFunction(grid, w2_trace.reshape(grid.shape)),
        "Psi1": prepared.Psi1,
    }
    return w_eps, report
