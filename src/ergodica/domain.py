"""Dirichlet discretization of oscillatory, effective and Bellman operators
on an interval or rectangle, as monotone sparse operators.

Grid functions live on the full node set (boundary included); operators act
on interior unknowns, with the boundary coupling kept as a separate block so
inhomogeneous Dirichlet data can be moved to the right-hand side. The
weights come from `stencils.stencil_weights`, which the torus cell matrices
use too. A 1D operator keeps its three bands, aligned by row, and writes its
CSR blocks straight from them; the shifted matrix B = s*I - L_h, its
M-matrix test, its tridiagonal factorization and the frozen-policy
operators of `eigen` then work on the bands, without sparse round trips.
2D operators are CSR alone.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

from .coeff import BellmanSpec, LinearOperatorSpec
from .effective import EffectiveLinear
from .errors import InputError
from .stencils import monotone_stencil, stencil_weights
from .torus import FactoredOperator, GridFunction


@dataclass(frozen=True)
class DomainGrid:
    """Tensor grid on a product of intervals, with homogeneous-Dirichlet layout.

    `n` counts cells per axis, so each axis carries n+1 nodes of which the
    two end nodes are boundary.
    """

    dim: int
    bounds: tuple
    n: tuple

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InputError("dim must be 1 or 2")
        if len(self.bounds) != self.dim or len(self.n) != self.dim:
            raise InputError("bounds/n must have one entry per axis")
        for (lo, hi), nk in zip(self.bounds, self.n):
            if hi <= lo:
                raise InputError("empty axis interval")
            if nk < 4:
                raise InputError("need at least 4 cells per axis")

    @classmethod
    def unit(cls, dim, n):
        n = (n,) * dim if np.isscalar(n) else tuple(n)
        return cls(dim, tuple((0.0, 1.0) for _ in range(dim)), n)

    @property
    def h(self):
        return tuple((hi - lo) / nk for (lo, hi), nk in zip(self.bounds, self.n))

    @property
    def shape(self):
        return tuple(nk + 1 for nk in self.n)

    @property
    def axes(self):
        return tuple(
            np.linspace(lo, hi, nk + 1) for (lo, hi), nk in zip(self.bounds, self.n)
        )

    def points(self):
        """All node coordinates, (N_full, dim), row-major."""
        if self.dim == 1:
            return self.axes[0][:, None]
        g1, g2 = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=1)

    def interior_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            mask[1:-1] = True
        else:
            mask[1:-1, 1:-1] = True
        return mask

    def interior_index(self):
        """Flat indices of the interior nodes (cached, read-only)."""
        return self._split[0]

    def boundary_index(self):
        """Flat indices of the boundary nodes (cached, read-only)."""
        return self._split[1]

    @cached_property
    def _split(self):
        mask = self.interior_mask().ravel()
        split = np.flatnonzero(mask), np.flatnonzero(~mask)
        for index in split:
            index.flags.writeable = False
        return split

    def interior_points(self):
        return self.points()[self.interior_index()]

    def restrict(self, values):
        """Full-node array -> flat interior vector."""
        return np.asarray(values).ravel()[self.interior_index()]

    def embed(self, interior, boundary=None):
        """Flat interior vector -> full-node array (boundary defaults to 0)."""
        full = np.zeros(np.prod(self.shape))
        full[self.interior_index()] = interior
        if boundary is not None:
            full[self.boundary_index()] = boundary
        return full.reshape(self.shape)

    def inner_weights(self):
        """Trapezoidal quadrature weights on the full node set."""
        ws = []
        for hk, nk in zip(self.h, self.n):
            w = np.full(nk + 1, hk)
            w[0] = w[-1] = hk / 2.0
            ws.append(w)
        if self.dim == 1:
            return ws[0]
        return np.outer(ws[0], ws[1])


@dataclass
class DiscreteOperator:
    """Sparse interior operator L_h with its boundary coupling block.

    Sign convention: (matrix @ phi_interior + boundary @ phi_boundary)
    approximates  a D^2 phi + b . D phi + c phi  at interior nodes.

    `bands` (1D only, else None) are the stencil weights (lower, diag,
    upper) aligned by row: row i of L_h is lower[i] phi_{i-1} + diag[i]
    phi_i + upper[i] phi_{i+1} over the full node set, so lower[0] and
    upper[-1] are the two boundary couplings.
    """

    matrix: sparse.csr_matrix
    boundary: sparse.csr_matrix
    grid: DomainGrid
    c_max: float = 0.0
    bands: Optional[tuple] = None

    @classmethod
    def from_bands(cls, grid: DomainGrid, bands, c_max: float):
        """The 1D operator with these row-aligned bands; its CSR `matrix`
        and two-entry `boundary` are written from them directly. The
        operator keeps its bands as the columns of one (n, 3) array whose
        flat entries, less the first and last, are the matrix's stored
        entries (row order lower, diag, upper): one copy serves both."""
        lower, diag, upper = bands
        n = len(diag)
        rows = np.stack(bands, axis=1)
        index = np.arange(n, dtype=np.int32)
        matrix = sparse.csr_matrix(
            (rows.ravel()[1:-1],
             (index[:, None] + np.array([-1, 0, 1], dtype=np.int32)).ravel()[1:-1],
             np.clip(3 * np.arange(n + 1, dtype=np.int32) - 1, 0, 3 * n - 2)),
            shape=(n, n))
        indptr = np.ones(n + 1, dtype=np.int32)
        indptr[0], indptr[-1] = 0, 2
        boundary = sparse.csr_matrix(
            (np.array([lower[0], upper[-1]]), np.array([0, 1], dtype=np.int32),
             indptr), shape=(n, 2))
        return cls(matrix, boundary, grid, c_max, tuple(rows.T))

    def factor(self) -> FactoredOperator:
        """FactoredOperator of L_h, from its bands when it carries them."""
        return FactoredOperator(self.matrix if self.bands is None else self.bands)

    def apply(self, phi: GridFunction):
        """Operator value at interior nodes, honoring the boundary values of phi."""
        flat = phi.flat
        vals = self.matrix @ flat[self.grid.interior_index()] + \
            self.boundary @ flat[self.grid.boundary_index()]
        return vals


def assemble_linear(grid: DomainGrid, avals, bvals, cvals) -> DiscreteOperator:
    """Monotone assembly (`stencils.stencil_weights`) from nodal coefficient
    samples on the full node set: interior rows, with the boundary columns
    split off. In 1D the weights are the operator's bands; in 2D the rows of
    `stencils.monotone_stencil` are sliced into the two blocks."""
    d = grid.dim
    N_full = int(np.prod(grid.shape))
    interior = grid.interior_index()
    avals = np.asarray(avals, dtype=float).reshape(N_full, d, d)[interior]
    bvals = np.asarray(bvals, dtype=float).reshape(N_full, d)[interior]
    cvals = np.asarray(cvals, dtype=float).reshape(N_full)[interior]
    c_max = float(cvals.max())
    if d == 1:
        neighbours, diag = stencil_weights(avals, bvals, cvals, grid.h,
                                           grid.shape, interior, wrap=False)
        return DiscreteOperator.from_bands(
            grid, (neighbours[(-1,)], diag, neighbours[(1,)]), c_max)
    rows = monotone_stencil(avals, bvals, cvals, grid.h, grid.shape, interior,
                            wrap=False)
    return DiscreteOperator(
        matrix=rows[:, interior].tocsr(),
        boundary=rows[:, grid.boundary_index()].tocsr(),
        grid=grid,
        c_max=c_max,
    )


def oscillatory_samples(spec: LinearOperatorSpec, eps: float, grid: DomainGrid):
    """Samples (a, b, c) of a(x/eps), b(x/eps), c(x/eps) on the full node set."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if spec.dim != grid.dim:
        raise InputError("operator and grid dimensions differ")
    return spec.field.sample((grid.points() / eps) % 1.0)


def assemble_oscillatory(spec: LinearOperatorSpec, eps: float,
                         grid: DomainGrid) -> DiscreteOperator:
    """Discretize a(x/eps) D^2 + b(x/eps) . D + c(x/eps) with Dirichlet data."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if spec.dim != grid.dim:
        raise InputError("operator and grid dimensions differ")
    # y lives until assembled: freeing it first slowed bellman-1d (ROADMAP 7)
    y = (grid.points() / eps) % 1.0
    avals, bvals, cvals = spec.field.sample(y)
    return assemble_linear(grid, avals, bvals, cvals)


def effective_samples(eff: EffectiveLinear, grid: DomainGrid):
    """The effective constants (a_bar, b_bar, c_bar) broadcast to every node."""
    if eff.dim != grid.dim:
        raise InputError("effective operator and grid dimensions differ")
    N = int(np.prod(grid.shape))
    return (np.broadcast_to(eff.a_bar, (N, eff.dim, eff.dim)),
            np.broadcast_to(eff.b_bar, (N, eff.dim)), np.full(N, eff.c_bar))


def assemble_effective(eff: EffectiveLinear, grid: DomainGrid) -> DiscreteOperator:
    """Constant-coefficient effective operator on the same layout."""
    return assemble_linear(grid, *effective_samples(eff, grid))


def bellman_operators(spec: BellmanSpec, eps: float, grid: DomainGrid):
    """Frozen linear operator of each control, assembled once."""
    return [assemble_oscillatory(ctl, eps, grid) for ctl in spec.controls]


def apply_bellman(spec: BellmanSpec, eps: float, grid: DomainGrid,
                  phi: GridFunction, ops=None) -> GridFunction:
    """Nodewise max over controls of the frozen operators applied to phi."""
    if ops is None:
        ops = bellman_operators(spec, eps, grid)
    vals = np.max([op.apply(phi) for op in ops], axis=0)
    return GridFunction(grid, grid.embed(vals))


def shifted_m_matrix(op: DiscreteOperator, shift: float, tol=1e-9):
    """(B, ok, info): B = shift*I - L_h and whether it is an M-matrix
    candidate (diagonal > 0, off-diagonal <= tol, row excess
    B_ii - sum_{j != i} |B_ij| > -tol), read from B's arrays without
    building another sparse matrix. info carries the worst off-diagonal
    entry of B with its (row, col), the minimal diagonal and the minimal
    row excess. The eigensolver runs this test on the matrix it factors.

    With bands, B is the band triple (-lower, shift - diag, -upper), which
    FactoredOperator takes as it is; its first and last entries, outside B,
    are left out of the test. Otherwise B is built from L_h's CSR arrays,
    entry for entry `sparse.identity(n) * shift - op.matrix`.
    """
    if op.bands is not None:
        lower, diag, upper = op.bands
        B = (-lower, shift - diag, -upper)
        # B's off-diagonal entries in CSR order: (i, i-1), then (i, i+1)
        off = np.stack([B[0], B[2]], axis=1)
        off[0, 0] = off[-1, 1] = 0.0
        size = np.abs(off)
        excess = B[1] - (size[:, 0] + size[:, 1])
        off = off.ravel()
        k = int(np.argmax(np.where(off != 0.0, off, -np.inf))) \
            if off.any() else None
        at = None if k is None else (k // 2, k // 2 - 1 + 2 * (k % 2))
        return B, *_m_matrix_verdict(B[1], off, k, at, excess, tol)
    B = -op.matrix.tocsr()
    B.sum_duplicates()
    diag = B.diagonal() + shift
    B.setdiag(diag)
    B.eliminate_zeros()
    rows = np.repeat(np.arange(len(diag)), np.diff(B.indptr))
    off = B.indices != rows
    k = int(np.argmax(np.where(off, B.data, -np.inf))) if off.any() else None
    at = None if k is None else (int(rows[k]), int(B.indices[k]))
    w = np.where(off, B.data, 0.0)
    excess = diag - np.bincount(rows, np.abs(w, out=w), len(diag))
    return B, *_m_matrix_verdict(diag, B.data, k, at, excess, tol)


def _m_matrix_verdict(diag, entries, k, at, excess, tol):
    """(ok, info) of `shifted_m_matrix`: k indexes the largest off-diagonal
    entry of B in `entries` (None when there is none), at its (row, col)."""
    worst_off = 0.0 if k is None else float(entries[k])
    ok = bool(diag.min() > 0 and worst_off <= tol and excess.min() > -tol)
    return ok, {
        "worst_offdiag": worst_off,
        "worst_offdiag_at": at,
        "min_diag": float(diag.min()),
        "min_row_excess": float(excess.min()),
    }


def properness_shift(op: DiscreteOperator) -> float:
    """Shift making shift*I - L_h a nonsingular M-matrix: max(0, max c) + 1."""
    return max(0.0, op.c_max) + 1.0


def dirichlet_solve(op: DiscreteOperator, rhs, boundary_values=None,
                    lu=None) -> GridFunction:
    """Solve  L_h u = rhs  at interior nodes with the given Dirichlet data.

    `rhs` is a flat interior vector or full-node array; boundary data (full
    boundary-node vector) defaults to zero. Pass `lu=op.factor()` to reuse
    one factorization across solves.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape == op.grid.shape:
        rhs = op.grid.restrict(rhs)
    if boundary_values is not None:
        rhs = rhs - op.boundary @ np.asarray(boundary_values, dtype=float)
    sol = (lu or op.factor()).solve(rhs)
    return GridFunction(op.grid, op.grid.embed(sol, boundary_values))
