"""Dirichlet discretization of oscillatory, effective and Bellman operators
on an interval or rectangle, as monotone operators.

Grid functions live on the full node set; every one that an operator acts
on or solves for is 0 on the boundary, so operators take and give interior
values only. An operator is the row-aligned weights of
`stencils.stencil_weights` at the interior nodes (`stencils.Weights`), the
same stored form as the torus cell operators, in 1D and 2D alike: its
products, B = s*I - L_h with its M-matrix verdict, its factor and the
frozen policies of `eigen` all read the weights, and a coupling to a
boundary node multiplies a 0 and is never read. Oscillatory coefficients
and their weights are formed once per distinct fast coordinate
y = x/eps mod 1 (`fast_coordinates`) and gathered to the nodes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff import BellmanSpec, LinearOperatorSpec
from .effective import EffectiveLinear
from .errors import InputError
from .stencils import Weights, stencil_weights
from .torus import FactoredOperator, GridFunction, PeriodicGrid


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

    def embed(self, interior):
        """Flat interior vector -> full-node array, 0 on the boundary."""
        full = np.zeros(np.prod(self.shape))
        full[self.interior_index()] = interior
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


class DiscreteOperator(Weights):
    """Interior operator L_h: the weights of `stencil_weights` at the
    interior nodes, one row per node, on the interior grid of `grid`.

    Sign convention: `op @ v` approximates  a D^2 phi + b . D phi + c phi
    at the interior nodes, for the phi with interior values v and 0 on the
    boundary, each row summed in ascending column (`stencils.Stencil`).
    """

    def __init__(self, neighbours, diag, grid: DomainGrid, c_max: float = 0.0):
        super().__init__(neighbours, diag, [n - 1 for n in grid.n], wrap=False)
        self.grid, self.c_max = grid, c_max


def assemble_linear(grid: DomainGrid, avals, bvals, cvals,
                    at=None) -> DiscreteOperator:
    """Monotone assembly (`stencils.stencil_weights`) of the interior rows
    from coefficient samples at every node, or at the rows that `at` (from
    `fast_coordinates`) gathers to the nodes: the weights are formed per
    sample and gathered to the interior nodes. c_max is the largest c at
    an interior node."""
    d = grid.dim
    interior = grid.interior_index()
    avals = np.asarray(avals, dtype=float).reshape(-1, d, d)
    bvals = np.asarray(bvals, dtype=float).reshape(-1, d)
    cvals = np.asarray(cvals, dtype=float).reshape(-1)
    need = np.prod(grid.shape) if at is None else node_index(at).max() + 1
    if not len(avals) == len(bvals) == len(cvals) == need:
        raise InputError(f"{need} samples needed on a grid of shape {grid.shape}"
                         f"; got {len(avals)} of a, {len(bvals)} of b and "
                         f"{len(cvals)} of c")
    if at is None:  # the interior samples are the rows, in order
        avals, bvals, cvals = (np.take(s, interior, axis=0)
                               for s in (avals, bvals, cvals))
        nodes, rows_of = interior, (lambda s: s)
    else:
        at = node_index(at)[interior]
        nodes = np.zeros(len(cvals), dtype=np.intp)  # named by AssemblyError
        nodes[at] = interior
        rows_of = lambda s: np.take(s, at, axis=0)
    neighbours, diag = stencil_weights(avals, bvals, cvals, grid.h, grid.shape,
                                       nodes, wrap=False)
    return DiscreteOperator({o: rows_of(w) for o, w in neighbours.items()},
                            rows_of(diag), grid, float(rows_of(cvals).max()))


def _axis_steps(grid: DomainGrid, eps: float):
    """(L m, n) per axis (length L, n cells) for eps = 1/m, else InputError."""
    m = round(1 / eps) if 0 < eps <= 1 and 1 / eps < np.inf else 0
    if m < 1 or abs(m * eps - 1) > 1e-12 or np.any(np.mod(grid.bounds, 1)):
        raise InputError(f"fast coordinates need eps = 1/m and integer grid "
                         f"bounds; got eps={eps!r}, bounds {grid.bounds}")
    return [(round(hi - lo) * m, n) for (lo, hi), n in zip(grid.bounds, grid.n)]


def fast_coordinates(grid: DomainGrid, eps: float):
    """Distinct rows of y = x/eps mod 1 over the grid nodes, axis 0 outer, and
    the index `at` that scatters values at those rows to the nodes; in 2D
    the two axis indexes, whose outer sum it is (`node_index`).

    With eps = 1/m, node i of an axis with integer ends, length L and n cells
    has y = (i L m mod n) / n: the values are j / R, R = n / g with
    g = gcd(L m, n), node i takes the ((i L m mod n) / g)-th, and no floats
    are sorted. Any eps other than 1/m is an InputError.
    """
    keys, axes = [], []
    for step, n in _axis_steps(grid, eps):
        g = np.gcd(step, n)
        keys.append(np.arange(0, n, g) / n)
        # i (L m / g) mod (n / g) repeats with period n / g
        period = np.arange(n // g) * (step // g) % (n // g)
        axes.append(np.resize(period, n + 1))
    rows = np.stack(np.meshgrid(*keys, indexing="ij"), axis=-1)
    at = axes[0] if grid.dim == 1 else (axes[0] * len(keys[1]), axes[1])
    return rows.reshape(-1, grid.dim), at


def trace_grid(grid: DomainGrid, eps_list) -> PeriodicGrid:
    """The coarsest torus grid that holds every fast coordinate of `grid` at
    each eps of `eps_list`: N_t = lcm of n / gcd(L m, n) over eps and axes,
    or its smallest multiple of at least 4 points, which still holds them."""
    periods = [n // np.gcd(s, n) for eps in eps_list for s, n in _axis_steps(grid, eps)]
    n_t = int(np.lcm.reduce(periods))
    return PeriodicGrid(grid.dim, n_t * -(-4 // n_t))


def torus_nodes(rows, torus: PeriodicGrid):
    """The flat node of `torus` at each of the `rows` j / R of
    `fast_coordinates`: j N_t / R, whose float / N_t is the float j / R
    exactly when R divides N_t (`trace_grid`); else an InputError."""
    nodes = np.rint(rows * torus.n)
    if not np.array_equal(nodes / torus.n, rows):
        raise InputError(f"{torus.n} torus points do not hold the fast coordinates")
    return np.ravel_multi_index(nodes.astype(np.intp).T, torus.shape)


def node_index(at):
    """The flat node -> row index of an `at` (see `fast_coordinates`)."""
    return np.add.outer(*at).ravel() if isinstance(at, tuple) else np.asarray(at)


def assemble_oscillatory(spec: LinearOperatorSpec, eps: float,
                         grid: DomainGrid, fast=None) -> DiscreteOperator:
    """Discretize a(x/eps) D^2 + b(x/eps) . D + c(x/eps) with Dirichlet data,
    from one sample per distinct fast coordinate; `fast` is
    `fast_coordinates(grid, eps)`, computed here when not given."""
    if spec.dim != grid.dim:
        raise InputError("operator and grid dimensions differ")
    rows, inverse = fast_coordinates(grid, eps) if fast is None else fast
    return assemble_linear(grid, *spec.field.sample(rows), at=inverse)


def effective_samples(eff: EffectiveLinear, grid: DomainGrid):
    """((a_bar, b_bar, c_bar), at): the effective constants as one row, and
    the index `at` (see `assemble_linear`) that gathers it to every node."""
    if eff.dim != grid.dim:
        raise InputError("effective operator and grid dimensions differ")
    d = eff.dim
    return ((np.reshape(eff.a_bar, (1, d, d)), np.reshape(eff.b_bar, (1, d)),
             np.array([eff.c_bar])),
            np.broadcast_to(np.intp(0), (int(np.prod(grid.shape)),)))


def assemble_effective(eff: EffectiveLinear, grid: DomainGrid) -> DiscreteOperator:
    """Constant-coefficient effective operator on the same layout."""
    samples, at = effective_samples(eff, grid)
    return assemble_linear(grid, *samples, at=at)


def bellman_operators(spec: BellmanSpec, eps: float, grid: DomainGrid,
                      fast=None):
    """Frozen linear operator of each control, assembled once, all from one
    `fast` (`fast_coordinates(grid, eps)`, computed here when not given)."""
    fast = fast_coordinates(grid, eps) if fast is None else fast
    return [assemble_oscillatory(ctl, eps, grid, fast) for ctl in spec.controls]


def shifted_m_matrix(op: DiscreteOperator, shift: float, tol=1e-9):
    """(B, ok, info): B = shift*I - L_h as weights, which
    `torus.FactoredOperator` factors, and whether it is an M-matrix
    candidate (diagonal > 0, off-diagonal <= tol, row excess
    B_ii - sum_{j != i} |B_ij| > -tol), read off B's weights inside the
    grid, with no sparse matrix built. Only nonzero weights count as
    entries of B, which keeps no zeros in its CSR either; the couplings to
    boundary nodes lie outside B. info carries the worst off-diagonal entry
    of B with its (row, col), first in row-major order among equals, the
    minimal diagonal and the minimal row excess. The eigensolver runs this
    test on the matrix it factors.
    """
    B = Weights({o: -w for o, w in op.neighbours.items()}, shift - op.diag,
                op.shape, op.wrap, zeros=False)
    offdiag = None  # sum_{j != i} |B_ij|, in column order
    worst, at = (0.0,), None
    for s, r0, r1, w in B.stencil.diags:
        if s == 0:
            continue
        if offdiag is None:  # the first offset's |w|; rows it misses get 0
            offdiag = np.empty(len(B.diag))
            np.abs(w, out=offdiag[r0:r1])
            offdiag[:r0] = offdiag[r1:] = 0.0
        else:
            offdiag[r0:r1] += np.abs(w)
        if w.any():
            vals = w if w.max() else np.where(w != 0, w, -np.inf)
            j = int(np.argmax(vals))
            key = (float(vals[j]), -(r0 + j), -s)  # ties: the earlier entry
            if at is None or key > worst:
                worst, at = key, (r0 + j, r0 + j + s)
    if offdiag is None:  # B has no off-diagonal weights
        offdiag = np.zeros(len(B.diag))
    excess = np.subtract(B.diag, offdiag, out=offdiag)
    ok = bool(B.diag.min() > 0 and worst[0] <= tol and excess.min() > -tol)
    return B, ok, {
        "worst_offdiag": worst[0],
        "worst_offdiag_at": at,
        "min_diag": float(B.diag.min()),
        "min_row_excess": float(excess.min()),
    }


def properness_shift(op: DiscreteOperator) -> float:
    """Shift making shift*I - L_h a nonsingular M-matrix: max(0, max c) + 1."""
    return max(0.0, op.c_max) + 1.0


def dirichlet_solve(op: DiscreteOperator, rhs) -> GridFunction:
    """Solve  L_h u = rhs  at the interior nodes, u = 0 on the boundary;
    `rhs` is a flat interior vector."""
    sol = FactoredOperator(op).solve(np.asarray(rhs, dtype=float))
    return GridFunction(op.grid, op.grid.embed(sol))
