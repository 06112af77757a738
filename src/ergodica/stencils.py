"""Finite-difference weights, the one stored form of a monotone operator,
and difference operators applied by slicing.

`stencil_weights` is the one discretization of a D^2 + b . D + c: the torus
cell operators (`torus`) and the Dirichlet operators (`domain`) share it.
Every operator, 1D or 2D, torus or Dirichlet, is kept as those weights,
aligned by row (`Weights`); a Dirichlet operator acts on functions that
carry 0 on the boundary, so its couplings to boundary nodes are stored
but never read. A frozen policy gathers them row by row
(`select_weights`). Its products run on a `Stencil` that the weights are
sliced into, in numpy alone, and its CSR is written only where SuperLU
factors it, so scipy.sparse is imported there and nowhere else. The
difference operators of the correctors are `Stencil`s too: circulant ones
for the torus and banded ones for bounded intervals, where rows near the
edge fall back to one-sided stencils of the same order.
"""

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import AssemblyError

_OFFDIAG_TOL = 1e-12


def fd_weights(nodes, x0, m):
    """Weights of the m-th derivative at x0 from samples at `nodes` (Fornberg)."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if n <= m:
        raise ValueError("need more than m nodes for the m-th derivative")
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, m]


def stencil_weights(avals, bvals, cvals, h, shape, rows, wrap):
    """The coefficients of  a D^2 + b . D + c  at the flat node indices `rows`
    of a grid of `shape` and spacing `h`, from the coefficients at those
    nodes: avals (k, d, d), bvals (k, d), cvals (k,). Returns (neighbours,
    diag): neighbours maps each stored neighbour offset (one int per axis)
    to its weights (k,), and diag (k,) holds the centre weights, c included.

    Second differences are centered; the drift is centered where h|b| <
    2 a_eff and first-order upwind elsewhere; 2D cross terms use the
    diagonal-shift 7-point stencil, monotone when |a12| <= min(a11, a22).
    Raises AssemblyError when that bound fails, when a cross term meets
    unequal spacing, or when an off-diagonal weight comes out negative.
    """
    d = len(shape)
    cross = np.zeros(len(rows))
    if d == 2:
        a12 = 0.5 * (avals[:, 0, 1] + avals[:, 1, 0])
        if np.any(np.abs(a12) > _OFFDIAG_TOL) and abs(h[0] - h[1]) > 1e-14:
            raise AssemblyError("cross terms require equal spacing per axis")
        slack = np.minimum(avals[:, 0, 0], avals[:, 1, 1]) - np.abs(a12)
        if slack.min() < 0:
            raise AssemblyError(
                f"|a12| exceeds min(a11, a22) by {-slack.min():.3e} at node "
                f"{np.unravel_index(rows[int(np.argmin(slack))], shape)}"
            )
        cross = np.abs(a12)

    neighbours = {}
    diag = np.zeros(len(rows))
    for ax, hk in enumerate(h):
        a_ax = avals[:, ax, ax] - cross
        b_ax = bvals[:, ax]
        centered = np.abs(b_ax) * hk < 2.0 * a_ax
        step = tuple(int(k == ax) for k in range(d))
        neighbours[step] = a_ax / hk ** 2 + np.where(
            centered, b_ax / (2 * hk), np.maximum(b_ax, 0.0) / hk)
        neighbours[tuple(-o for o in step)] = a_ax / hk ** 2 - np.where(
            centered, b_ax / (2 * hk), np.minimum(b_ax, 0.0) / hk)
        diag += -2 * a_ax / hk ** 2 - np.where(centered, 0.0, np.abs(b_ax) / hk)

    # diagonal neighbours are stored when a cross term exists, and always on
    # the torus: with splu's MMD_AT_PLUS_A on 2 cores the 9-entry pattern
    # factors a 128^2 cell matrix in 0.11 s against 0.17 s, but a 383^2
    # shifted Dirichlet operator in 1.13 s against 0.86 s (sep-2d samples)
    if d == 2 and (wrap or np.any(cross > 0)):
        ap, am = np.maximum(a12, 0.0), np.maximum(-a12, 0.0)
        for offset, coeff in (((1, 1), ap), ((-1, -1), ap),
                              ((1, -1), am), ((-1, 1), am)):
            neighbours[offset] = coeff / h[0] ** 2
        diag += -2 * cross / h[0] ** 2

    lowest = min(neighbours.values(), key=np.min)
    if lowest.min() < -_OFFDIAG_TOL:
        raise AssemblyError(
            f"negative off-diagonal {lowest.min():.3e} in row of node "
            f"{np.unravel_index(rows[int(np.argmin(lowest))], shape)}"
        )
    return neighbours, diag + cvals


def separable_by_axis(a, axis0=(), axis1=()):
    """Whether 2D samples a (n0, n1, 2, 2) make a Kronecker sum of two 1D
    stencils (Lynch-Rice-Thomas 1964): a12 = a21 = 0, a11 and `axis0` constant
    along axis 1, a22 and `axis1` along axis 0, by exact equality."""
    return not (a[..., 0, 1].any() or a[..., 1, 0].any()) \
        and all((x == x[:, :1]).all() for x in (a[..., 0, 0], *axis0)) \
        and all((x == x[:1]).all() for x in (a[..., 1, 1], *axis1))


class Weights:
    """A difference operator as its row-aligned weights (`stencil_weights`):
    `neighbours` maps each neighbour offset, one int per axis, to its
    weights (k,), and `diag` (k,) holds the centre weights. Row i sits at
    node i of a grid of `shape`, row-major. A neighbour outside that grid
    wraps around it when `wrap` (torus); otherwise it is a Dirichlet
    boundary node, one node outside the grid, which carries 0, and its
    weight is left out of `stencil` and `csr`. Products run on `stencil`,
    which slices the weights; `csr` writes them for a SuperLU factor, zero
    weights as entries if `zeros`.
    """

    def __init__(self, neighbours, diag, shape, wrap, zeros=True):
        self.neighbours, self.diag = neighbours, diag
        self.shape, self.wrap, self.zeros = tuple(shape), wrap, zeros

    def blocks(self):
        """(weights, s, block) for each block of rows of each offset,
        offsets ascending (ascending column within a row): the rows in
        `block`, a slice per axis, reach their neighbour s flat nodes away,
        wrapped on the torus; on a Dirichlet grid only the rows whose
        neighbour lies inside the grid."""
        strides = [math.prod(self.shape[k + 1:]) for k in range(len(self.shape))]
        for offset in sorted(self.neighbours):
            axes = [[(slice(max(0, -o), m - max(0, o)), 0)] + (
                [(slice(0, -o), m) if o < 0 else (slice(m - o, m), -m)]
                if o and self.wrap else []) for o, m in zip(offset, self.shape)]
            for ranges in itertools.product(*axes):
                block, jump = zip(*ranges)
                s = sum((o + j) * k for o, j, k in zip(offset, jump, strides))
                yield self.neighbours[offset], s, block

    @cached_property
    def stencil(self):
        """The `Stencil` of the couplings inside the grid: a view of the
        weights where the rows of a shift are one block over whole trailing
        axes (every block in 1D), else the blocks of that shift in one
        array of zeros."""
        n, shifts = len(self.diag), {}
        for w, s, block in self.blocks():
            shifts.setdefault(s, []).append((w, block))
        diags = [(0, 0, n, self.diag)]
        for s, parts in shifts.items():
            (w, block), stride = parts[0], n // self.shape[0]
            if len(parts) == 1 and block[1:] == tuple(
                    slice(0, m) for m in self.shape[1:]):
                r0, r1 = block[0].start * stride, block[0].stop * stride
                diags.append((s, r0, r1, w[r0:r1]))
                continue
            full = np.zeros(self.shape)
            for w, block in parts:
                full[block] = w.reshape(self.shape)[block]
            r0, r1 = max(0, -s), n - max(0, s)
            diags.append((s, r0, r1, full.ravel()[r0:r1]))
        return Stencil(n, diags)

    def __matmul__(self, x):
        return self.stencil @ x

    def csr(self):
        """The CSR matrix of the couplings inside the grid, for SuperLU."""
        from scipy import sparse  # only where a SuperLU factor is made
        n = len(self.diag)
        parts = [(0, self.diag, np.arange(n))] + [
            (s, w, flat_rows(block, self.shape)) for w, s, block in self.blocks()]
        A = sparse.csr_matrix((np.concatenate([w[r] for _, w, r in parts]), (
            np.concatenate([r for _, _, r in parts]),
            np.concatenate([r + s for s, _, r in parts]))), shape=(n, n))
        if not self.zeros:
            A.eliminate_zeros()
        return A


def flat_rows(block, shape):
    """The flat indices, ascending, of the nodes of a grid of `shape` in
    `block`, a slice per axis."""
    index = np.meshgrid(*(np.arange(b.start, b.stop) for b in block),
                        indexing="ij")
    return np.ravel_multi_index(index, shape).ravel()


def select_weights(ops, policy):
    """(neighbours, diag) of the frozen policy whose row i is row i of
    ops[policy[i]]: each weight array gathered out of the stacked arrays of
    the controls, a control that stores no such offset weighing 0 there."""
    rows = np.arange(len(policy))
    pick = lambda arrays: np.stack(arrays)[policy, rows]
    zero = np.zeros(len(policy))
    offsets = dict.fromkeys(o for op in ops for o in op.neighbours)
    return ({o: pick([op.neighbours.get(o, zero) for op in ops]) for o in offsets},
            pick([op.diag for op in ops]))


class Stencil:
    """A sparse n x n operator applied by slicing: `diags` are (s, r0, r1, w),
    row i in [r0, r1) taking w x[i + s], w a scalar or one weight per row.
    Each row sums its terms in ascending s, which is ascending column, the
    order of a CSR product, so `D @ x` equals the CSR product bit for bit,
    signed zeros included.
    x is a vector or an (n, k) block, or with `grid` a flat (N,) or (N, k)
    function on that shape, which D differentiates along `axis`."""

    def __init__(self, n, diags, grid=None, axis=0):
        self.n, self.grid, self.axis = n, grid or (n,), axis
        self.diags = sorted(diags, key=lambda d: d[0])
        self.shape = (math.prod(self.grid),) * 2

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.moveaxis(x.reshape(self.grid + x.shape[1:]), self.axis, 0)
        out = np.empty(y.shape) if self.diags else np.zeros(y.shape)
        for k, (s, r0, r1, w) in enumerate(self.diags):
            if np.ndim(w):
                w = w.reshape(-1, *(1,) * (y.ndim - 1))
            if k:
                out[r0:r1] += w * y[r0 + s:r1 + s]
            else:  # the first term of its rows; the other rows start at 0
                np.multiply(w, y[r0 + s:r1 + s], out=out[r0:r1])
                out[:r0] = out[r1:] = 0.0
        # CSR adds the first term to +0.0, which turns -0.0 into +0.0 and
        # leaves every other sum as it is: one pass does the same at the end
        out += 0.0
        return np.moveaxis(out, 0, self.axis).reshape(x.shape)

    def __abs__(self):
        return Stencil(self.n, [(s, r0, r1, np.abs(w)) for s, r0, r1, w in
                                self.diags], self.grid, self.axis)


def _diff_stencil(n, h, m, periodic):
    """4th-order m-th derivative `Stencil` on n equispaced nodes: centered,
    5 points for m in {1, 2} and 7 for m = 3; near the edges wrapped
    (`periodic`, zero weights left out) or one-sided (m + 4 points)."""
    half, p_side = (2 if m <= 2 else 3), m + 4
    offsets = np.arange(-half, half + 1)
    w = fd_weights(offsets * h, 0.0, m)
    keep = w != 0.0 if periodic else slice(None)
    lo, hi = half, max(half, n - half)
    diags = [(int(s), lo, hi, wk) for s, wk in zip(offsets[keep], w[keep])]
    for i in [*range(min(half, n)), *range(hi, n)]:
        if periodic:  # duplicate columns (n < 2 half + 1) are summed, as CSR does
            cols, at = np.unique((i + offsets[keep]) % n, return_inverse=True)
            ws = np.bincount(at, w[keep], len(cols))
        else:
            cols = np.arange(p_side) + (0 if i < half else n - p_side)
            ws = fd_weights((cols - i) * h, 0.0, m)
        diags += [(int(c - i), i, i + 1, wk) for c, wk in zip(cols, ws)]
    return Stencil(n, diags)


def periodic_diff_matrix(n, h, m=1):
    """4th-order differentiation `Stencil` for n periodic nodes (circulant)."""
    return _diff_stencil(n, h, m, periodic=True)


def bounded_diff_matrix(n, h, m=1):
    """4th-order differentiation `Stencil` on n equispaced nodes of an
    interval; rows within reach of an edge are one-sided (m + 4 points)."""
    if n < m + 4:
        raise ValueError(f"grid too coarse for a 4th-order stencil: n={n} < {m + 4}")
    return _diff_stencil(n, h, m, periodic=False)
