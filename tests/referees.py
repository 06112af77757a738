"""Independent referees that the tests compare the package against.

None of these is called by `src/`: each rebuilds, from a representation the
package no longer keeps or by a different method, what a test checks.
"""

import functools
from fractions import Fraction

import numpy as np
from scipy import sparse

from ergodica.domain import fast_coordinates, node_index
from ergodica.eigen import _start_vector
from ergodica.stencils import stencil_weights


def weights_csr(neighbours, diag, shape, rows, wrap):
    """CSR rows (len(rows), prod(shape)) of the weights (neighbours, diag)
    at the flat node indices `rows` of a grid of `shape`, every stored
    weight an entry, zeros too. Neighbours wrap around when `wrap` (torus)
    and must exist otherwise: a column per node, found by
    `ravel_multi_index`, and the entries ordered by scipy's COO to CSR."""
    mode = "wrap" if wrap else "raise"
    index = np.unravel_index(rows, shape)
    cols = [np.ravel_multi_index(tuple(i + o for i, o in zip(index, offset)),
                                 shape, mode=mode) for offset in neighbours]
    return sparse.csr_matrix(
        (np.concatenate(list(neighbours.values()) + [diag]),
         (np.tile(np.arange(len(rows)), len(cols) + 1),
          np.concatenate(cols + [rows]))),
        shape=(len(rows), int(np.prod(shape))),
    )


def monotone_stencil(avals, bvals, cvals, h, shape, rows, wrap):
    """CSR rows of  a D^2 + b . D + c  at the flat node indices `rows`, with
    the weights of `stencil_weights` (same arguments), by `weights_csr`."""
    return weights_csr(*stencil_weights(avals, bvals, cvals, h, shape, rows,
                                        wrap), shape, rows, wrap)


def csr_blocks(op):
    """(matrix, boundary) of Dirichlet weights (a `DiscreteOperator`, or the
    B of `shifted_m_matrix`) as CSR: the rows of `weights_csr` at the
    interior nodes of the full grid, one node wider on every side, with the
    interior and the boundary columns sliced apart."""
    full = tuple(m + 2 for m in op.shape)
    inner = np.zeros(full, dtype=bool)
    inner[tuple(slice(1, -1) for _ in full)] = True
    interior, boundary = np.flatnonzero(inner), np.flatnonzero(~inner)
    rows = weights_csr(op.neighbours, op.diag, full, interior, wrap=False)
    return rows[:, interior].tocsr(), rows[:, boundary].tocsr()


def csr(op):
    """The CSR matrix of weights: a torus operator's by `weights_csr`,
    the interior block of Dirichlet ones (`csr_blocks`)."""
    if op.wrap:
        return weights_csr(op.neighbours, op.diag, op.shape,
                           np.arange(len(op.diag)), wrap=True)
    return csr_blocks(op)[0]


def select_rows(mats, policy):
    """Frozen-policy CSR matrix whose row i is row i of mats[policy[i]],
    indexed out of the stacked control matrices."""
    n = mats[0].shape[0]
    return sparse.vstack(mats, format="csr")[policy * n + np.arange(n)]


def stencil_matrix(D):
    """The CSR matrix of a `stencils.Stencil`, its diagonals written entry
    by entry, Kronecker-multiplied with identities along the other axes."""
    rows = [np.arange(r0, r1) for _, r0, r1, _ in D.diags]
    vals = [np.broadcast_to(d[3], len(r)) for d, r in zip(D.diags, rows)]
    cols = [r + d[0] for d, r in zip(D.diags, rows)]
    eyes = [sparse.identity(k, format="csr") for k in D.grid]
    eyes[D.axis] = sparse.csr_matrix((np.concatenate(vals), (
        np.concatenate(rows), np.concatenate(cols))), shape=(D.n, D.n))
    return functools.reduce(lambda A, B: sparse.kron(A, B, format="csr"), eyes)


def oscillatory_samples(spec, eps, grid):
    """Samples (a, b, c) of a(x/eps), b(x/eps), c(x/eps) on the full node
    set, evaluated once per distinct fast coordinate and gathered: the
    node-wise form of the rows and index that `fast_coordinates` gives,
    which a sweep row never forms."""
    rows, at = fast_coordinates(grid, eps)
    return tuple(np.take(s, node_index(at), axis=0) for s in spec.field.sample(rows))


def collatz_wielandt(op, phi):
    """Nodewise ratio bounds (min, max) of (-L_h phi) / phi for positive phi.

    By Perron theory on the monotone discretization the principal eigenvalue
    lies between the two. phi is checked as a start vector, so a grid
    function on another grid is an InputError.
    """
    vec = _start_vector(phi, op.grid, len(op.grid.interior_index()), "phi")
    ratios = -(op @ vec) / vec
    return float(ratios.min()), float(ratios.max())


def gth_eigenvalue(lower, upper, c, sections=64):
    """lambda of L phi = -lambda phi for the 1D Dirichlet operator whose
    row i takes lower[i] phi_{i-1} + (c[i] - lower[i] - upper[i]) phi_i +
    upper[i] phi_{i+1}, weights aligned by row as `stencil_weights` (lower[0]
    and upper[-1] reach the boundary), in long double.

    B = -L_h in triplet form (Alfa-Xue-Ye 2002): off-diagonal sizes l_i,
    u_i inside the matrix and row excess x_i = -c_i, plus the boundary
    weight in the first and last rows. The pivots of B - mu I obey the GTH
    recurrence (Grassmann-Taksar-Heyman 1985) e_i = x_i - mu + l_i e_{i-1} /
    p_{i-1}, p_i = e_i + u_i, with no O(1/h^2) term cancelling; all are
    positive exactly when mu lies below the smallest eigenvalue (the matrix
    is similar to a symmetric one). Multisection on that sign, `sections`
    values of mu at a time, from the Gershgorin interval, to the last bit.
    """
    ld = np.longdouble
    lower, upper, c = (np.array(v, dtype=ld) for v in (lower, upper, c))
    excess = -c
    excess[0] += lower[0]
    excess[-1] += upper[-1]
    lower[0] = upper[-1] = 0

    def below(mu):
        ok = np.ones(len(mu), dtype=bool)
        e = p = None
        with np.errstate(all="ignore"):
            for i in range(len(excess)):
                e = excess[i] - mu + (lower[i] * e / p if i else 0)
                p = e + upper[i]
                ok &= p > 0
        return ok

    lo = excess.min()
    hi = (excess + 2 * lower + 2 * upper).max()
    while True:
        mu = lo + (hi - lo) * np.arange(1, sections + 1, dtype=ld) / (sections + 1)
        ok = below(mu)
        new = (mu[ok].max() if ok.any() else lo,
               mu[~ok].min() if not ok.all() else hi)
        if new == (lo, hi):
            return lo
        lo, hi = new


def thomas_solve(lower, diag, upper, rhs):
    """The solution of the tridiagonal system with row-aligned bands
    (lower[0] and upper[-1] outside the matrix) by the Thomas recurrence in
    long double, rounded to double at the end."""
    ld = np.longdouble
    lower, diag, upper, g = (np.array(v, dtype=ld)
                             for v in (lower, diag, upper, rhs))
    n = len(diag)
    sup = np.zeros(n, dtype=ld)
    for i in range(n):
        pivot = diag[i] - (lower[i] * sup[i - 1] if i else 0)
        sup[i] = upper[i] / pivot if i < n - 1 else 0
        g[i] = (g[i] - (lower[i] * g[i - 1] if i else 0)) / pivot
    for i in range(n - 2, -1, -1):
        g[i] -= sup[i] * g[i + 1]
    return g.astype(float)


def stored_row_sums(shift, lower, diag, upper):
    """The c of `gth_eigenvalue` for L = shift I - B, B the stored bands
    (-lower, diag, -upper): c_i = shift - diag_i + lower_i + upper_i, summed
    exactly in rationals and rounded once to long double."""
    def long_double(exact):  # two doubles carry its first 106 bits
        hi = float(exact)
        return np.longdouble(hi) + np.longdouble(float(exact - Fraction(hi)))

    s = Fraction(float(shift))
    return np.array([long_double(s - Fraction(float(d)) + Fraction(float(l))
                                 + Fraction(float(u)))
                     for l, d, u in zip(lower, diag, upper)])
