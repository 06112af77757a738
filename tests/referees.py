"""Independent referees that the tests compare the package against.

None of these is called by `src/`: each rebuilds, from a representation the
package no longer keeps or by a different method, what a test checks.
"""

from fractions import Fraction

import numpy as np
from scipy import sparse

from ergodica.domain import fast_coordinates, node_index
from ergodica.eigen import _start_vector
from ergodica.stencils import BandOperator


def csr_blocks(op):
    """(matrix, boundary) of a `DiscreteOperator` as CSR: a 2D operator's
    own blocks, a 1D one's written from its bands (lower[0] and upper[-1]
    are the boundary block)."""
    if op.bands is None:
        return op.matrix, op.boundary
    lower, _, upper = op.bands
    n = len(lower)
    return BandOperator(op.bands, wrap=False).matrix, sparse.csr_matrix(
        ([lower[0], upper[-1]], ([0, n - 1], [0, 1])), shape=(n, 2))


def csr(op):
    """The interior CSR matrix of a `DiscreteOperator` (`csr_blocks`)."""
    return csr_blocks(op)[0]


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
    ratios = -op.matvec(vec) / vec
    return float(ratios.min()), float(ratios.max())


def gth_eigenvalue(lower, upper, c, sections=64):
    """lambda of L phi = -lambda phi for the 1D Dirichlet operator whose
    row i takes lower[i] phi_{i-1} + (c[i] - lower[i] - upper[i]) phi_i +
    upper[i] phi_{i+1}, weights aligned as `DiscreteOperator.bands` (lower[0]
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
