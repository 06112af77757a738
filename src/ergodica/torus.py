"""Periodic grids, monotone torus discretizations, ergodic (cell) solvers,
and the factorizations every solver in the package goes through.

All cell problems share the shape  a(y) D^2 v + f(y) = gamma  on the flat
torus; the pair (v, gamma) is computed from the augmented square system

    [ A   -1 ] [ v     ]   [ -f ]
    [ m^T  0 ] [ gamma ] = [  0 ],

where A is `assemble_torus_diffusion`'s a(y) D^2 with wrapped neighbours
and m the mean weights. The constraint row pins the additive constant;
v is then anchored at the grid origin, v(0) = 0, so a corrector traced at
x/eps vanishes at both ends of [0, 1] when eps = 1/m. `cell_factor`
factors the augmented matrix once per operator, for a whole block of
right-hand sides: in closed form in 1D (`CellFactor1D`: gamma = mu . f with
the invariant measure mu ~ 1/a), axis by axis for 2D samples that separate
(`KroneckerCellFactor`), else by SuperLU (`factor_cell`). The two closed
forms also give gamma alone, `gamma(F)`, from mu without any corrector.

A torus operator is its wrapped row-aligned weights (`stencils.Weights`),
the stored form of every Dirichlet operator too (`domain`).
`FactoredOperator` is the one LU factorization of the package: cyclic
reduction in numpy (`_CyclicReduction`) for the weights of a tridiagonal
(1D Dirichlet) operator, be it oscillatory, a frozen policy, a shifted
eigen matrix or a separable axis, run on the off-diagonals and exact row
sums of the weights as stored, so that no O(1/h^2) diagonal is rounded
again; SuperLU for the CSR written from any other weights (2D operators)
or for the augmented 2D cell matrix, whose minimum-degree ordering on
A^T + A roughly halves the fill of the default COLAMD ordering on the 2D
grids here. A factor lives only as long as the function that
solves with it. scipy is imported only where a SuperLU factor and its CSR
are made, never for 1D operators or separable 2D rows.

`policy_iteration` is the package's one Howard loop and switching rule,
for the Bellman cell problem and eigenproblem
(`eigen.principal_eigenpair_bellman`) of the Python API; the 1D cells and
rows of `ergodica sweep` and `eigen` are linear (`solve_concave_cell`). A
frozen policy gathers the controls' weights row by row
(`stencils.select_weights`) in any dimension. Each caller keeps its own
check: a Bellman residual below tolerance once the policy settles (cell),
an eigenvalue that does not rise between sweeps (eigen).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff import BellmanSpec, CoefficientField
from .errors import InputError, IterationError, SolverError
from .stencils import (Stencil, Weights, periodic_diff_matrix, select_weights,
                       separable_by_axis, stencil_weights)

# a control switch must gain more than this, relative to the largest value
HOWARD_RTOL = 1e-11
MAX_CELL_SWEEPS = 100


class FactoredOperator:
    """LU factorization of an operator, reused for every solve.

    `op` is a `stencils.Weights` or a sparse matrix. The weights of a
    tridiagonal matrix (a 1D Dirichlet operator: offsets -1 and 1, no wrap)
    must be plus or minus a nonsingular M-matrix; they are left unmodified
    and factored by `_CyclicReduction`, which ignores the boundary weights
    lower[0] and upper[-1]. Any other weights are written as CSR
    (`Weights.csr`) and, like a sparse matrix, go to SuperLU with the
    MMD_AT_PLUS_A ordering. Raises SolverError when the factorization fails
    (tridiagonal: an off-diagonal entry of the diagonal's sign or a reduced
    pivot that is not; sparse: an exactly singular matrix) or a solve
    produces nonfinite values.
    """

    def __init__(self, op):
        if isinstance(op, Weights):
            if not op.wrap and op.neighbours.keys() <= {(-1,), (1,)}:
                self._lu = _CyclicReduction(op.neighbours[(-1,)], op.diag,
                                            op.neighbours[(1,)])
                return
            op = op.csr()
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        # the matrix goes in positionally: profilers that wrap splu read it
        try:
            self._lu = splu(csc_matrix(op), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}") from exc

    @property
    def tridiagonal(self):
        """Whether the factor is `_CyclicReduction`'s, not SuperLU's."""
        return isinstance(self._lu, _CyclicReduction)

    def solve(self, B):
        """Solve  M X = B  for a vector or an (n, k) block B of n rows."""
        B, n = np.asarray(B, dtype=float), self._lu.shape[0]
        if B.shape[:1] != (n,):
            raise InputError(f"right-hand side of shape {B.shape} for a "
                             f"matrix of order {n}")
        X = self._lu.solve(B)
        if not np.all(np.isfinite(X)):
            kind = "tridiagonal" if self.tridiagonal else "sparse"
            raise SolverError(f"{kind} LU solve produced nonfinite values")
        return X


class _CyclicReduction:
    """Cyclic reduction (Buzbee-Golub-Nielson, SINUM 7, 1970) of the
    tridiagonal matrix A with row-aligned bands (a, b, c), on its triplet
    representation (Alfa-Xue-Ye, Math. Comp. 71, 2002): the off-diagonals
    and the row sums rho = a + b + c in place of the diagonal.

    Level j holds m rows; its even rows are eliminated and its m // 2 odd
    rows form level j + 1, with the multipliers alpha = -a_o / b_e (left)
    and beta = -c_o / b_e (right):  a' = alpha a_e,  c' = beta c_e,
    rho' = rho_o + alpha rho_e + beta rho_e  and  b' = rho' - a' - c'. For
    A = +-M, M a nonsingular M-matrix with nonnegative row excess (the
    shifted eigen matrices), every level adds numbers of one sign, as in
    GTH (Grassmann-Taksar-Heyman 1985), so no O(1/h^2) term cancels, and
    neither does a solve with a right-hand side of one sign: on the
    sin-abc row at eps = 1/16 its components are accurate to 6.3e-15 at
    n = 4 096 and 9.0e-14 at 65 536 (LAPACK's gttrs: 6.9e-12, 1.4e-10).
    The row sums of the stored bands carry one rounding: b + a is split
    error-free (Fast2Sum; |b| >= |a| for these matrices) and adding c is
    exact (Sterbenz) whenever rho is small against c, so the factor is the
    one of the matrix as stored, with no O(1/h^2) diagonal rounded again.

    A factor allocates one block: its coefficients (5n doubles) and a work
    array (3n), which holds the levels while it factors and a solve's
    levels afterwards; a solve allocates only its result. Freeing the first
    (mmapped) block lifts glibc's trim threshold to twice its size, 8 MB at
    n = 65 535: above the 6.6 MB a sin-abc row frees at the heap top, which
    was trimmed and re-faulted every row under the 5 MB that two arrays
    gave. The back substitution computes -X, which the last step negates.
    """

    def __init__(self, lower, diag, upper):
        lower, diag, upper = (np.asarray(v, dtype=float)
                              for v in (lower, diag, upper))
        n = len(diag)
        sign = 1.0 if diag[0] > 0 else -1.0
        extreme = np.max if sign > 0 else np.min
        for band, first in ((lower[1:], 1), (upper[:-1], 0)):
            if band.size and not sign * extreme(band) <= 0:
                raise SolverError(
                    "tridiagonal LU factorization failed: row "
                    f"{first + int(np.argmax(~(sign * band <= 0)))} has an "
                    "off-diagonal entry of the diagonal's sign (the bands "
                    "are not +-an M-matrix)")
        halves, m = [], n  # (eliminated, kept) rows per level
        while m > 1:
            halves.append((m - m // 2, m // 2))
            m //= 2
        # -1/b of every eliminated row and of the last one, then alpha,
        # beta, P = -a_e/b_e and Q = -c_e/b_e level by level, then the work
        ncoef = n + sum(2 * E + 2 * K - 2 for E, K in halves)
        C = np.empty(ncoef + n + 4 * (n // 2))
        self._levels, at = [], n
        rh_at = 0
        for E, K in halves:
            seg = []
            for size in (K, E - 1, E - 1, K):
                seg.append(C[at:at + size])
                at += size
            self._levels.append((C[rh_at:rh_at + E], *seg))
            rh_at += E
        self._last = C[n - 1:n]
        # rho, then the levels 2, 4, ...; the levels 1, 3, ... after it
        self._work = work = C[ncoef:]
        rho = work[:n]
        np.add(diag, lower, out=rho)
        if n > 1:
            tail = work[n:2 * n]  # scratch until the levels need it
            np.subtract(diag, rho, out=tail)
            tail += lower  # rho + tail = diag + lower exactly
            rho += upper
            rho += tail
            rho[0] = diag[0] + upper[0]
            rho[-1] = diag[-1] + lower[-1]
        bufs = [work[n:].reshape(4, -1), work[:4 * (n // 4)].reshape(4, -1)]
        mul, add, sub = np.multiply, np.add, np.subtract
        a, b, c = lower, diag, upper
        with np.errstate(all="ignore"):  # a failed pivot is reported below
            for j, (rh, al, be, P, Q) in enumerate(self._levels):
                E, K = halves[j]
                a1, c1, rho1, b1 = bufs[j % 2][:, :K]
                rh0, rh1, even = rh[:K], rh[1:], slice(2, None, 2)
                np.divide(-1.0, b[0::2], out=rh)
                mul(a[1::2], rh0, out=al)
                mul(c[1::2][:E - 1], rh1, out=be)
                mul(a[even], rh1, out=P)
                mul(c[:2 * K:2], rh0, out=Q)
                mul(al, rho[:2 * K:2], out=rho1)
                add(rho1, rho[1::2], out=rho1)
                t, r = b1[:E - 1], rho1[:E - 1]
                mul(be, rho[even], out=t)
                add(r, t, out=r)
                mul(al, a[:2 * K:2], out=a1)
                mul(be, c[even], out=c1[:E - 1])
                a1[0] = c1[-1] = 0.0  # the first and last rows of level j + 1
                sub(rho1, a1, out=b1)
                sub(b1, c1, out=b1)
                a, b, c, rho = a1, b1, c1, rho1
            np.divide(-1.0, b[:1], out=self._last)
        rh = C[:n]
        lo, hi = rh.min(), rh.max()
        if not (-np.inf < lo and hi < 0 if sign > 0 else 0 < lo and hi < np.inf):
            bad = int(np.argmax(~(sign * rh < 0) | ~np.isfinite(rh)))
            raise SolverError(
                "tridiagonal LU factorization failed: the reduced pivot of "
                f"row {self._row(bad, halves)} is zero, nonfinite or not of "
                "the diagonal's sign (the bands are not +-a nonsingular "
                "M-matrix)")
        self._n, self._plans, self.shape = n, {}, (n, n)

    @staticmethod
    def _row(k, halves):
        """The row of the k-th reduced pivot: row (2i + 1) 2^j - 1 is the
        i-th eliminated row of level j."""
        for j, (E, _) in enumerate(halves):
            if k < E:
                return (2 * k + 1) * 2 ** j - 1
            k -= E
        return 2 ** len(halves) - 1

    @staticmethod
    def _parts(g, K):
        """(even rows, odd rows, first K even rows, even rows after the
        first) of a level's rows g."""
        even = g[0::2]
        return even, g[1::2], even[:K], even[1:]

    def _plan(self, shape):
        """Work arrays for right-hand sides of `shape`, with their views
        made once: level j + 1's rows in a contiguous segment of G, the
        products in T, both in the factor's work array when they fit (every
        solve writes them before it reads them). Level 0 is the right-hand
        side, then the result."""
        plan = self._plans.get(shape)
        if plan is None:
            n, cols = self._n, int(np.prod(shape[1:]))
            size = (n + (n + 1) // 2) * cols
            mem = self._work[:size] if size <= len(self._work) else np.empty(size)
            G = mem[:n * cols].reshape(shape)
            T = mem[n * cols:].reshape(((n + 1) // 2,) + shape[1:])
            col = (lambda v: v[:, None]) if len(shape) > 1 else (lambda v: v)
            plan, at, parts = [], 0, None
            for rh, al, be, P, Q in self._levels:
                K, E = len(al), len(rh)
                rows = G[at:at + K]
                at += K
                plan.append((parts, col(rh), col(al), col(be), col(P), col(Q),
                             rows, rows[:E - 1], T[:K], T[:E - 1]))
                parts = self._parts(rows, K // 2)
            self._plans[shape] = plan
        return plan

    def solve(self, B):
        plan = self._plan(B.shape)
        X = np.empty(B.shape)
        mul, add = np.multiply, np.add
        top = B
        for parts, _, al, be, _, _, rows, rows0, _, tE in plan:
            even, odd, even0, even1 = parts or self._parts(B, len(rows))
            mul(al, even0, out=rows)
            add(rows, odd, out=rows)
            mul(be, even1, out=tE)
            add(rows0, tE, out=rows0)
            top = rows
        mul(top, self._last, out=top if plan else X)
        for parts, rh, _, _, P, Q, v, v0, tK, tE in reversed(plan):
            even, odd, even0, even1 = parts or self._parts(X, len(v))
            mul(rh, even if parts else B[0::2], out=even)
            mul(P, v0, out=tE)
            add(even1, tE, out=even1)
            mul(Q, v, out=tK)
            add(even0, tK, out=even0)
            np.copyto(odd, v)
        return np.negative(X, out=X)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the d-torus: n points per axis, spacing h = 1/n."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InputError("dim must be 1 or 2")
        if self.n < 4:
            raise InputError("need n >= 4 points per axis")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def npoints(self):
        return self.n ** self.dim

    @property
    def shape(self):
        return (self.n,) * self.dim

    def points(self):
        """Node coordinates k*h, flattened to (npoints, dim) in row-major order."""
        axis = np.arange(self.n) * self.h
        if self.dim == 1:
            return axis[:, None]
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([g1.ravel(), g2.ravel()], axis=1)


@dataclass
class GridFunction:
    """Values attached to the nodes of a periodic or domain grid."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise InputError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputError("grid function contains nonfinite values")

    @property
    def flat(self):
        return self.values.ravel()


@dataclass
class ErgodicSolution:
    """Solution (chi, gamma) of a torus cell problem and its residual."""

    chi: GridFunction
    gamma: float
    residual: float


def _diffusion_operator(avals, grid: PeriodicGrid):
    """a(y) D^2 from samples at every node: the wrapped weights of
    `stencil_weights`, 2D ones with the diagonal neighbours stored."""
    N = grid.npoints
    return Weights(*stencil_weights(
        avals, np.zeros((N, grid.dim)), np.zeros(N), (grid.h,) * grid.dim,
        grid.shape, np.arange(N), wrap=True), grid.shape, wrap=True)


def assemble_torus_diffusion(field: CoefficientField, grid: PeriodicGrid):
    """Monotone operator for y -> a(y) D^2 with periodic wrap, as weights."""
    if field.dim != grid.dim:
        raise InputError(f"field dim {field.dim} != grid dim {grid.dim}")
    return _diffusion_operator(field.sample(grid.points())[0], grid)


def factor_cell(a_op):
    """Factored augmented matrix [[A, -1], [m^T, 0]] of the cell problem,
    A the CSR of the weights a_op."""
    from scipy import sparse
    N = len(a_op.diag)
    aug = sparse.bmat(
        [[a_op.csr(), -np.ones((N, 1))], [np.full((1, N), 1.0 / N), None]],
        format="csc",
    )
    return FactoredOperator(aug)


class KroneckerCellFactor:
    """`factor_cell` without LU for samples a (n, n, 2, 2) that pass
    `stencils.separable_by_axis`: A = A_0 (x) I + I (x) A_1, A_k = diag(a_k)
    D^2 = -V_k diag(lam_k) V_k^{-1} with V_k = diag(r_k) Q_k, r_k = sqrt(a_k)
    and Q_k diag(lam_k) Q_k^T the eigh of the symmetric diag(r_k) (-D^2)
    diag(r_k); the invariant measure is mu_0 (x) mu_1, mu_k ~ 1/a_k. `gamma`
    reads only mu; the two eigh wait for the first `solve`."""

    def __init__(self, a):
        self._a = (a[:, 0, 0, 0], a[0, :, 1, 1])
        for k, a_k in enumerate(self._a):
            if not np.all((a_k > 0) & (a_k < np.inf)):
                raise SolverError(
                    f"separable cell: axis {k} coefficient outside (0, inf)")
        self._mu = [mu / mu.sum() for mu in (1 / a_k for a_k in self._a)]

    @cached_property
    def _modes(self):
        """((V_0, W_0), (V_1, W_1)) with W_k = V_k^{-1}, and -1/(lam_0 + lam_1)."""
        n = len(self._a[0])
        eye = np.eye(n)
        neg_d2 = (2 * eye - np.roll(eye, 1, 0) - np.roll(eye, -1, 0)) * n ** 2
        lams, axes = [], []
        for a_k in self._a:
            r = np.sqrt(a_k)
            lam, Q = np.linalg.eigh(r[:, None] * neg_d2 * r)
            lams.append(lam)
            axes.append((r[:, None] * Q, Q.T / r))
        denom = np.add.outer(*lams)
        denom[0, 0] = np.inf  # the constant mode, the zero eigenvalue of both axes
        return axes, -1.0 / denom

    def gamma(self, F):
        """The ergodic constants mu . F of the columns of a flat (N, k) F."""
        mu0, mu1 = self._mu
        # axis by axis: a flat einsum drifts more
        return (F.reshape(len(mu0), len(mu1), -1).transpose(2, 0, 1) @ mu1) @ mu0

    def solve(self, B):
        """`FactoredOperator.solve` of the augmented matrix."""
        ((V0, W0), (V1, W1)), inv = self._modes
        F = -B[:-1]
        gamma = self.gamma(F)
        F = F.reshape(len(V0), len(V1), -1).transpose(2, 0, 1)
        C = V0 @ ((W0 @ (gamma[:, None, None] - F) @ W1.T) * inv) @ V1.T
        C += (B[-1] - C.mean(axis=(1, 2)))[:, None, None]  # mean(v) = B[-1]
        X = np.vstack([C.reshape(len(gamma), -1).T, gamma]).reshape(B.shape)
        if not np.all(np.isfinite(X)):
            raise SolverError("separable cell solve produced nonfinite values")
        return X


class CellFactor1D:
    """`factor_cell` without LU for 1D samples a (n,): A = diag(a) D^2 has
    A^T mu = D^2(a mu) = 0 for mu ~ 1/a, so gamma = mu . F; chi solves D^2 chi
    = (gamma - F) / a by two cumulative sums of centred terms (no drift)."""

    def __init__(self, a):
        if not np.all((a > 0) & (a < np.inf)):
            raise SolverError("1D cell: coefficient outside (0, inf)")
        self._inv_a = 1.0 / a

    def gamma(self, F):
        """The ergodic constants mu . F of the columns of an (n, k) F."""
        return self._inv_a @ F / self._inv_a.sum()

    def solve(self, B):
        """`FactoredOperator.solve` of the augmented matrix."""
        h2_over_a = self._inv_a[:, None] / len(self._inv_a) ** 2
        F = -B[:-1].reshape(len(self._inv_a), -1)
        gamma = self.gamma(F)
        r = (gamma - F) * h2_over_a  # second differences of chi
        d = np.cumsum(r - r.mean(axis=0), axis=0)  # d[i] = chi[i+1] - chi[i]
        chi = np.roll(np.cumsum(d - d.mean(axis=0), axis=0), 1, axis=0)
        chi += B[-1] - chi.mean(axis=0)  # mean(chi) = B[-1]
        X = np.vstack([chi, gamma]).reshape(B.shape)
        if not np.all(np.isfinite(X)):
            raise SolverError("1D cell solve produced nonfinite values")
        return X


def cell_factor(a, a_op):
    """Factor of the augmented cell matrix of a_op = a(y) D^2, picked from
    the samples a (n,) * d + (d, d): `CellFactor1D` in 1D, else
    `KroneckerCellFactor` if they separate by axis, else `factor_cell`.
    `a_op` may be a function that assembles the operator; only
    `factor_cell` calls it. The two closed forms have `gamma(F)`."""
    if a.ndim == 3:
        return CellFactor1D(a[:, 0, 0])
    if separable_by_axis(a):
        return KroneckerCellFactor(a)
    return factor_cell(a_op() if callable(a_op) else a_op)


def solve_cell(a_op, f, grid: PeriodicGrid, lu=None):
    """Solve  a_op chi + f = gamma * 1  on the torus.

    `f` is a flat array on `grid`, or an (N, k) block whose columns are
    right-hand sides. One factorization serves the whole block; pass
    `lu=cell_factor(a, a_op)` to reuse it across calls. Returns an
    ErgodicSolution, or a list of them for a block; gamma is the unique
    ergodic constant, chi is anchored at the grid origin. A residual above
    1e-7 * (1 + max|f| + |gamma| + ||a_op||_inf max|chi|), a normwise
    backward error (the round-off of a_op chi grows with ||a_op|| ~ 1/h^2),
    is a SolverError.
    """
    F = np.asarray(f, dtype=float)
    block = F.ndim == 2 and F.shape[0] == grid.npoints
    F = F if block else F.reshape(-1, 1)
    N = len(a_op.diag)
    if F.shape[0] != N:
        raise InputError("right-hand side size does not match the operator")
    rhs = np.vstack([-F, np.zeros((1, F.shape[1]))])
    sol = (lu or factor_cell(a_op)).solve(rhs)
    chis, gammas = sol[:N], sol[N]
    res = np.max(np.abs(a_op @ chis + F - gammas), axis=0)
    scale = 1.0 + np.max(np.abs(F), axis=0) + np.abs(gammas) + \
        (abs(a_op.stencil) @ np.ones(N)).max() * np.max(np.abs(chis), axis=0)
    bad = np.flatnonzero(res > 1e-7 * scale)
    if bad.size:
        j = int(bad[0])
        raise SolverError(
            f"cell solve residual {res[j]:.3e} exceeds tolerance "
            f"(right-hand side {j})"
        )
    chis = chis - chis[0]
    out = [
        ErgodicSolution(GridFunction(grid, chis[:, j].reshape(grid.shape)),
                        float(gammas[j]), float(res[j]))
        for j in range(F.shape[1])
    ]
    return out if block else out[0]


def gradient_matrices(grid: PeriodicGrid):
    """4th-order centered first derivatives (`Stencil`s) per axis, on flat vectors."""
    D = periodic_diff_matrix(grid.n, grid.h, m=1)
    return [Stencil(grid.n, D.diags, grid.shape, axis) for axis in range(grid.dim)]


def policy_iteration(evaluate, policy, max_iter):
    """Howard policy iteration on a nodewise control field.

    `evaluate(policy)` solves the problem frozen at `policy` and returns
    (result, values), values[beta, i] being control beta's value at node i
    at that solution. A node switches to its best control only when it
    beats the incumbent by more than HOWARD_RTOL * (1 + max|best|), so ties
    keep the incumbent. Returns (result, policy) once no node switches;
    raises IterationError when a policy repeats (a cycle) or `max_iter`
    evaluations do not settle.
    """
    seen = set()
    for sweep in range(max_iter):
        result, values = evaluate(policy)
        best = values.max(axis=0)
        improved = best - values[policy, np.arange(len(policy))] > \
            HOWARD_RTOL * (1.0 + np.max(np.abs(best)))
        if not improved.any():  # argmax over the controls is the costly part
            return result, policy
        seen.add(policy.tobytes())
        policy = np.where(improved, np.argmax(values, axis=0), policy)
        if policy.tobytes() in seen:
            raise IterationError(f"policy cycle at sweep {sweep}: "
                                 f"{int(improved.sum())} switches repeat a policy")
    raise IterationError(f"policy iteration did not settle in {max_iter} sweeps")


def solve_nonlinear_cell(spec: BellmanSpec, M, grid: PeriodicGrid, tol=1e-10):
    """Ergodic constant and corrector of  max_beta Tr(a_beta(y)(M + D^2 w)) = c.

    Howard policy iteration: freeze the argmax control field, solve the
    linear cell problem (`cell_factor`), re-select controls; stops when the
    control field is stationary (at most MAX_CELL_SWEEPS sweeps) and the
    residual is below tol (1 + max|f|) + 64 u ||A||_inf max|chi|, normwise
    as in `solve_cell` (u the unit round-off). Returns (ErgodicSolution, policy).
    Controls must be pure second order (b = c = 0): the cell sees M alone.
    """
    M = np.asarray(M, dtype=float).reshape(spec.dim, spec.dim)
    M = 0.5 * (M + M.T)
    nodes = np.arange(grid.npoints)
    avals = spec.diffusions(grid.points())
    ops = [_diffusion_operator(a, grid) for a in avals]
    fs = np.einsum("knij,ji->kn", avals, M)  # (n_controls, N)

    def evaluate(policy):
        A = Weights(*select_weights(ops, policy), grid.shape, wrap=True)
        a = avals[policy, nodes].reshape(grid.shape + (grid.dim,) * 2)
        sol = solve_cell(A, fs[policy, nodes], grid, lu=cell_factor(a, A))
        values = np.array([op @ sol.chi.flat for op in ops]) + fs
        sol.residual = float(np.max(np.abs(values.max(axis=0) - sol.gamma)))
        return sol, values

    sol, policy = policy_iteration(evaluate, np.argmax(fs, axis=0), MAX_CELL_SWEEPS)
    norm = max((abs(op.stencil) @ np.ones(grid.npoints)).max() for op in ops)
    bound = tol * (1.0 + np.max(np.abs(fs))) + \
        64 * np.finfo(float).eps * norm * np.max(np.abs(sol.chi.values))
    if sol.residual > bound:
        raise IterationError(
            f"Howard iteration settled with Bellman residual {sol.residual:.3e} "
            f"above {bound:.3e}; gamma={sol.gamma:.12g}"
        )
    return sol, policy


def solve_concave_cell(envelope, grid: PeriodicGrid):
    """The M = -1 cell of a 1D `BellmanSpec.envelope()` a_min D^2: Howard's
    cell `solve_nonlinear_cell` at its optimal policy argmin a, bit for bit."""
    a = envelope.field.sample(grid.points())[0]
    return solve_cell(_diffusion_operator(a, grid), -a[:, 0, 0], grid,
                      lu=CellFactor1D(a[:, 0, 0]))
