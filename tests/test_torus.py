import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse.linalg as spla
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import null_space
from scipy.sparse.linalg import splu

import ergodica as eg
import ergodica.effective as effective_mod
import ergodica.torus as torus_mod
from ergodica.cli import build_problem
from ergodica.torus import (
    HOWARD_RTOL,
    CellFactor1D,
    FactoredOperator,
    KroneckerCellFactor,
    assemble_torus_diffusion,
    cell_factor,
    factor_cell,
    gradient_matrices,
    policy_iteration,
)
from ergodica.domain import properness_shift, shifted_m_matrix
from ergodica.stencils import Weights, select_weights
from referees import csr, csr_blocks, select_rows, thomas_solve


def bands(lower, diag, upper):
    """The weights of the tridiagonal matrix with row-aligned bands."""
    return Weights({(-1,): lower, (1,): upper}, diag, (len(diag),), wrap=False)


def harmonic_mean(a, lo=0.0, hi=1.0):
    return 1.0 / quad(lambda y: 1.0 / a(y), lo, hi, limit=200)[0]


class TestCellSolve1D:
    def test_harmonic_mean_gamma(self):
        # a(y) D^2 chi + a(y) = gamma has gamma = harmonic mean of a
        field = eg.sin_field_1d(delta=0.5)
        grid = eg.PeriodicGrid(1, 512)
        A = assemble_torus_diffusion(field, grid)
        avals = field.a(grid.points())[:, 0, 0]
        sol = eg.solve_cell(A, avals, grid=grid)
        exact = harmonic_mean(lambda y: 1 + 0.5 * np.sin(2 * np.pi * y))
        assert sol.gamma == pytest.approx(exact, abs=1e-10)
        assert sol.gamma == pytest.approx(np.sqrt(3) / 2, abs=1e-10)

    def test_gamma_is_weighted_mean_of_data(self):
        # for a D^2 chi + f = gamma: gamma = int(f/a) / int(1/a)
        field = eg.sin_field_1d(delta=0.4)
        grid = eg.PeriodicGrid(1, 512)
        A = assemble_torus_diffusion(field, grid)
        y = grid.points()[:, 0]
        f = 0.2 + 0.7 * np.cos(2 * np.pi * y) ** 2
        sol = eg.solve_cell(A, f, grid=grid)
        a = lambda t: 1 + 0.4 * np.sin(2 * np.pi * t)
        fa = quad(lambda t: (0.2 + 0.7 * np.cos(2 * np.pi * t) ** 2) / a(t),
                  0, 1, limit=200)[0]
        ia = quad(lambda t: 1.0 / a(t), 0, 1, limit=200)[0]
        assert sol.gamma == pytest.approx(fa / ia, abs=1e-9)

    def test_drift_data_has_zero_gamma(self):
        # f = b(y) = cos(2 pi y): integrand b/a is an exact derivative
        field = eg.sin_field_1d(delta=0.5, b_amp=1.0)
        grid = eg.PeriodicGrid(1, 512)
        A = assemble_torus_diffusion(field, grid)
        bvals = field.b(grid.points())[:, 0]
        sol = eg.solve_cell(A, bvals, grid=grid)
        assert abs(sol.gamma) < 1e-10

    def test_residual_and_normalizations(self):
        field = eg.sin_field_1d(delta=0.5)
        grid = eg.PeriodicGrid(1, 256)
        A = assemble_torus_diffusion(field, grid)
        f = field.a(grid.points())[:, 0, 0]
        anchored = eg.solve_cell(A, f, grid=grid)
        assert anchored.chi.flat[0] == pytest.approx(0.0, abs=1e-14)
        assert anchored.residual < 1e-10

    def test_constant_coefficient_zero_corrector(self):
        field = eg.constant_field(1, 1.7)
        grid = eg.PeriodicGrid(1, 128)
        A = assemble_torus_diffusion(field, grid)
        sol = eg.solve_cell(A, np.full(128, 1.7), grid=grid)
        assert sol.gamma == pytest.approx(1.7, abs=1e-13)
        assert np.max(np.abs(sol.chi.flat)) < 1e-12

    def test_dense_nullspace_oracle(self):
        # gamma from the left Perron vector of the discrete operator, n=32
        field = eg.sin_field_1d(delta=0.5)
        grid = eg.PeriodicGrid(1, 32)
        A = assemble_torus_diffusion(field, grid)
        f = field.a(grid.points())[:, 0, 0]
        sol = eg.solve_cell(A, f, grid=grid)
        left = null_space(csr(A).toarray().T)
        assert left.shape[1] == 1
        m = left[:, 0]
        gamma_oracle = (m @ f) / m.sum()
        assert sol.gamma == pytest.approx(gamma_oracle, abs=1e-11)

    def test_residual_check_catches_a_corrupted_chi(self):
        # the check scales with ||A||_inf max|chi|, the round-off scale of
        # A chi, yet a chi moved by 1e-5 of its size at one node still fails
        spec = build_problem("sin-abc")["spec"]
        grid = eg.PeriodicGrid(1, 32768)
        A = assemble_torus_diffusion(spec.field, grid)
        f = spec.field.sample(grid.points())[0][:, 0, 0]
        lu = cell_factor(f.reshape(grid.shape + (1, 1)), A)

        class Corrupted:
            def solve(self, B):
                X = lu.solve(B)
                X[grid.npoints // 3] += 1e-5 * np.max(np.abs(X[:-1]))
                return X

        assert eg.solve_cell(A, f, grid, lu=lu).residual < 1e-5
        with pytest.raises(eg.SolverError, match="cell solve residual"):
            eg.solve_cell(A, f, grid, lu=Corrupted())


class TestCellSolve2D:
    def test_separable_diagonal(self):
        # separable diagonal a: each chi^kk depends on y_k only; gamma_kk is
        # the 1D harmonic mean of the corresponding diagonal entry
        field = eg.separable_sin_field_2d(delta=0.5)
        grid = eg.PeriodicGrid(2, 64)
        A = assemble_torus_diffusion(field, grid)
        avals = field.a(grid.points())
        sol00 = eg.solve_cell(A, avals[:, 0, 0], grid=grid)
        sol11 = eg.solve_cell(A, avals[:, 1, 1], grid=grid)
        hm = harmonic_mean(lambda y: 1 + 0.5 * np.sin(2 * np.pi * y))
        assert sol00.gamma == pytest.approx(hm, abs=1e-5)
        assert sol11.gamma == pytest.approx(hm, abs=1e-5)

    def test_offdiagonal_data_integrates_cleanly(self):
        field = eg.separable_sin_field_2d(delta=0.5)
        grid = eg.PeriodicGrid(2, 48)
        A = assemble_torus_diffusion(field, grid)
        y = grid.points()
        f = np.sin(2 * np.pi * y[:, 0]) * np.sin(2 * np.pi * y[:, 1])
        sol = eg.solve_cell(A, f, grid=grid)
        assert sol.residual < 1e-9

    def test_cross_term_monotonicity_guard(self):
        # |a12| > min(a11, a22) breaks the 7-point monotone stencil
        bad = eg.constant_field(2, np.array([[1.0, 1.5], [1.5, 3.0]]))
        grid = eg.PeriodicGrid(2, 16)
        with pytest.raises(eg.AssemblyError):
            assemble_torus_diffusion(bad, grid)

    def test_admissible_cross_term(self):
        field = eg.constant_field(2, np.array([[2.0, 0.5], [0.5, 1.0]]))
        grid = eg.PeriodicGrid(2, 32)
        A = assemble_torus_diffusion(field, grid)
        sol = eg.solve_cell(A, np.full(32 * 32, 0.5), grid=grid)
        assert sol.gamma == pytest.approx(0.5, abs=1e-11)
        assert np.max(np.abs(sol.chi.flat)) < 1e-10


class TestFactoredOperator:
    @pytest.fixture()
    def system(self):
        rng = np.random.default_rng(3)
        field = eg.separable_sin_field_2d(delta=0.5)
        grid = eg.PeriodicGrid(2, 16)
        A = csr(assemble_torus_diffusion(field, grid))
        # nonsymmetric and nonsingular: shift the torus operator, add drift
        M = sparse.identity(grid.npoints) - A + sparse.random(
            grid.npoints, grid.npoints, density=0.01, random_state=rng)
        return M.tocsc(), rng.standard_normal((grid.npoints, 5))

    def test_batched_solve_equals_column_solves(self, system):
        M, B = system
        lu = FactoredOperator(M)
        X = lu.solve(B)
        for j in range(B.shape[1]):
            assert np.max(np.abs(X[:, j] - lu.solve(B[:, j]))) < 1e-13
        assert np.max(np.abs(M @ X - B)) < 1e-10

    def test_singular_matrix_raises_solver_error(self):
        singular = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(eg.SolverError):
            FactoredOperator(singular)

    @pytest.fixture()
    def splu_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        return calls

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_tridiagonal_matches_superlu(self, splu_calls, fmt):
        # 1D oscillatory Dirichlet operator with drift: tridiagonal,
        # nonsymmetric; its row-aligned weights hand lower[0] and upper[-1],
        # the boundary couplings, over too, and FactoredOperator drops them.
        # The same matrix in either sparse format goes to SuperLU instead.
        spec = build_problem("sin-abc")["spec"]
        L = eg.assemble_oscillatory(spec, 1 / 8, eg.DomainGrid.unit(1, 384))
        M = csr(L).asformat(fmt)
        n = M.shape[0]
        B = np.random.default_rng(5).standard_normal((n, 5))
        weights = [L.neighbours[(-1,)], L.diag, L.neighbours[(1,)]]
        before = [w.copy() for w in weights]
        lu = FactoredOperator(L)
        assert splu_calls == []
        assert all(map(np.array_equal, weights, before))
        ref = FactoredOperator(M)
        assert splu_calls == [(n, n)]
        norm = abs(M).sum(axis=1).max()
        for rhs in (B[:, 0], B):
            X = lu.solve(rhs)
            X_ref = ref.solve(rhs)
            assert X.shape == rhs.shape
            scale = norm * np.max(np.abs(X))
            assert np.max(np.abs(M @ X - rhs)) <= 64 * np.finfo(float).eps * scale
            assert np.max(np.abs(X - X_ref)) <= 1e-9 * np.max(np.abs(X_ref))

    def test_singular_tridiagonal_raises_solver_error(self, splu_calls):
        # a zero column: the eliminated row 2 has a zero pivot
        lower, diag, upper = np.full(6, -1.0), np.full(6, 2.0), np.full(6, -1.0)
        lower[3] = diag[2] = upper[1] = 0.0  # column 2
        with pytest.raises(eg.SolverError,
                           match="tridiagonal LU factorization failed"):
            FactoredOperator(bands(lower, diag, upper))
        assert splu_calls == []

    def test_nonfinite_tridiagonal_solve_names_tridiagonal_lu(self):
        lu = FactoredOperator(bands(np.full(6, -1.0), np.full(6, 2.0),
                                    np.full(6, -1.0)))
        rhs = np.zeros(6)
        rhs[2] = np.nan
        with pytest.raises(eg.SolverError,
                           match="tridiagonal LU solve produced nonfinite"):
            lu.solve(rhs)

    def test_band_solve_is_componentwise_accurate(self):
        # B = sI - L_h as stored, for the sin-abc row at eps = 1/16 on 4 096
        # cells: each component of B^-1 v, v > 0, is within 64 ceil(log2 n) u
        # of a long-double Thomas referee (cyclic reduction on the row sums:
        # 6.3e-15; LAPACK's gttrs: 6.9e-12)
        spec = build_problem("sin-abc")["spec"]
        op = eg.assemble_oscillatory(spec, 1 / 16, eg.DomainGrid.unit(1, 4096))
        B, ok, _ = shifted_m_matrix(op, properness_shift(op))
        v = np.random.default_rng(7).uniform(0.5, 1.5, len(B.diag))
        x = FactoredOperator(B).solve(v)
        ref = thomas_solve(B.neighbours[(-1,)], B.diag, B.neighbours[(1,)], v)
        bound = 64 * np.ceil(np.log2(len(v))) * np.finfo(float).eps / 2
        assert ok and np.max(np.abs(x - ref) / ref) <= bound

    @pytest.mark.parametrize("flaw", ["lower", "upper", "nan", "pivot"])
    def test_bands_that_are_not_an_m_matrix_raise(self, splu_calls, flaw):
        # an off-diagonal entry of the diagonal's sign, or a Laplacian
        # shifted below its smallest eigenvalue, whose reduced pivots are
        # not all positive: either sign of the bands is refused
        lower, diag, upper = np.full(7, -1.0), np.full(7, 2.5), np.full(7, -1.0)
        if flaw == "lower":
            lower[4] = 0.5
        elif flaw == "upper":
            upper[2] = 0.5
        elif flaw == "nan":
            lower[3] = np.nan
        else:
            diag[:] = 1.5  # smallest eigenvalue 1.5 - 2 cos(pi / 8) < 0
        for sign in (1.0, -1.0):
            with pytest.raises(eg.SolverError,
                               match="tridiagonal LU factorization failed"):
                FactoredOperator(bands(sign * lower, sign * diag,
                                       sign * upper))
        assert splu_calls == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 383, 4096])
    def test_band_block_solve_equals_column_solves(self, n):
        # an (n, k) block solves to its column solves, bit for bit, and each
        # solve returns a new array although the factor keeps work arrays
        rng = np.random.default_rng(n)
        lo, up = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        diag = lo + up + rng.uniform(0.01, 1.0, n)
        lu = FactoredOperator(bands(-lo, diag, -up))
        B = rng.standard_normal((n, 4))
        X = lu.solve(B)
        columns = [lu.solve(B[:, j]) for j in range(4)]
        assert X.shape == (n, 4)
        for j, x in enumerate(columns):
            np.testing.assert_array_equal(X[:, j], x)
        assert not np.shares_memory(columns[0], columns[1])
        np.testing.assert_array_equal(lu.solve(B[:, 0]), columns[0])
        M = np.diag(diag) - np.diag(lo[1:], -1) - np.diag(up[:-1], 1)
        assert np.max(np.abs(M @ X - B)) <= 1e-13 * np.max(np.abs(B))

    def test_band_factor_is_one_allocation(self):
        # a factor's coefficients and work array are one block, and a
        # vector solve allocates only its result: no other array of 128 KiB
        # or more is live at the end or, by the traced peak, along the way
        n = 65_535
        rng = np.random.default_rng(3)
        lo, up = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
        op = bands(-lo, lo + up + rng.uniform(0.01, 1.0, n), -up)
        v = rng.uniform(0.5, 1.5, n)

        def large_allocations(fn):
            tracemalloc.start()
            try:
                out = fn()
                snap = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            big = [t.size for t in snap.traces if t.size >= 128 * 1024]
            assert len(big) == 1 and peak < big[0] + 128 * 1024, (big, peak)
            return out, big[0]

        lu, size = large_allocations(lambda: FactoredOperator(op))
        f = lu._lu
        block = f._work.base
        assert block.nbytes == size
        views = [f._last, f._work,
                 *(a for level in f._levels for a in level if a.size)]
        assert all(np.shares_memory(a, block) for a in views)
        x, size = large_allocations(lambda: lu.solve(v))
        assert size == x.nbytes

    def test_periodic_and_augmented_matrices_use_superlu(self, splu_calls):
        # wrapped weights are not tridiagonal: I - A goes to SuperLU
        grid = eg.PeriodicGrid(1, 64)
        A = assemble_torus_diffusion(eg.sin_field_1d(delta=0.5), grid)
        b = np.ones(grid.npoints)
        shifted = Weights({o: -w for o, w in A.neighbours.items()},
                          1.0 - A.diag, A.shape, wrap=True)
        x = FactoredOperator(shifted).solve(b)
        assert np.max(np.abs(x - A @ x - b)) < 1e-10
        factor_cell(A)
        assert splu_calls == [(64, 64), (65, 65)]

    def test_superlu_gets_the_referee_csr(self, monkeypatch):
        # what SuperLU factors, array for array: the shifted 2D eigen matrix
        # (its nonzero entries), a 2D pivot operator L_eps (every stored
        # weight, the zero diagonal neighbours of the cross term included)
        # and the augmented matrix of a non-separable cell, each written by
        # the referee from the same weights
        seen, real = [], spla.splu

        def recorded(matrix, *args, **kwargs):
            seen.append(matrix)
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", recorded)
        field = eg.constant_field(2, [[1.0, 0.3], [0.3, 0.8]], b0=[0.5, -0.2])
        g = eg.DomainGrid.unit(2, 12)
        op = eg.assemble_linear(g, *field.sample(g.points()))
        eg.principal_eigenpair(op)
        eg.dirichlet_solve(op, -np.ones(len(g.interior_index())))
        tg = eg.PeriodicGrid(2, 8)
        A = assemble_torus_diffusion(field, tg)
        factor_cell(A)
        s = properness_shift(op)
        B = (sparse.identity(csr(op).shape[0]) * s - csr(op)).tocsr()
        B.eliminate_zeros()
        N = tg.npoints
        aug = sparse.bmat([[csr(A), -np.ones((N, 1))],
                           [np.full((1, N), 1.0 / N), None]])
        assert np.any(csr(op).data == 0) and np.any(csr(A).data == 0)
        for got, want in zip(seen, (B, csr(op), aug), strict=True):
            want = sparse.csc_matrix(want)
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_gamma_is_invariant_measure_average(self, dim, n):
        # A = diag(a) D^2 has A^T mu = 0 for mu ~ 1/a in 1D, mu_0 (x) mu_1
        # with mu_k ~ 1/a_k in separable 2D; the ergodic constant is mu . f
        field = eg.sin_field_1d(delta=0.5) if dim == 1 else \
            eg.separable_sin_field_2d(delta=0.5)
        grid = eg.PeriodicGrid(dim, n)
        A = assemble_torus_diffusion(field, grid)
        a = field.sample(grid.points())[0].reshape(grid.shape + (dim, dim))
        if dim == 1:
            mu = 1 / a[:, 0, 0]
        else:
            mu = np.outer(1 / a[:, 0, 0, 0], 1 / a[0, :, 1, 1]).ravel()
        mu /= mu.sum()
        M = csr(A)
        assert np.max(np.abs(M.T @ mu)) < 1e-10 * np.max(np.abs(M))
        F = np.random.default_rng(7).standard_normal((grid.npoints, 4))
        for lu in (cell_factor(a, A), factor_cell(A)):
            sols = eg.solve_cell(A, F, grid=grid, lu=lu)
            for j, sol in enumerate(sols):
                assert sol.gamma == pytest.approx(mu @ F[:, j], abs=1e-12)
                single = eg.solve_cell(A, F[:, j], grid=grid, lu=lu)
                assert sol.gamma == pytest.approx(single.gamma, abs=1e-13)
                assert np.max(np.abs(sol.chi.flat - single.chi.flat)) < 1e-12


def sampled_field(a, b=None, c=None):
    """1D field that takes the samples a, b, c (default 0) on the n-point
    torus grid, n = len(a)."""
    n = len(a)
    b = np.zeros(n) if b is None else b
    c = np.zeros(n) if c is None else c
    node = lambda pts: np.rint(pts[:, 0] * n).astype(int) % n
    return eg.CoefficientField(1, lambda p: a[node(p)][:, None, None],
                               lambda p: b[node(p)][:, None],
                               lambda p: c[node(p)])


def positive_samples(seed, n, lo, ratio):
    return np.random.default_rng(seed).uniform(lo, lo * ratio, n)


class TestCellFactor1D:
    def test_augmented_solve_matches_superlu(self):
        # the contract of FactoredOperator.solve on the augmented matrix,
        # a nonzero constraint row (the mean of v) and a single vector included
        field = eg.sin_field_1d(delta=0.5)
        grid = eg.PeriodicGrid(1, 64)
        A = assemble_torus_diffusion(field, grid)
        B = np.random.default_rng(11).standard_normal((grid.npoints + 1, 3))
        fd = CellFactor1D(field.sample(grid.points())[0][:, 0, 0])
        ref = factor_cell(A)
        for rhs in (B, B[:, 0]):
            X = fd.solve(rhs)
            assert X.shape == rhs.shape
            assert np.max(np.abs(X - ref.solve(rhs))) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_degenerate_coefficient_raises(self, bad):
        a = np.ones(8)
        a[3] = bad
        with pytest.raises(eg.SolverError, match="1D cell"):
            CellFactor1D(a)

    def test_nonfinite_solve_raises(self):
        rhs = np.zeros((9, 2))
        rhs[5, 1] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(eg.SolverError, match="nonfinite"):
            CellFactor1D(np.ones(8)).solve(rhs)

    def test_cell_factor_picks_by_samples(self, monkeypatch):
        splu_orders = []
        real = spla.splu

        def counted(matrix, *args, **kwargs):
            splu_orders.append(matrix.shape[0])
            return real(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        for field, dim, kind in (
                (eg.sin_field_1d(), 1, CellFactor1D),
                (eg.separable_sin_field_2d(), 2, KroneckerCellFactor),
                (eg.constant_field(2, [[2.0, 0.5], [0.5, 1.0]]), 2, FactoredOperator)):
            grid = eg.PeriodicGrid(dim, 8)
            a = field.sample(grid.points())[0].reshape(grid.shape + (dim, dim))
            lu = cell_factor(a, assemble_torus_diffusion(field, grid))
            assert type(lu) is kind
        assert splu_orders == [65]


def superlu_cells(monkeypatch):
    """Route every cell_factor to SuperLU's factor_cell, the reference."""
    for module in (torus_mod, effective_mod):
        monkeypatch.setattr(module, "cell_factor", lambda a, a_op: factor_cell(a_op))


# random admissible 1D samples: a in [lo, lo * ratio], one sample per node
SAMPLES = dict(seed=st.integers(0, 2 ** 32 - 1), lo=st.floats(0.2, 2.0),
               ratio=st.floats(1.0, 5.0))


@pytest.mark.parametrize("n", [64, 512])
class TestClosedFormCellProperties:
    @given(**SAMPLES)
    @settings(max_examples=15, deadline=None)
    def test_corrector_set_matches_superlu(self, n, seed, lo, ratio):
        # every gamma and anchored chi of both rounds
        rng = np.random.default_rng(seed + 1)
        spec = eg.LinearOperatorSpec(sampled_field(
            positive_samples(seed, n, lo, ratio), rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n)), lo, lo * ratio, c1=1.0)
        grid = eg.PeriodicGrid(1, n)
        new = eg.build_corrector_set(spec, grid)
        with pytest.MonkeyPatch.context() as mp:
            superlu_cells(mp)
            ref = eg.build_corrector_set(spec, grid)
        sols = lambda c: [*c.chi.values(), *c.eta, c.nu, *c.chi3.values(),
                          *c.eta2.values(), *c.nu1, c.xi]
        for x, y in zip(sols(new), sols(ref), strict=True):
            assert abs(x.gamma - y.gamma) <= 1e-12
            assert x.chi.flat[0] == 0.0
            assert np.max(np.abs(x.chi.flat - y.chi.flat)) <= 1e-12

    @given(**SAMPLES, controls=st.integers(1, 3),
           m=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1))
    @settings(max_examples=15, deadline=None)
    def test_bellman_cell_matches_superlu_howard(self, n, seed, lo, ratio,
                                                 controls, m):
        grid = eg.PeriodicGrid(1, n)
        a = [positive_samples(seed + k, n, lo, ratio) for k in range(controls)]
        bs = eg.BellmanSpec([eg.LinearOperatorSpec(sampled_field(a_k), lo,
                                                   lo * ratio) for a_k in a])
        sol, policy = eg.solve_nonlinear_cell(bs, [[m]], grid)
        with pytest.MonkeyPatch.context() as mp:
            superlu_cells(mp)
            ref, ref_policy = eg.solve_nonlinear_cell(bs, [[m]], grid)
        assert abs(sol.gamma - ref.gamma) <= 1e-12
        assert np.array_equal(policy, ref_policy)
        # in 1D the first policy, argmax_k a_k m, is already optimal
        assert np.array_equal(policy, np.argmax(np.array(a) * m, axis=0))

    @given(**SAMPLES, t=st.floats(0.01, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_bellman_map_homogeneous_and_convex(self, n, seed, lo, ratio, t):
        # F_bar(t M) = t F_bar(M) for t > 0, and gamma_+ + gamma_- >= 0
        grid = eg.PeriodicGrid(1, n)
        bs = eg.BellmanSpec([eg.LinearOperatorSpec(sampled_field(
            positive_samples(seed + k, n, lo, ratio)), lo, lo * ratio)
            for k in range(2)])
        gamma = {m: eg.solve_nonlinear_cell(bs, [[m]], grid)[0].gamma
                 for m in (1.0, -1.0, t, -t)}
        for s in (1.0, -1.0):
            assert gamma[s * t] == pytest.approx(t * gamma[s], rel=1e-12,
                                                 abs=1e-12)
        assert gamma[1.0] + gamma[-1.0] >= -1e-12


class TestNonlinearCell:
    def test_constant_controls_pick_max(self):
        # constant a's: ergodic constant of max(a_beta * (M + w'')) is
        # max(a_beta * M) with w = 0
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        grid = eg.PeriodicGrid(1, 64)
        sol, policy = eg.solve_nonlinear_cell(bs, np.array([[1.0]]), grid)
        assert sol.gamma == pytest.approx(2.0, abs=1e-11)
        assert set(policy.tolist()) == {1}
        sol, policy = eg.solve_nonlinear_cell(bs, np.array([[-1.0]]), grid)
        assert sol.gamma == pytest.approx(-1.0, abs=1e-11)
        assert set(policy.tolist()) == {0}

    def test_gamma_dominates_each_frozen_policy(self):
        # the optimal ergodic constant is the max over fixed controls
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        grid = eg.PeriodicGrid(1, 256)
        sol, _ = eg.solve_nonlinear_cell(bs, np.array([[1.0]]), grid)
        for ctl in bs.controls:
            A = assemble_torus_diffusion(ctl.field, grid)
            f = ctl.field.a(grid.points())[:, 0, 0]
            frozen = eg.solve_cell(A, f, grid=grid)
            assert sol.gamma >= frozen.gamma - 1e-9

    def test_positive_homogeneity(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        grid = eg.PeriodicGrid(1, 256)
        g1, _ = eg.solve_nonlinear_cell(bs, np.array([[1.0]]), grid)
        g3, _ = eg.solve_nonlinear_cell(bs, np.array([[3.0]]), grid)
        assert g3.gamma == pytest.approx(3.0 * g1.gamma, abs=1e-8)

    def test_residual_within_tolerance(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        grid = eg.PeriodicGrid(1, 256)
        sol, _ = eg.solve_nonlinear_cell(bs, np.array([[1.0]]), grid, tol=1e-10)
        assert sol.residual <= 1e-10

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # the policy settles, but a chi corrupted by 1e-12 at one node leaves
        # a Bellman residual of ~6e-7 against a normwise bound of ~3e-10
        bs = build_problem("bellman-2ctl-1d")["spec"]
        real = torus_mod.solve_cell

        def corrupted(*args, **kwargs):
            sol = real(*args, **kwargs)
            sol.chi.values[5] += 1e-12
            return sol

        monkeypatch.setattr(torus_mod, "solve_cell", corrupted)
        with pytest.raises(eg.IterationError, match="Bellman residual"):
            eg.solve_nonlinear_cell(bs, np.array([[1.0]]), eg.PeriodicGrid(1, 512))

    @pytest.mark.parametrize("b_amp,c0", [(0.3, 0.0), (0.0, 0.5), (0.3, 0.5)])
    def test_drift_or_zeroth_order_control_refused(self, b_amp, c0):
        # the cell sees M alone: a drift or zeroth-order term of a control
        # was dropped, so lambda_bar came out the same for c0 = 0 and 0.5
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5, b_amp=b_amp, c0=c0),
                                  0.5, 1.5, c1=0.5),
        ])
        for M in ([[1.0]], [[-1.0]]):
            with pytest.raises(eg.InputError, match="control 1 has a drift"):
                eg.solve_nonlinear_cell(bs, M, eg.PeriodicGrid(1, 64))
        # the sweep's envelope cell reads the same check
        with pytest.raises(eg.InputError, match="control 1 has a drift"):
            torus_mod.solve_concave_cell(bs.envelope(), eg.PeriodicGrid(1, 64))

    @pytest.mark.parametrize("n", [16384, 65536])
    def test_fine_cells_settle(self, n):
        # the Bellman residual is round-off in ||A|| max|chi|, ||A|| ~ n^2:
        # 2.4e-9 at 16 384 cells, above an absolute 2.5e-10, once refused
        spec = build_problem("bellman-2ctl-1d")["spec"]
        gamma = {s: eg.solve_nonlinear_cell(spec, [[s]], eg.PeriodicGrid(1, n))[0]
                 .gamma for s in (1.0, -1.0)}
        assert gamma[1.0] == pytest.approx(1.2634753589, abs=1e-9)
        assert gamma[-1.0] == pytest.approx(-0.8357248147, abs=1e-9)

    def test_2d_cell_of_separable_controls(self, monkeypatch):
        # separable controls, frozen by their weights and factored in
        # closed form; the reference factors every frozen cell by SuperLU
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(2, np.diag([1.2, 0.9])),
                                  0.5, 1.5)])
        grid = eg.PeriodicGrid(2, 16)
        M = [[1.0, 0.0], [0.0, -0.5]]
        sol, policy = eg.solve_nonlinear_cell(bs, M, grid)
        monkeypatch.setattr(torus_mod, "separable_by_axis", lambda a: False)
        ref, ref_policy = eg.solve_nonlinear_cell(bs, M, grid)
        assert abs(sol.gamma - ref.gamma) <= 1e-12
        assert np.array_equal(policy, ref_policy)
        assert len(np.unique(policy)) == 2


class TestPolicyIteration:
    # synthetic problems on 3 nodes x 2 controls: evaluate returns fixed
    # control values, so only the driver's policy logic is exercised

    def test_ties_keep_incumbent(self):
        # the switch threshold is HOWARD_RTOL * (1 + max|best|) ~ 2 HOWARD_RTOL;
        # control 1 ties at node 0, is ahead by less than the threshold at
        # node 1, and clearly ahead at node 2
        values = np.array([[1.0, 1.0, 0.0],
                           [1.0, 1.0 + HOWARD_RTOL, 1.0]])
        seen = []

        def evaluate(policy):
            seen.append(policy.tolist())
            return "solution", values

        result, policy = policy_iteration(evaluate, np.zeros(3, dtype=int), 5)
        assert result == "solution"
        assert policy.tolist() == [0, 0, 1]
        assert seen == [[0, 0, 0], [0, 0, 1]]

    def test_two_cycle_raises(self):
        def evaluate(policy):
            # the control not in use always looks better
            values = np.zeros((2, 3))
            values[1 - policy, np.arange(3)] = 1.0
            return None, values

        with pytest.raises(eg.IterationError, match="cycle"):
            policy_iteration(evaluate, np.zeros(3, dtype=int), 10)

    def test_max_iter_exhausted_raises(self):
        def evaluate(policy):
            # only the first node still on control 0 gains by switching, so
            # the policy walks 000 -> 100 -> 110 -> 111 and settles there
            values = np.zeros((2, 3))
            if (policy == 0).any():
                values[1, np.argmin(policy)] = 1.0
            return None, values

        with pytest.raises(eg.IterationError, match="did not settle in 3"):
            policy_iteration(evaluate, np.zeros(3, dtype=int), 3)
        _, policy = policy_iteration(evaluate, np.zeros(3, dtype=int), 4)
        assert policy.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("case", ["random", "dirichlet"])
    def test_select_rows(self, case):
        # the weights that `select_weights` gathers, written as CSR by the
        # referee, hold row i of the CSR of ops[policy[i]]: its nonzero
        # entries, in order (a control without an offset weighs 0 there)
        if case == "random":
            # two controls on a 4 x 4 torus, the second with the diagonal
            # neighbours and the first without
            rng = np.random.default_rng(3)
            axis = [(1, 0), (-1, 0), (0, 1), (0, -1)]
            ops = [Weights({o: rng.uniform(0.5, 1.0, 16) for o in offsets},
                           rng.uniform(-8.0, -4.0, 16), (4, 4), wrap=True)
                   for offsets in (axis, axis + [(1, 1), (-1, -1), (1, -1),
                                                 (-1, 1)])]
            policy = rng.integers(0, 2, 16)
            blocks = [[csr(op) for op in ops]]
            frozen = [csr(Weights(*select_weights(ops, policy), (4, 4),
                                  wrap=True))]
        else:
            # the interior and boundary blocks of three Dirichlet controls;
            # the policy never picks control 1
            spec = eg.BellmanSpec([
                eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5, b_amp=1.0),
                                      0.5, 1.5),
                eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
                eg.LinearOperatorSpec(eg.constant_field(1, 0.8, b0=-2.0),
                                      0.5, 1.5),
            ])
            grid = eg.DomainGrid.unit(1, 16)
            ops = eg.bellman_operators(spec, 1 / 4, grid)
            policy = np.array([0, 2] * 7 + [2])
            blocks = [[csr_blocks(op)[k] for op in ops] for k in (0, 1)]
            frozen = csr_blocks(eg.DiscreteOperator(
                *select_weights(ops, policy), grid))
        for mats, got in zip(blocks, frozen, strict=True):
            got.eliminate_zeros()
            data, indices, counts = [], [], [0]
            for i, beta in enumerate(policy):
                m = mats[beta]
                row = slice(m.indptr[i], m.indptr[i + 1])
                stored = m.data[row] != 0
                data.append(m.data[row][stored])
                indices.append(m.indices[row][stored])
                counts.append(stored.sum())
            assert np.array_equal(got.data, np.concatenate(data))
            assert np.array_equal(got.indices, np.concatenate(indices))
            assert np.array_equal(got.indptr, np.cumsum(counts))
            ref = select_rows(mats, policy)
            ref.eliminate_zeros()
            assert (got != ref).nnz == 0


class TestKroneckerCellFactor:
    @staticmethod
    def samples(field, grid):
        return field.sample(grid.points())[0].reshape(grid.shape + (2, 2))

    @staticmethod
    def diagonal(a0, a1):
        a = np.zeros((len(a0), len(a1), 2, 2))
        a[..., 0, 0], a[..., 1, 1] = a0[:, None], a1
        return a

    def test_augmented_solve_matches_superlu(self):
        # the contract of FactoredOperator.solve on the augmented matrix,
        # a nonzero constraint row (the mean of v) and a single vector included
        field = eg.separable_sin_field_2d(delta=0.5)
        grid = eg.PeriodicGrid(2, 16)
        A = assemble_torus_diffusion(field, grid)
        B = np.random.default_rng(11).standard_normal((grid.npoints + 1, 3))
        fd = KroneckerCellFactor(self.samples(field, grid))
        ref = factor_cell(A)
        for rhs in (B, B[:, 0]):
            X = fd.solve(rhs)
            assert X.shape == rhs.shape
            assert np.max(np.abs(X - ref.solve(rhs))) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, np.inf])
    def test_degenerate_axis_coefficient_raises(self, bad):
        grid = eg.PeriodicGrid(2, 8)
        a1 = np.ones(8)
        a1[3] = bad
        with pytest.raises(eg.SolverError, match="axis 1"):
            KroneckerCellFactor(self.diagonal(np.ones(8), a1))

    def test_nonfinite_solve_raises(self):
        # solve_cell's residual test lets NaN through; the factor must not
        grid = eg.PeriodicGrid(2, 8)
        fd = KroneckerCellFactor(self.diagonal(np.ones(8), np.full(8, 2.0)))
        rhs = np.zeros((grid.npoints + 1, 2))
        rhs[5, 1] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(eg.SolverError, match="nonfinite"):
            fd.solve(rhs)


class TestGrids:
    def test_points_layout(self):
        g1 = eg.PeriodicGrid(1, 8)
        assert g1.points().shape == (8, 1)
        assert g1.points()[1, 0] == pytest.approx(1 / 8)
        g2 = eg.PeriodicGrid(2, 4)
        pts = g2.points()
        assert pts.shape == (16, 2)
        # row-major: second point advances the last axis
        assert np.allclose(pts[1], [0.0, 0.25])

    def test_gradient_matrices_accuracy(self):
        g = eg.PeriodicGrid(2, 64)
        D = gradient_matrices(g)
        pts = g.points()
        f = np.sin(2 * np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
        d0 = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
        d1 = -2 * np.pi * np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
        assert np.max(np.abs(D[0] @ f - d0)) < 1e-4
        assert np.max(np.abs(D[1] @ f - d1)) < 1e-4
