import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import ergodica as eg
from ergodica.domain import assemble_linear
from ergodica.torus import assemble_torus_diffusion, gradient_matrices
from ergodica.stencils import (
    bounded_diff_matrix,
    fd_weights,
    periodic_diff_matrix,
    separable_by_axis,
    stencil_weights,
)
from referees import csr, csr_blocks, monotone_stencil, stencil_matrix


class TestFdWeights:
    def test_centered_second_derivative(self):
        w = fd_weights([-1.0, 0.0, 1.0], 0.0, 2)
        assert np.allclose(w, [1.0, -2.0, 1.0])

    def test_centered_first_derivative_fourth_order(self):
        w = fd_weights([-2.0, -1.0, 0.0, 1.0, 2.0], 0.0, 1)
        assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12])

    def test_exact_on_polynomials(self):
        nodes = np.array([0.0, 0.3, 1.1, 1.7, 2.0])
        w = fd_weights(nodes, 0.9, 2)
        for k in range(len(nodes)):
            # d^2/dx^2 x^k at 0.9
            exact = k * (k - 1) * 0.9 ** (k - 2) if k >= 2 else 0.0
            assert w @ nodes ** k == pytest.approx(exact, abs=1e-10)


class TestPeriodicDiff:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trig_accuracy(self, m):
        n = 128
        h = 1.0 / n
        y = np.arange(n) * h
        D = periodic_diff_matrix(n, h, m)
        f = np.sin(2 * np.pi * y)
        exact = (2 * np.pi) ** m * np.sin(2 * np.pi * y + m * np.pi / 2)
        assert np.max(np.abs(D @ f - exact)) < 1e-4

    def test_annihilates_constants(self):
        D = periodic_diff_matrix(64, 1 / 64, 1)
        assert np.max(np.abs(D @ np.ones(64))) < 1e-12

    def test_fourth_order_refinement(self):
        errs = []
        for n in (32, 64):
            h = 1.0 / n
            y = np.arange(n) * h
            D = periodic_diff_matrix(n, h, 1)
            f = np.exp(np.sin(2 * np.pi * y))
            exact = 2 * np.pi * np.cos(2 * np.pi * y) * f
            errs.append(np.max(np.abs(D @ f - exact)))
        assert errs[0] / errs[1] > 12  # ~2^4


class TestBoundedDiff:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_smooth_accuracy(self, m):
        n = 512
        h = 1.0 / n
        x = np.arange(n + 1) * h
        D = bounded_diff_matrix(n + 1, h, m)
        f = np.sin(np.pi * x)
        exact = np.pi ** m * np.sin(np.pi * x + m * np.pi / 2)
        tol = {1: 1e-6, 2: 1e-4, 3: 1e-2}[m]
        assert np.max(np.abs(D @ f - exact)) < tol

    def test_first_derivative_spec_example(self):
        # sin(pi x) on n=512: max error of d/dx <= 1e-6 including boundary rows
        n = 512
        x = np.arange(n + 1) / n
        D = bounded_diff_matrix(n + 1, 1.0 / n, 1)
        err = np.max(np.abs(D @ np.sin(np.pi * x) - np.pi * np.cos(np.pi * x)))
        assert err <= 1e-6

    def test_exact_on_cubics(self):
        n = 16
        x = np.arange(n + 1) / n
        D = bounded_diff_matrix(n + 1, 1.0 / n, 1)
        f = 2 * x ** 3 - x ** 2 + 4 * x - 1
        exact = 6 * x ** 2 - 2 * x + 4
        assert np.max(np.abs(D @ f - exact)) < 1e-10


def _reference_csr(n, h, m, periodic):
    """The difference matrix as CSR, entry by entry from fd_weights: 5- or
    7-point centred rows, and at the edges wrapped rows (periodic, zero
    weights left out) or one-sided rows of m + 4 points."""
    half = 2 if m <= 2 else 3
    offsets = np.arange(-half, half + 1)
    w = fd_weights(offsets * h, 0.0, m)
    rows, cols, vals = [], [], []
    for i in range(n):
        if periodic:
            pts, wi = (i + offsets[w != 0]) % n, w[w != 0]
        elif half <= i < n - half:
            pts, wi = i + offsets, w
        else:
            pts = np.arange(m + 4) + (0 if i < half else n - m - 4)
            wi = fd_weights((pts - i) * h, 0.0, m)
        rows += [i] * len(pts)
        cols += list(pts)
        vals += list(wi)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


class TestStencilIsTheCSRProduct:
    """`Stencil` products sum each row in CSR's order, ascending column, so
    they equal the CSR products bit for bit, wrapped rows included."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("periodic,n", [
        (True, 4), (True, 5), (True, 6), (True, 9), (True, 40),
        (False, 7), (False, 9), (False, 40)])
    def test_difference_operators(self, m, periodic, n):
        if n < m + 4 and not periodic:
            pytest.skip("grid too coarse for a one-sided stencil")
        h = 1.0 / n
        ref = _reference_csr(n, h, m, periodic)
        D = (periodic_diff_matrix if periodic else bounded_diff_matrix)(n, h, m)
        rng = np.random.default_rng(n + 10 * m)
        for x in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            np.testing.assert_array_equal(D @ x, ref @ x)
        got = stencil_matrix(D)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_gradients_apply_per_axis(self):
        # 2D gradients act along one axis of flat functions, as the
        # Kronecker products with the identity did
        g = eg.PeriodicGrid(2, 12)
        D = _reference_csr(g.n, g.h, 1, periodic=True)
        eye = sparse.identity(g.n, format="csr")
        F = np.random.default_rng(3).standard_normal((g.npoints, 2))
        for G, ref in zip(gradient_matrices(g), (sparse.kron(D, eye),
                                                    sparse.kron(eye, D))):
            np.testing.assert_array_equal(G @ F, ref.tocsr() @ F)
            np.testing.assert_array_equal(G @ F[:, 0], ref.tocsr() @ F[:, 0])

    @pytest.mark.parametrize("field", [
        eg.sin_field_1d(delta=0.5), eg.separable_sin_field_2d(delta=0.5),
        eg.constant_field(2, [[1.0, -0.4], [-0.4, 0.7]])],
        ids=["bands-1d", "separable-2d", "cross-2d"])
    def test_torus_operators(self, field):
        # the Stencil sliced out of the wrapped weights, 1D or 2D, with or
        # without a cross term; the reference is the referee's CSR of the
        # same rows, which the package's own CSR must equal array for array
        tg = eg.PeriodicGrid(field.dim, 12)
        N = tg.npoints
        A = assemble_torus_diffusion(field, tg)
        ref = monotone_stencil(field.sample(tg.points())[0],
                               np.zeros((N, tg.dim)), np.zeros(N),
                               (tg.h,) * tg.dim, tg.shape, np.arange(N),
                               wrap=True)
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(N), rng.standard_normal((N, 3))):
            np.testing.assert_array_equal(A @ x, ref @ x)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(A.csr(), name),
                                          getattr(ref, name))
        np.testing.assert_array_equal(abs(A.stencil) @ np.ones(N),
                                      abs(ref) @ np.ones(N))


def test_import_loads_no_ndimage_or_special():
    # every ergodica invocation pays for what `import ergodica` loads
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ergodica; print(sorted(m for m in sys.modules "
         "if m.split('.')[:2] in (['scipy', 'ndimage'], ['scipy', 'special'])))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _stencil(row, nodes, center, shape):
    """{neighbour offset: value} of a one-row CSR matrix whose column j is
    grid node nodes[j]; offsets are taken mod shape, so wrapped ones read
    as -1 or 1."""
    out = {}
    for j, v in zip(row.indices, row.data):
        diff = np.array(np.unravel_index(nodes[j], shape)) - center
        out[tuple((diff + 1) % np.array(shape) - 1)] = v
    return out


@pytest.mark.parametrize("case,verdict", [
    ("sep-2d", True), ("constant-scalar", True), ("cross-term", False),
    ("a11-on-y2", False), ("c-on-y2", False)])
def test_separable_by_axis_verdicts(case, verdict):
    # the one predicate behind both Kronecker paths: the Dirichlet
    # eigenproblem (a, b and c) and the torus cell (a alone)
    grid = eg.PeriodicGrid(2, 8)
    pts = grid.points()
    field = eg.constant_field(2, 1.3, b0=[0.4, -0.2], c0=0.1) \
        if case == "constant-scalar" else eg.separable_sin_field_2d(delta=0.5)
    av, bv, cv = field.sample(pts)
    y2 = np.sin(2 * np.pi * pts[:, 1])
    if case == "cross-term":
        av[:, 0, 1] = av[:, 1, 0] = 0.2
    elif case == "a11-on-y2":
        av[:, 0, 0] += 0.1 * y2
    elif case == "c-on-y2":
        cv = cv + 0.3 * y2
    a = av.reshape(grid.shape + (2, 2))
    b = bv.reshape(grid.shape + (2,))
    c = cv.reshape(grid.shape)
    assert separable_by_axis(a, (b[..., 0], c), (b[..., 1],)) == verdict
    assert separable_by_axis(a) == (verdict or case == "c-on-y2")


class TestMonotoneStencil:
    @pytest.mark.parametrize("field", [
        eg.sin_field_1d(delta=0.5),
        eg.constant_field(2, np.array([[2.0, 0.5], [0.5, 1.0]])),
    ], ids=["sin-1d", "cross-2d"])
    def test_torus_and_dirichlet_rows_agree(self, field):
        # both assemblers go through one stencil: with b = c = 0 and the
        # same h, every interior Dirichlet row is the torus row at that node
        n, dim = 16, field.dim
        tg = eg.PeriodicGrid(dim, n)
        A = csr(assemble_torus_diffusion(field, tg))
        g = eg.DomainGrid.unit(dim, n)
        N = int(np.prod(g.shape))
        op = assemble_linear(g, field.sample(g.points())[0],
                             np.zeros((N, dim)), np.zeros(N))
        full = sparse.hstack(csr_blocks(op)).tocsr()
        nodes = np.concatenate([g.interior_index(), g.boundary_index()])
        for r, node in enumerate(g.interior_index()):
            center = np.array(np.unravel_index(node, g.shape))
            dirichlet = _stencil(full[r], nodes, center, g.shape)
            torus = _stencil(A[np.ravel_multi_index(center, tg.shape)],
                             np.arange(tg.npoints), center, tg.shape)
            assert dirichlet.keys() == torus.keys()
            for off, v in torus.items():
                assert dirichlet[off] == pytest.approx(v, rel=1e-12, abs=1e-9)

    def test_pattern_rule_2d(self):
        # the torus keeps the diagonal neighbours as explicit zeros when
        # a12 = 0; the Dirichlet operator stores only the 5-point stencil
        field = eg.separable_sin_field_2d(delta=0.5)
        tg = eg.PeriodicGrid(2, 16)
        A = assemble_torus_diffusion(field, tg)
        assert len(A.neighbours) == 8
        assert np.all(np.diff(A.csr().indptr) == 9)
        spec = eg.LinearOperatorSpec(field, 0.5, 1.5)
        op = eg.assemble_oscillatory(spec, 0.25, eg.DomainGrid.unit(2, 16))
        assert sorted(op.neighbours) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        matrix, boundary = csr_blocks(op)
        per_row = np.diff(matrix.indptr) + np.diff(boundary.indptr)
        assert np.all(per_row == 5)

    def test_negative_diffusion_rejected_on_torus(self):
        # the off-diagonal check covers wrapped rows too
        n = 8
        with pytest.raises(eg.AssemblyError, match="negative off-diagonal"):
            stencil_weights(np.full((n, 1, 1), -1.0), np.zeros((n, 1)),
                            np.zeros(n), (1.0 / n,), (n,), np.arange(n),
                            wrap=True)
