import numpy as np
import pytest
from scipy import sparse

import ergodica as eg
from ergodica.cli import build_problem
from ergodica.domain import assemble_linear, shifted_m_matrix


def linear_op(field, grid):
    avals, bvals, cvals = field.sample(grid.points())
    return assemble_linear(grid, avals, bvals, cvals)


class TestGrid:
    def test_unit_1d_layout(self):
        g = eg.DomainGrid.unit(1, 8)
        assert g.shape == (9,)
        assert len(g.interior_index()) == 7
        assert len(g.boundary_index()) == 2
        assert g.points()[0, 0] == 0.0 and g.points()[-1, 0] == 1.0

    def test_unit_2d_layout(self):
        g = eg.DomainGrid.unit(2, 4)
        assert g.shape == (5, 5)
        assert len(g.interior_index()) == 9
        assert len(g.boundary_index()) == 25 - 9

    def test_restrict_embed_round_trip(self):
        g = eg.DomainGrid.unit(2, 6)
        vals = np.arange(np.prod(g.shape), dtype=float).reshape(g.shape)
        flat = g.restrict(vals)
        back = g.embed(flat)
        assert np.allclose(g.restrict(back), flat)
        assert back[0, 0] == 0.0  # boundary zeroed

    def test_trapezoid_weights(self):
        g = eg.DomainGrid.unit(1, 100)
        w = g.inner_weights()
        assert np.sum(w) == pytest.approx(1.0)
        x = g.points()[:, 0]
        # integral of sin(pi x) over (0,1) = 2/pi
        assert np.sum(w * np.sin(np.pi * x)) == pytest.approx(2 / np.pi,
                                                              abs=1e-4)


class TestAssembly:
    def test_laplacian_matches_textbook_stencil(self):
        g = eg.DomainGrid.unit(1, 4)
        op = linear_op(eg.constant_field(1, 1.0), g)
        h2 = 16.0
        expect = h2 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
        assert np.allclose(op.matrix.toarray(), expect)

    def test_m_matrix_structure(self):
        field = eg.sin_field_1d(delta=0.5, b_amp=1.0, c0=0.2, c_amp=0.4)
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(field, g)
        ok, info = eg.is_monotone(op, eg.properness_shift(op))
        assert ok, info

    @pytest.mark.parametrize("problem,dim", [("sin-abc", 1), ("sep-2d", 2)])
    @pytest.mark.parametrize("defect", [None, "negative_offdiag"])
    def test_shifted_matrix_is_the_sparse_difference(self, problem, dim,
                                                     defect):
        spec = build_problem(problem)["spec"]
        g = eg.DomainGrid.unit(dim, 64 if dim == 1 else 24)
        op = eg.assemble_oscillatory(spec, 1 / 8, g)
        s = eg.properness_shift(op)
        if defect:
            matrix = op.matrix.tolil()
            matrix[3, 4] = -1.0
            op = eg.DiscreteOperator(matrix.tocsr(), op.boundary, g)
        B, ok, info = shifted_m_matrix(op, s)
        # the reference: the shifted matrix and the test through sparse
        # matrix arithmetic
        M = (sparse.identity(op.matrix.shape[0]) * s - op.matrix).tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(B, name), getattr(M, name))
        diag = M.diagonal()
        off = M - sparse.diags(diag)
        k = int(np.argmax(off.data))
        row = np.searchsorted(off.indptr, k, side="right") - 1
        excess = info.pop("min_row_excess")
        assert info == {"worst_offdiag": off.data.max(),
                        "worst_offdiag_at": (row, off.indices[k]),
                        "min_diag": diag.min()}
        # the row sums may add in another order
        assert excess == pytest.approx(
            (diag - abs(off).sum(axis=1).A1).min(),
            abs=64 * np.finfo(float).eps * diag.max())
        assert ok == (defect is None)

    def test_upwinding_handles_strong_drift(self):
        # mesh Peclet >> 1 on a coarse grid: centered differencing would
        # break monotonicity, the assembler must switch to upwind
        field = eg.constant_field(1, 0.01, b0=[5.0])
        g = eg.DomainGrid.unit(1, 16)
        op = linear_op(field, g)
        ok, info = eg.is_monotone(op, eg.properness_shift(op))
        assert ok, info

    def test_cross_term_guard(self):
        bad = eg.constant_field(2, np.array([[1.0, 1.2], [1.2, 1.0]]))
        g = eg.DomainGrid.unit(2, 8)
        with pytest.raises(eg.AssemblyError):
            linear_op(bad, g)

    def test_oscillatory_samples_rescaled_coefficients(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        g = eg.DomainGrid.unit(1, 64)
        op = eg.assemble_oscillatory(spec, 0.25, g)
        # apply to a quadratic: L u = a(x/eps) * 2 exactly (interior)
        x = g.points()[:, 0]
        u = eg.GridFunction(g, x * (1 - x))
        res = op.apply(u)
        a_at = 1 + 0.5 * np.sin(2 * np.pi * (g.interior_points()[:, 0] / 0.25))
        assert np.max(np.abs(res + 2 * a_at)) < 1e-9

    def test_effective_assembly_constant(self):
        eff = eg.EffectiveLinear(
            a_bar=np.array([[2.0]]), b_bar=np.array([0.0]), c_bar=0.0,
            a_bar_klm=np.zeros((1, 1, 1)), b_bar_kl=np.zeros((1, 1)),
            c_bar_k=np.zeros(1), d_bar=0.0)
        g = eg.DomainGrid.unit(1, 32)
        op = eg.assemble_effective(eff, g)
        x = g.points()[:, 0]
        u = eg.GridFunction(g, x * (1 - x))
        assert np.max(np.abs(op.apply(u) + 4.0)) < 1e-10


class TestDirichletSolve:
    def test_poisson_analytic(self):
        # -u'' = 1 -> u = x(1-x)/2; here L u = u'' so rhs = -1
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.constant_field(1, 1.0), g)
        u = eg.dirichlet_solve(op, -np.ones(len(g.interior_index())))
        x = g.points()[:, 0]
        assert np.max(np.abs(u.values - 0.5 * x * (1 - x))) < 1e-10

    def test_boundary_data_constant_extension(self):
        # c = 0, zero rhs, boundary value kappa -> solution identically kappa
        g = eg.DomainGrid.unit(1, 64)
        op = linear_op(eg.constant_field(1, 1.3, b0=[0.7]), g)
        kappa = 2.5
        nb = len(g.boundary_index())
        u = eg.dirichlet_solve(op, np.zeros(len(g.interior_index())),
                               boundary_values=np.full(nb, kappa))
        assert np.max(np.abs(u.values - kappa)) < 1e-11

    def test_maximum_principle(self):
        # rhs <= 0 and boundary 0 with c <= 0 implies u >= 0
        field = eg.sin_field_1d(delta=0.5, b_amp=1.0)
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(field, g)
        rng = np.random.default_rng(0)
        rhs = -rng.random(len(g.interior_index()))
        u = eg.dirichlet_solve(op, rhs)
        assert u.values.min() >= -1e-12

    def test_comparison_principle(self):
        # larger forcing (pointwise) gives larger solution for -L
        g = eg.DomainGrid.unit(2, 24)
        op = linear_op(eg.constant_field(2, 1.0), g)
        ni = len(g.interior_index())
        u1 = eg.dirichlet_solve(op, -np.ones(ni))
        u2 = eg.dirichlet_solve(op, -2 * np.ones(ni))
        assert np.all(u2.values >= u1.values - 1e-12)


class TestBellmanApply:
    def test_apply_is_nodewise_max(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        g = eg.DomainGrid.unit(1, 32)
        x = g.points()[:, 0]
        u = eg.GridFunction(g, np.sin(np.pi * x))
        out = eg.apply_bellman(bs, 1.0, g, u)
        ops = eg.bellman_operators(bs, 1.0, g)
        vals = np.maximum(ops[0].apply(u), ops[1].apply(u))
        assert np.allclose(g.restrict(out.values), vals)
