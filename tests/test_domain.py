import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import ergodica as eg
from ergodica.cli import build_problem
from ergodica.domain import assemble_linear, properness_shift, shifted_m_matrix
from ergodica.eigen import _freeze_policy
from ergodica.torus import improve_policy
from referees import (collatz_wielandt, csr, csr_blocks, monotone_stencil,
                      oscillatory_samples, select_rows)


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
        assert np.allclose(csr(op).toarray(), expect)

    def test_m_matrix_structure(self):
        field = eg.sin_field_1d(delta=0.5, b_amp=1.0, c0=0.2, c_amp=0.4)
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(field, g)
        _, ok, info = shifted_m_matrix(op, properness_shift(op))
        assert ok, info

    # ids as "<defect>-<problem>-<dim>": a negative off-diagonal weight
    # planted at entry (3, 4), or in 1D at (4, 3) of the lower band
    @pytest.mark.parametrize("defect,problem,dim", [
        (None, "sin-abc", 1), ("negative_offdiag", "sin-abc", 1),
        ("negative_band", "sin-abc", 1), (None, "sep-2d", 2),
        ("negative_offdiag", "sep-2d", 2)])
    def test_shifted_matrix_is_the_sparse_difference(self, problem, dim,
                                                     defect):
        spec = build_problem(problem)["spec"]
        g = eg.DomainGrid.unit(dim, 64 if dim == 1 else 24)
        op = eg.assemble_oscillatory(spec, 1 / 8, g)
        s = properness_shift(op)
        if defect is not None:
            offset, row = ((1,) * dim, 3) if defect == "negative_offdiag" \
                else ((-1,), 4)
            offset = offset if dim == 1 else (0, 1)
            weights = dict(op.neighbours)
            weights[offset] = weights[offset].copy()
            weights[offset][row] = -1.0
            op = eg.DiscreteOperator(weights, op.diag, g)
        B, ok, info = shifted_m_matrix(op, s)
        # the reference: the shifted matrix and the test through sparse
        # matrix arithmetic on the referee's CSR; B's own CSR, its weights
        # and the boundary couplings it leaves out
        M = (sparse.identity(csr(op).shape[0]) * s - csr(op)).tocsr()
        M.eliminate_zeros()
        assert_same_csr(csr(B), M)
        assert_same_csr(B.csr(), M)
        np.testing.assert_array_equal(B.diag, s - op.diag)
        np.testing.assert_array_equal(csr_blocks(B)[1].toarray(),
                                      -csr_blocks(op)[1].toarray())
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
        _, ok, info = shifted_m_matrix(op, properness_shift(op))
        assert ok, info

    @pytest.mark.parametrize("b0", [5.0, -5.0])
    def test_upwind_rows_are_consistent(self, b0):
        # h|b| = 0.3125 >= 2a upwinds in either direction: the neighbour the
        # drift points to gets a/h^2 + |b|/h, the other a/h^2, and L 1 = c:
        # each row sums to c over its interior and boundary CSR blocks
        g = eg.DomainGrid.unit(1, 16)
        op = linear_op(eg.constant_field(1, 0.01, b0=[b0], c0=0.3), g)
        lower, upper = op.neighbours[(-1,)], op.neighbours[(1,)]
        ahead, behind = (upper, lower) if b0 > 0 else (lower, upper)
        assert np.allclose(ahead, 0.01 * 16 ** 2 + 5.0 * 16, rtol=1e-14)
        assert np.allclose(behind, 0.01 * 16 ** 2, rtol=1e-14)
        matrix, boundary = csr_blocks(op)
        assert np.allclose(matrix.sum(axis=1).A1 + boundary.sum(axis=1).A1,
                           0.3, rtol=0, atol=1e-12)

    def test_cross_term_guard(self):
        bad = eg.constant_field(2, np.array([[1.0, 1.2], [1.2, 1.0]]))
        g = eg.DomainGrid.unit(2, 8)
        with pytest.raises(eg.AssemblyError):
            linear_op(bad, g)

    @pytest.mark.parametrize("counts", [(5, 5, 5), (10, 10, 10), (9, 9, 5)])
    def test_sample_count_must_match_the_grid(self, counts):
        # 5 samples on the 9 nodes of DomainGrid.unit(1, 8) raised IndexError
        # from the gather to the interior nodes
        g = eg.DomainGrid.unit(1, 8)
        na, nb, nc = counts
        with pytest.raises(eg.InputError, match=f"9 samples needed on a grid "
                           rf"of shape \(9,\); got {na} of a, {nb} of b"):
            assemble_linear(g, np.ones(na), np.zeros(nb), np.zeros(nc))

    def test_sample_count_must_match_the_fast_rows(self):
        # eps = 1/4 on 64 cells: `at` gathers 16 distinct rows to the nodes
        g = eg.DomainGrid.unit(1, 64)
        rows, at = eg.fast_coordinates(g, 1 / 4)
        a, b, c = eg.sin_field_1d().sample(rows)
        assert len(rows) == 16
        with pytest.raises(eg.InputError, match="16 samples needed"):
            assemble_linear(g, a[:8], b[:8], c[:8], at)

    def test_oscillatory_samples_rescaled_coefficients(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        g = eg.DomainGrid.unit(1, 64)
        op = eg.assemble_oscillatory(spec, 0.25, g)
        # apply to a quadratic, 0 on the boundary: L u = -2 a(x/eps) exactly
        x = g.points()[:, 0]
        res = op @ g.restrict(x * (1 - x))
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
        assert np.max(np.abs(op @ g.restrict(x * (1 - x)) + 4.0)) < 1e-10


def generic_blocks(grid, avals, bvals, cvals):
    """The CSR blocks of a 1D operator the generic way: `monotone_stencil`
    rows at the interior nodes, with the columns sliced."""
    N, interior = int(np.prod(grid.shape)), grid.interior_index()
    rows = monotone_stencil(
        np.reshape(avals, (N, 1, 1))[interior], np.reshape(bvals, (N, 1))[interior],
        np.reshape(cvals, N)[interior], grid.h, grid.shape, interior, wrap=False)
    return rows[:, interior].tocsr(), rows[:, grid.boundary_index()].tocsr()


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


def weight_arrays(op):
    """An operator's weight arrays, offsets in ascending order, then diag."""
    return [op.neighbours[o] for o in sorted(op.neighbours)] + [op.diag]


def assert_bands_are_the_diagonals(op):
    lower, diag, upper = op.neighbours[(-1,)], op.diag, op.neighbours[(1,)]
    n = len(diag)
    assert np.array_equal(lower[1:], csr(op).diagonal(-1))
    assert np.array_equal(diag, csr(op).diagonal(0))
    assert np.array_equal(upper[:-1], csr(op).diagonal(1))
    assert csr_blocks(op)[1].toarray()[[0, n - 1], [0, 1]].tolist() == \
        [lower[0], upper[-1]]


BELLMAN_3CTL = eg.BellmanSpec([
    eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5, b_amp=1.0), 0.5, 1.5),
    eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
    eg.LinearOperatorSpec(eg.constant_field(1, 0.8, b0=-2.0), 0.5, 1.5),
])


BELLMAN_2D = eg.BellmanSpec([
    eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5), 0.5, 1.5),
    eg.LinearOperatorSpec(eg.constant_field(2, [[1.0, 0.3], [0.3, 0.8]],
                                            b0=[0.5, -0.2]), 0.5, 1.5, c1=0.5),
    eg.LinearOperatorSpec(eg.constant_field(2, 1.2, c0=0.3), 0.5, 1.5, c1=0.3),
])


class TestBands:
    """A 1D operator's weights are its three bands; the referee's CSR
    blocks written from them must be the generic path's, array for
    array."""

    @pytest.mark.parametrize("case", ["sin-abc", "upwind"])
    def test_band_assembly_matches_the_generic_path(self, case):
        if case == "sin-abc":
            # centered drift throughout
            g = eg.DomainGrid.unit(1, 256)
            samples = oscillatory_samples(build_problem("sin-abc")["spec"],
                                          1 / 16, g)
        else:
            g = eg.DomainGrid.unit(1, 16)
            samples = eg.constant_field(1, 0.01, b0=[5.0]).sample(g.points())
        op = assemble_linear(g, *samples)
        matrix, boundary = generic_blocks(g, *samples)
        assert_same_csr(csr(op), matrix)
        assert_same_csr(csr_blocks(op)[1], boundary)
        assert_bands_are_the_diagonals(op)

    def test_frozen_policy_matches_select_rows(self):
        g = eg.DomainGrid.unit(1, 16)
        ops = eg.bellman_operators(BELLMAN_3CTL, 1 / 4, g)
        policy = np.array([0, 2] * 7 + [2])  # control 1 never chosen
        frozen = _freeze_policy(ops, policy, g)
        blocks = [generic_blocks(g, *oscillatory_samples(ctl, 1 / 4, g))
                  for ctl in BELLMAN_3CTL.controls]
        for k, got in enumerate(csr_blocks(frozen)):
            ref = select_rows([b[k] for b in blocks], policy)
            assert_same_csr(got, ref)
        assert_bands_are_the_diagonals(frozen)
        assert frozen.c_max == max(ops[0].c_max, ops[2].c_max)

    def test_2d_frozen_policy_matches_select_rows(self):
        # three 2D controls, the second with a cross term: a frozen row is
        # its control's row, interior and boundary couplings alike, with 0
        # at the diagonal neighbours that the other two do not store
        g = eg.DomainGrid.unit(2, 8)
        ops = eg.bellman_operators(BELLMAN_2D, 1 / 2, g)
        assert [len(op.neighbours) for op in ops] == [4, 8, 4]
        rng = np.random.default_rng(4)
        policy = rng.integers(0, 3, len(g.interior_index()))
        frozen = _freeze_policy(ops, policy, g)
        refs = [select_rows([csr_blocks(op)[k] for op in ops], policy)
                for k in (0, 1)]
        for got, ref in zip(csr_blocks(frozen), refs):
            got.eliminate_zeros()
            ref.eliminate_zeros()
            assert_same_csr(got, ref)
        matrix = refs[0]
        v = rng.standard_normal(len(g.interior_index()))
        np.testing.assert_array_equal(frozen @ v, matrix @ v)
        assert frozen.c_max == max(op.c_max for op in ops)
        # what SuperLU factors: B's CSR holds the selected rows' entries
        s = properness_shift(frozen)
        B, ok, _ = shifted_m_matrix(frozen, s)
        M = (sparse.identity(len(v)) * s - matrix).tocsr()
        M.eliminate_zeros()
        assert ok
        assert_same_csr(B.csr(), M)

    def test_negative_coefficient_raises(self):
        g = eg.DomainGrid.unit(1, 16)
        N = int(np.prod(g.shape))
        with pytest.raises(eg.AssemblyError, match="negative off-diagonal"):
            assemble_linear(g, np.full(N, -1.0), np.zeros(N), np.zeros(N))

    def test_grid_indices_are_cached_read_only(self):
        g = eg.DomainGrid.unit(1, 16)
        assert g.interior_index() is g.interior_index()
        assert g.boundary_index() is g.boundary_index()
        with pytest.raises(ValueError):
            g.interior_index()[0] = 0


class TestDirichletSolve:
    def test_poisson_analytic(self):
        # -u'' = 1 -> u = x(1-x)/2; here L u = u'' so rhs = -1
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.constant_field(1, 1.0), g)
        u = eg.dirichlet_solve(op, -np.ones(len(g.interior_index())))
        x = g.points()[:, 0]
        assert np.max(np.abs(u.values - 0.5 * x * (1 - x))) < 1e-10

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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_full_node_rhs_is_an_input_error(self, dim):
        # the right-hand side is interior only; a full-node one is refused
        # on the band path (1D) and on the SuperLU path (2D), where it raised
        # scipy's bare "ValueError: b is of incompatible size"
        g = eg.DomainGrid.unit(dim, 8)
        op = linear_op(eg.constant_field(dim, 1.0), g)
        with pytest.raises(eg.InputError, match=rf"shape \({9 ** dim},\) for "
                           f"a matrix of order {7 ** dim}"):
            eg.dirichlet_solve(op, np.ones(9 ** dim))
        assert eg.dirichlet_solve(op, -np.ones(7 ** dim)).values.min() >= 0


class TestBellmanApply:
    def test_apply_is_nodewise_max(self):
        # the operator frozen at the policy that is optimal against u (where
        # a row's Howard loop starts) applies as the nodewise max of the
        # frozen operators, the Bellman operator of nonlinear_expansion
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        g = eg.DomainGrid.unit(1, 32)
        x = g.points()[:, 0]
        # the max flips where u'' changes sign
        u = g.restrict(np.sin(2 * np.pi * x))
        ops = eg.bellman_operators(bs, 1.0, g)
        vals = np.maximum(ops[0] @ u, ops[1] @ u)
        values = np.array([op @ u for op in ops])
        policy = improve_policy(values, np.zeros(len(vals), dtype=int))[1]
        assert set(policy) == {0, 1}
        np.testing.assert_array_equal(_freeze_policy(ops, policy, g) @ u, vals)


def node_by_node(spec, eps, grid):
    """Samples of the field at (x/eps) mod 1 at every node, in floats, and
    the operator assembled from them: a row's operator before fast
    coordinates."""
    samples = spec.field.sample((grid.points() / eps) % 1.0)
    return samples, assemble_linear(grid, *samples)


class TestFastSampling:
    """Rows sample the field once per distinct fast coordinate and gather;
    on power-of-two grids x/eps mod 1 is exact in floats, so nothing moves."""

    SIN_ABC = build_problem("sin-abc")["spec"]

    @pytest.mark.parametrize("n_cells", [256, 65536])
    @pytest.mark.parametrize("m", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_1d_power_of_two_matches_node_by_node(self, n_cells, m):
        grid = eg.DomainGrid.unit(1, n_cells)
        samples, ref = node_by_node(self.SIN_ABC, 1 / m, grid)
        for got, want in zip(oscillatory_samples(self.SIN_ABC, 1 / m, grid),
                             samples):
            np.testing.assert_array_equal(got, want)
        op = eg.assemble_oscillatory(self.SIN_ABC, 1 / m, grid)
        for got, want in zip(weight_arrays(op), weight_arrays(ref),
                             strict=True):
            np.testing.assert_array_equal(got, want)
        assert op.c_max == ref.c_max

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_2d_power_of_two_matches_node_by_node(self, m):
        spec = build_problem("sep-2d")["spec"]
        grid = eg.DomainGrid.unit(2, 16)
        samples, ref = node_by_node(spec, 1 / m, grid)
        for got, want in zip(oscillatory_samples(spec, 1 / m, grid), samples):
            np.testing.assert_array_equal(got, want)
        op = eg.assemble_oscillatory(spec, 1 / m, grid)
        assert_same_csr(csr(op), csr(ref))
        assert_same_csr(csr_blocks(op)[1], csr_blocks(ref)[1])
        assert op.c_max == ref.c_max

    def test_coprime_grid_within_ulps(self):
        # 112 cells at eps = 1/6: the float x/eps, up to 6, is off by an ulp
        # of itself, the integer y is exact (10.5 ulps of the largest weight)
        grid = eg.DomainGrid.unit(1, 112)
        _, ref = node_by_node(self.SIN_ABC, 1 / 6, grid)
        op = eg.assemble_oscillatory(self.SIN_ABC, 1 / 6, grid)
        for got, want in zip(weight_arrays(op), weight_arrays(ref),
                             strict=True):
            ulp = np.spacing(np.abs(want).max())
            assert np.abs(got - want).max() <= 16 * ulp

    def test_c_max_is_over_interior_nodes(self):
        # at m = 1 only the two boundary nodes take y = 0, where c peaks
        field = eg.CoefficientField(
            1, lambda y: np.ones((len(y), 1, 1)), lambda y: np.zeros((len(y), 1)),
            lambda y: np.cos(2 * np.pi * y[:, 0]))
        spec = eg.LinearOperatorSpec(field, 1.0, 1.0, c1=1.0)
        grid = eg.DomainGrid.unit(1, 7)
        op = eg.assemble_oscillatory(spec, 1.0, grid)
        assert op.c_max == np.cos(2 * np.pi / 7) < 1.0

    def test_assembly_error_names_a_grid_node(self):
        # a < 0 only at y = 1/2: node 4 of 8 cells at eps = 1, nodes 2 and
        # 6 at eps = 1/2
        field = eg.CoefficientField(
            1, lambda y: (1.0 - 4.0 * (y[:, 0] == 0.5))[:, None, None],
            lambda y: np.zeros((len(y), 1)), lambda y: np.zeros(len(y)))
        spec = eg.LinearOperatorSpec(field, 1.0, 1.0)
        grid = eg.DomainGrid.unit(1, 8)
        for eps, nodes in ((1.0, "4"), (0.5, "[26]")):
            message = rf"node \((np\.int64\()?{nodes}\)?,\)"
            with pytest.raises(eg.AssemblyError, match=message):
                eg.assemble_oscillatory(spec, eps, grid)


class TestBandProducts:
    """A 1D operator's products run on its bands, summed in CSR order, and
    its `stencils.Stencil` is views of them."""

    @given(n=st.integers(4, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matvec_and_boundary_block_match_csr_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        def scale(size):  # values over 16 decades, both signs
            return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)

        grid = eg.DomainGrid.unit(1, n)
        lower, diag, upper = (scale(n - 1) for _ in range(3))
        op = eg.DiscreteOperator({(-1,): lower, (1,): upper}, diag, grid)
        assert all(np.shares_memory(w, band) for (_, _, _, w), band in
                   zip(op.stencil.diags, (lower, diag, upper)))
        matrix = sparse.diags([lower[1:], diag, upper[:-1]], [-1, 0, 1],
                              format="csr")
        boundary = sparse.csr_matrix(
            ([lower[0], upper[-1]], ([0, n - 2], [0, 1])), shape=(n - 1, 2))
        v = scale(n - 1)
        np.testing.assert_array_equal(op @ v, matrix @ v)
        # the referee's CSR blocks of the stored weights are the same matrices
        assert_same_csr(csr(op), matrix)
        np.testing.assert_array_equal(csr_blocks(op)[1].toarray(), boundary.toarray())


def cross_term_samples(seed, n, drift):
    """Random admissible node samples on DomainGrid.unit(2, n): a11, a22 in
    [0.5, 2], a12 = t min(a11, a22) with t in [-1, 1] (exactly +-1 at about
    a fifth of the nodes), |b| up to `drift` per axis, c in [-1, 1]."""
    rng = np.random.default_rng(seed)
    npts = (n + 1) ** 2
    diag = rng.uniform(0.5, 2.0, (npts, 2))
    t = rng.uniform(-1.0, 1.0, npts)
    edge = rng.random(npts) < 0.2
    t[edge] = rng.choice([-1.0, 1.0], edge.sum())
    a = np.zeros((npts, 2, 2))
    a[:, 0, 0], a[:, 1, 1] = diag.T
    a[:, 0, 1] = a[:, 1, 0] = t * diag.min(axis=1)
    return a, rng.uniform(-drift, drift, (npts, 2)), rng.uniform(-1.0, 1.0, npts)


class TestCrossTermOperators:
    """2D operators with cross terms: the 7-point stencil is monotone for
    every |a12| <= min(a11, a22), with centered or upwind drift rows, and
    the eigensolver certifies their principal eigenpair."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 10),
           drift=st.sampled_from([1.0, 60.0]))
    @settings(max_examples=30, deadline=None)
    def test_monotone_and_certified(self, seed, n, drift):
        grid = eg.DomainGrid.unit(2, n)
        a, b, c = cross_term_samples(seed, n, drift)
        op = assemble_linear(grid, a, b, c)
        _, ok, info = shifted_m_matrix(op, properness_shift(op))
        assert ok, info
        pair = eg.principal_eigenpair(op, tol=1e-9)
        assert pair.phi.flat[grid.interior_index()].min() > 0
        assert pair.cw_lower <= pair.lam <= pair.cw_upper
        lo, hi = collatz_wielandt(op, pair.phi)
        assert lo - 1e-8 <= pair.lam <= hi + 1e-8
        if drift == 60.0:  # |b| h >= 2 (a_kk - |a12|) somewhere: upwind rows
            a_eff = np.diagonal(a, axis1=1, axis2=2) - np.abs(a[:, :1, 1])
            assert np.any(np.abs(b) / n >= 2 * a_eff)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 10))
    @settings(max_examples=15, deadline=None)
    def test_cross_term_above_the_bound_refused(self, seed, n):
        grid = eg.DomainGrid.unit(2, n)
        a, b, c = cross_term_samples(seed, n, 1.0)
        node = np.random.default_rng(seed).choice(grid.interior_index())
        a[node, 0, 1] = a[node, 1, 0] = -1.01 * a[node].diagonal().min()
        with pytest.raises(eg.AssemblyError, match="exceeds min"):
            assemble_linear(grid, a, b, c)


@pytest.mark.parametrize("config", [
    dict(problem="sin-abc", eps_list=[1 / 4, 1 / 8, 1 / 16], q=16, n_torus=32,
         measurements=["lambda_rate", "eigfun_rate", "z_rate", "v_norm",
                       "residual_slope"]),
    dict(problem="bellman-2ctl-1d", mode="bellman", eps_list=[1 / 4, 1 / 8, 1 / 16],
         q=16, n_torus=32, measurements=["lambda_rate", "residual_slope"]),
], ids=["sin-abc", "bellman-2ctl-1d"])
def test_1d_sweeps_build_no_csr_operator(monkeypatch, config):
    # the weights serve every product, factor and frozen policy of a 1D
    # row: no operator, torus or Dirichlet, is written as CSR
    import ergodica.stencils as stencils_mod

    def written(*args, **kwargs):
        raise AssertionError("a 1D sweep built a CSR matrix")

    monkeypatch.setattr(stencils_mod.Weights, "csr", written)
    report = eg.run_sweep(eg.SweepConfig(timing=False, **config))
    assert report.failures == [] and len(report.rows) == 3
