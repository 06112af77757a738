import numpy as np
import pytest

import ergodica as eg
from ergodica.cli import build_problem
from ergodica.domain import node_index, torus_nodes
from referees import stencil_matrix


@pytest.fixture(scope="module")
def linear_1d():
    """Oscillatory 1D problem with all coefficient blocks active."""
    spec = eg.LinearOperatorSpec(
        eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
        0.5, 1.5, c1=0.6)
    tg = eg.PeriodicGrid(1, 512)
    cs = eg.build_corrector_set(spec, tg)
    eff = eg.effective_linear(spec, cs)
    grid = eg.DomainGrid.unit(1, 1024)
    eff_op = eg.assemble_effective(eff, grid)
    pair = eg.principal_eigenpair(eff_op, tol=1e-11)
    return spec, cs, eff, grid, eff_op, pair


@pytest.fixture(scope="module")
def const_1d():
    """Constant-coefficient problem: the whole hierarchy must vanish."""
    spec = eg.LinearOperatorSpec(eg.constant_field(1, 1.3), 1.3, 1.3)
    tg = eg.PeriodicGrid(1, 128)
    cs = eg.build_corrector_set(spec, tg)
    eff = eg.effective_linear(spec, cs)
    grid = eg.DomainGrid.unit(1, 256)
    eff_op = eg.assemble_effective(eff, grid)
    pair = eg.principal_eigenpair(eff_op, tol=1e-11)
    return spec, cs, eff, grid, eff_op, pair


class TestDerivativeBundle:
    def test_analytic_first_derivative(self):
        g = eg.DomainGrid.unit(1, 512)
        x = g.points()[:, 0]
        u = eg.GridFunction(g, np.sin(np.pi * x))
        bundle = eg.derivative_bundle(u, 1)
        err = np.max(np.abs(bundle.d1[(0,)].values - np.pi * np.cos(np.pi * x)))
        assert err <= 1e-6

    def test_constant_input(self):
        g = eg.DomainGrid.unit(1, 64)
        u = eg.GridFunction(g, np.full(65, 3.0))
        bundle = eg.derivative_bundle(u, 3)
        # one-sided boundary stencils amplify rounding by h^-m
        for d in (bundle.d1, bundle.d2, bundle.d3):
            for fn in d.values():
                assert np.max(np.abs(fn.values)) < 1e-8

    def test_mixed_partial_symmetry(self):
        g = eg.DomainGrid.unit(2, 96)
        pts = g.points()
        vals = np.sin(np.pi * pts[:, 0]) * np.exp(pts[:, 1])
        u = eg.GridFunction(g, vals.reshape(g.shape))
        bundle = eg.derivative_bundle(u, 2)
        d12 = bundle.d2[(0, 1)].values
        d21 = bundle.d2[(1, 0)].values
        assert np.max(np.abs(d12 - d21)) <= 1e-8

    def test_third_derivative_accuracy(self):
        g = eg.DomainGrid.unit(1, 512)
        x = g.points()[:, 0]
        u = eg.GridFunction(g, np.sin(np.pi * x))
        bundle = eg.derivative_bundle(u, 3)
        exact = -np.pi ** 3 * np.cos(np.pi * x)
        assert np.max(np.abs(bundle.d3[(0, 0, 0)].values - exact)) < 5e-3


class TestSecondCorrector:
    def test_constant_coefficients_vanish(self, const_1d):
        spec, cs, eff, grid, eff_op, pair = const_1d
        bundle = eg.derivative_bundle(pair.phi, 2)
        w2 = eg.second_corrector(cs, bundle, 1 / 8)
        assert np.max(np.abs(w2.values)) < 1e-10

    def test_cell_identity_residual(self):
        # a(y)(D^2_yy w2 + D^2_xx u) + b D_x u + c u + lambda_bar u ~ 0 when
        # evaluated with the effective eigenfunction and matched (x, y) pairs
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
            0.5, 1.5, c1=0.6)
        n = 1024
        tg = eg.PeriodicGrid(1, n)
        cs = eg.build_corrector_set(spec, tg)
        eff = eg.effective_linear(spec, cs)
        grid = eg.DomainGrid.unit(1, n)
        eff_op = eg.assemble_effective(eff, grid)
        pair = eg.principal_eigenpair(eff_op, tol=1e-11)
        bundle = eg.derivative_bundle(pair.phi, 2)
        # commensurate choice eps = 1: y = x mod 1 hits torus grid nodes
        from ergodica.torus import gradient_matrices
        y = grid.points()[:-1, 0] % 1.0
        avals, bvals, cvals = spec.field.sample(y.reshape(-1, 1))
        chi = cs.chi[(0, 0)].chi.flat
        eta = cs.eta[0].chi.flat
        nu = cs.nu.chi.flat
        D2 = stencil_matrix(gradient_matrices(tg)[0]) @ \
            stencil_matrix(gradient_matrices(tg)[0])
        u2 = bundle.d2[(0, 0)].values[:-1]
        u1 = bundle.d1[(0,)].values[:-1]
        u0 = pair.phi.values[:-1]
        w2yy = (D2 @ chi) * u2 + (D2 @ eta) * u1 + (D2 @ nu) * u0
        res = (avals[:, 0, 0] * (w2yy + u2) + bvals[:, 0] * u1
               + cvals * u0 + pair.lam * u0)
        # effective equation holds to O(h^2); interior nodes only
        assert np.max(np.abs(res[1:-1])) < 1e-3

    def test_b_c_zero_reduces_to_chi_term(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        tg = eg.PeriodicGrid(1, 256)
        cs = eg.build_corrector_set(spec, tg)
        grid = eg.DomainGrid.unit(1, 512)
        x = grid.points()[:, 0]
        u = eg.GridFunction(grid, np.sin(np.pi * x))
        bundle = eg.derivative_bundle(u, 2)
        eps = 1 / 8
        w2 = eg.second_corrector(cs, bundle, eps)
        # eta and nu vanish, so w2 = chi(x/eps) u''(x); every x/eps mod 1 is
        # a node of the 256-point torus grid
        node = np.rint((x / eps) % 1.0 * tg.n).astype(int) % tg.n
        manual = cs.chi[(0, 0)].chi.values[node] * bundle.d2[(0, 0)].values
        assert np.max(np.abs(w2.values - manual)) < 1e-10


class TestPsi1:
    def test_constant_coefficients_vanish(self, const_1d):
        spec, cs, eff, grid, eff_op, pair = const_1d
        bundle = eg.derivative_bundle(pair.phi, 3)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        assert np.max(np.abs(psi1.values)) < 1e-10

    def test_zero_boundary(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        bundle = eg.derivative_bundle(pair.phi, 3)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        assert psi1.values[0] == 0.0 and psi1.values[-1] == 0.0

    def test_self_convergence(self):
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
            0.5, 1.5, c1=0.6)
        tg = eg.PeriodicGrid(1, 512)
        cs = eg.build_corrector_set(spec, tg)
        eff = eg.effective_linear(spec, cs)
        sols = {}
        for n in (256, 512, 1024):
            grid = eg.DomainGrid.unit(1, n)
            eff_op = eg.assemble_effective(eff, grid)
            pair = eg.principal_eigenpair(eff_op, tol=1e-11)
            bundle = eg.derivative_bundle(pair.phi, 3)
            sols[n] = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        e1 = np.max(np.abs(sols[256].values - sols[512].values[::2]))
        e2 = np.max(np.abs(sols[512].values - sols[1024].values[::2]))
        assert e1 / e2 > 3.0  # ~O(h^2) self-convergence


class TestThirdCorrector:
    def test_constant_coefficients_vanish(self, const_1d):
        spec, cs, eff, grid, eff_op, pair = const_1d
        bundle = eg.derivative_bundle(pair.phi, 3)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        w3 = eg.third_corrector(cs, bundle, eg.derivative_bundle(psi1, 2), 1 / 8)
        assert np.max(np.abs(w3.values)) < 1e-10

    def test_finite_and_bounded(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        bundle = eg.derivative_bundle(pair.phi, 3)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        w3 = eg.third_corrector(cs, bundle, eg.derivative_bundle(psi1, 2), 1 / 8)
        assert np.all(np.isfinite(w3.values))
        assert np.max(np.abs(w3.values)) < 100


def _node_by_node(sol, grid, eps):
    """chi of `sol` at every node of a unit grid, one node at a time: node
    i of an axis with n cells sits at y = (i m mod n) / n, eps = 1/m, which
    is torus node (i m mod n) N_t / n."""
    n_t, m = sol.chi.grid.n, round(1 / eps)
    nodes = [tuple((i * m % n) * n_t // n for i, n in zip(node, grid.n))
             for node in np.ndindex(grid.shape)]
    return np.array([sol.chi.values[node] for node in nodes])


def _reference_w2(cs, bundle, eps):
    grid = bundle.u.grid
    d = grid.dim
    trace = lambda sol: _node_by_node(sol, grid, eps)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            out += trace(cs.chi[(k, l)]) * bundle.d2[(k, l)].flat
        out += trace(cs.eta[k]) * bundle.d1[(k,)].flat
    out += trace(cs.nu) * bundle.u.flat
    return out.reshape(grid.shape)


def _reference_w3(cs, bundle, psi1_bundle, eps):
    grid = bundle.u.grid
    d = grid.dim
    trace = lambda sol: _node_by_node(sol, grid, eps)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            for m in range(d):
                out += trace(cs.chi3[(k, l, m)]) * bundle.d3[(k, l, m)].flat
            out += trace(cs.eta2[(k, l)]) * bundle.d2[(k, l)].flat
            out += trace(cs.chi[(k, l)]) * psi1_bundle.d2[(k, l)].flat
        out += trace(cs.nu1[k]) * bundle.d1[(k,)].flat
        out += trace(cs.eta[k]) * psi1_bundle.d1[(k,)].flat
    out += trace(cs.xi) * bundle.u.flat
    out += trace(cs.nu) * psi1_bundle.u.flat
    return out.reshape(grid.shape)


class TestDistinctFastCoordinates:
    """The traces read each profile once per distinct y = x/eps mod 1 and
    scatter back; that must equal reading it at every node, bit for bit.
    y is computed in integers, and agrees with the float x/eps mod 1."""

    @pytest.mark.parametrize("dim, n_cells, eps", [
        (1, 1024, 1 / 8), (1, 512, 1 / 512), (2, 64, 1 / 16)])
    def test_power_of_two_grid_matches_sorted_floats(self, dim, n_cells, eps):
        # x/eps mod 1 is exact here, so sorting it gives the same rows and
        # the same scatter index
        grid = eg.DomainGrid.unit(dim, n_cells)
        rows, at = eg.fast_coordinates(grid, eps)
        inverse = node_index(at)
        keys, ref_inverse = np.unique((grid.points() / eps) % 1.0, axis=0,
                                      return_inverse=True)
        np.testing.assert_array_equal(rows, keys)
        np.testing.assert_array_equal(inverse, ref_inverse.ravel())

    @pytest.mark.parametrize("dim, n_cells, m", [
        (1, 512, 7), (1, 24, 5), (2, 12, 4), (2, 96, 6)])
    def test_rows_within_an_ulp_of_float_coordinates(self, dim, n_cells, m):
        grid = eg.DomainGrid.unit(dim, n_cells)
        rows, at = eg.fast_coordinates(grid, 1 / m)
        inverse = node_index(at)
        per_axis = n_cells // np.gcd(m, n_cells)
        assert rows.shape == (per_axis ** dim, dim)
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert all(len(np.unique(rows[:, k])) == per_axis for k in range(dim))
        z = grid.points() / (1 / m)
        gap = (rows[inverse] - z + 0.5) % 1.0 - 0.5  # periodic difference
        assert np.all(np.abs(gap) <= np.spacing(z))

    @pytest.mark.parametrize("eps", [0.3, 0.0, -1 / 8, float("nan")],
                             ids=["0.3", "0", "-0.125", "nan"])
    def test_eps_not_a_reciprocal_raises(self, eps):
        # 0 was a bare ZeroDivisionError, NaN a ValueError; -1/8 passed
        with pytest.raises(eg.InputError, match=f"eps = 1/m.*eps={eps!r}"):
            eg.fast_coordinates(eg.DomainGrid.unit(1, 64), eps)

    def test_assembly_refuses_eps_not_a_reciprocal(self):
        spec = build_problem("sin-abc")["spec"]
        with pytest.raises(eg.InputError, match="eps=0.3"):
            eg.assemble_oscillatory(spec, 0.3, eg.DomainGrid.unit(1, 64))

    @pytest.mark.parametrize("dim, n_cells, eps, n_torus", [
        (1, 64, 1 / 8, 8),  # the trace grid: 8 rows, stride 1
        (1, 24, 1 / 5, 48),  # y = 5i/24 mod 1 does not repeat; stride 2
        (2, 12, 1 / 4, 6),  # 3 rows per axis, stride 2
        (2, 10, 1 / 3, 10),  # the trace grid
    ], ids=["1d-eps-8", "1d-n24-eps-5", "2d-eps-4", "2d-n10-eps-3"])
    def test_traces_match_node_by_node_reference(self, dim, n_cells, eps,
                                                 n_torus):
        if dim == 1:
            spec = eg.LinearOperatorSpec(
                eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
                0.5, 1.5, c1=0.6)
        else:
            spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5),
                                         0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(dim, n_torus))
        grid = eg.DomainGrid.unit(dim, n_cells)
        pts = grid.points()
        u = eg.GridFunction(grid, np.prod(np.sin(np.pi * pts), axis=1)
                            .reshape(grid.shape))
        psi = eg.GridFunction(grid, np.prod(np.sin(2 * np.pi * pts), axis=1)
                              .reshape(grid.shape))
        bundle = eg.derivative_bundle(u, 3)
        psi1_bundle = eg.derivative_bundle(psi, 2)
        w2 = eg.second_corrector(cs, bundle, eps)
        w3 = eg.third_corrector(cs, bundle, psi1_bundle, eps)
        np.testing.assert_array_equal(w2.values, _reference_w2(cs, bundle, eps))
        np.testing.assert_array_equal(
            w3.values, _reference_w3(cs, bundle, psi1_bundle, eps))
        assert np.max(np.abs(w2.values)) > 0 and np.max(np.abs(w3.values)) > 0

    def test_torus_grid_must_hold_the_fast_coordinates(self):
        # eps = 1/7 on 112 cells has 16 rows, which a 16-point torus holds;
        # eps = 1/6 has 56, which it does not: a trace is refused, not
        # interpolated
        spec = build_problem("sin-abc")["spec"]
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(1, 16))
        grid = eg.DomainGrid.unit(1, 112)
        x = grid.points()[:, 0]
        bundle = eg.derivative_bundle(
            eg.GridFunction(grid, np.sin(np.pi * x)), 3)
        assert np.all(np.isfinite(eg.second_corrector(cs, bundle, 1 / 7).values))
        with pytest.raises(eg.InputError, match="16 torus points do not hold"):
            eg.second_corrector(cs, bundle, 1 / 6)
        with pytest.raises(eg.InputError, match="do not hold"):
            eg.third_corrector(cs, bundle, bundle, 1 / 6)
        assert eg.trace_grid(grid, [1 / 6, 1 / 7]).n == 112

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trace_grid_of_few_rows_has_four_points(self, dim):
        # eps = 1/4 on 12 cells has 3 rows per axis (N_t = 3); the torus
        # takes the smallest multiple of N_t with at least 4 points
        grid = eg.DomainGrid.unit(dim, 12)
        torus = eg.trace_grid(grid, [1 / 4])
        assert torus.n == 6
        rows, _ = eg.fast_coordinates(grid, 1 / 4)
        nodes = torus_nodes(rows, torus)
        np.testing.assert_array_equal(torus.points()[nodes], rows)


class TestBoundaryTraces:
    """The expansion has no boundary correctors: their Dirichlet data
    -w_k(x, x/eps) is exactly 0 at x = 0 and 1 for eps = 1/m, since every
    torus corrector is anchored at y = 0, the torus node both ends read."""

    @pytest.mark.parametrize("n_cells, m", [
        (1024, 1), (1024, 8), (1024, 128),
        (112, 6), (112, 7),  # the coprime grid: 6 does not divide 112
    ])
    def test_w2_w3_vanish_on_the_boundary(self, n_cells, m):
        spec = build_problem("sin-abc")["spec"]
        grid = eg.DomainGrid.unit(1, n_cells)
        cs = eg.build_corrector_set(spec, eg.trace_grid(grid, [1 / m]))
        eff = eg.effective_linear(spec, cs)
        pair = eg.effective_eigenpair(eff, grid)
        slow = eg.slow_corrector(eff, cs, pair, eg.assemble_effective(eff, grid))
        exp, _ = eg.linear_expansion(
            pair, slow, 1 / m, eg.assemble_oscillatory(spec, 1 / m, grid))
        bidx = grid.boundary_index()
        assert np.all(exp.w2_trace.flat[bidx] == 0.0)
        assert np.all(exp.w3_trace.flat[bidx] == 0.0)
        assert np.max(np.abs(exp.w2_trace.values)) > 1e-3
        assert np.all(exp.v_eps.flat[bidx] == 0.0)

    @pytest.mark.parametrize("n_cells, ms", [
        (1024, (8,)),
        (112, (6, 7)),  # the coprime grid: 6 does not divide 112
    ])
    def test_bellman_w_eps_vanishes_on_the_boundary(self, n_cells, ms):
        # the Bellman twin: the operators act on the interior values of
        # w^eps = u + eps^2 |u''| chi_-(x/eps) alone, which is exact because
        # u is 0 at both ends and chi_-, solved on the rows' trace grid,
        # reads its anchor y = 0 there
        bs = build_problem("bellman-2ctl-1d")["spec"]
        grid = eg.DomainGrid.unit(1, n_cells)
        eps_list = [1 / m for m in ms]
        cell, pair = bellman_effective(bs, grid, eg.PeriodicGrid(1, 64))
        trace_cell = eg.solve_nonlinear_cell(
            bs, [[-1.0]], eg.trace_grid(grid, eps_list))[0]
        prepared = eg.prepare_expansion(pair, cell, trace_cell)
        bidx = grid.boundary_index()
        for eps in eps_list:
            w_eps, rep = eg.nonlinear_expansion(
                pair, eps, prepared, eg.bellman_operators(bs, eps, grid))
            assert np.all(w_eps.flat[bidx] == 0.0)
            assert np.all(rep["w2_trace"].flat[bidx] == 0.0)
            assert np.max(np.abs(rep["w2_trace"].values)) > 1e-3


class TestFullCorrector:
    def test_formula(self):
        g = eg.DomainGrid.unit(1, 16)
        one = eg.GridFunction(g, np.ones(17))
        zero = eg.GridFunction(g, np.zeros(17))
        exp = eg.full_corrector(one, zero, one, 0.1)
        assert np.allclose(exp.v_eps.values[1:-1], 0.1 + 0.1 ** 3)
        # v_eps takes its Dirichlet value on the boundary
        assert exp.v_eps.values[0] == exp.v_eps.values[-1] == 0.0
        assert exp.sup_norm_v == pytest.approx(0.1 + 0.1 ** 3)

    def test_all_zero(self):
        g = eg.DomainGrid.unit(1, 16)
        zero = eg.GridFunction(g, np.zeros(17))
        exp = eg.full_corrector(zero, zero, zero, 0.1)
        assert exp.sup_norm_v == 0.0


class TestPivotAndAlignment:
    def test_constant_coefficients_pivot_is_u(self, const_1d):
        spec, cs, eff, grid, eff_op, pair = const_1d
        op = eg.assemble_oscillatory(spec, 1 / 8, grid)
        w = eg.pivot_problem(op, pair.phi, pair.lam)
        assert np.max(np.abs(w.values - pair.phi.values)) < 1e-9

    def test_zero_input_guard(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        zero = eg.GridFunction(grid, np.zeros(grid.shape))
        w = eg.pivot_problem(eg.assemble_oscillatory(spec, 1 / 8, grid), zero,
                             pair.lam)
        assert np.max(np.abs(w.values)) < 1e-13

    def test_alignment_identities(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        t, z = eg.align_eigenfunctions(pair.phi, pair)
        assert t == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(z.values)) < 1e-12
        double = eg.GridFunction(grid, 2.0 * pair.phi.values)
        t, z = eg.align_eigenfunctions(double, pair)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(z.values)) < 1e-12

    def test_orthogonality(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        eps = 1 / 8
        op = eg.assemble_oscillatory(spec, eps, grid)
        u_eps = eg.principal_eigenpair(op, tol=1e-10)
        w = eg.pivot_problem(op, pair.phi, pair.lam)
        t, z = eg.align_eigenfunctions(w, u_eps)
        inner = np.sum(grid.inner_weights() * z.values * u_eps.phi.values)
        assert abs(inner) < 1e-12

    def test_zero_eigenfunction_rejected(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        from ergodica.eigen import EigenPair
        zero_pair = EigenPair(
            lam=1.0, phi=eg.GridFunction(grid, np.zeros(grid.shape)),
            residual=0.0, cw_lower=0.0, cw_upper=0.0, iterations=0)
        with pytest.raises(eg.InputError):
            eg.align_eigenfunctions(pair.phi, zero_pair)


def bellman_effective(bs, grid, tg):
    """(the M = -1 cell on `tg`, the closed-form eigenpair of m_minus D^2 on
    `grid`, m_minus = -gamma of that cell), as `run_sweep` makes them."""
    cell = eg.solve_nonlinear_cell(bs, [[-1.0]], tg)[0]
    eff = eg.EffectiveLinear(np.array([[-cell.gamma]]), np.zeros(1), 0.0)
    return cell, eg.effective_eigenpair(eff, grid)


def bellman_expansion(bs, eps, grid, tg):
    """(effective pair, w^eps, report): the Bellman expansion at one eps,
    as a sweep row makes it, with the one cell on `tg` for lambda_bar and
    the traces."""
    cell, pair = bellman_effective(bs, grid, tg)
    prepared = eg.prepare_expansion(pair, cell, cell)
    ops = eg.bellman_operators(bs, eps, grid)
    return (pair, *eg.nonlinear_expansion(pair, eps, prepared, ops))


class TestNonlinearExpansion:
    def test_singleton_matches_linear_pipeline(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        tg = eg.PeriodicGrid(1, 512)
        grid = eg.DomainGrid.unit(1, 1024)
        cs = eg.build_corrector_set(spec, tg)
        eff = eg.effective_linear(spec, cs)
        pair = eg.effective_eigenpair(eff, grid)
        bundle, psi1, _, _ = eg.slow_corrector(eff, cs, pair,
                                               eg.assemble_effective(eff, grid))
        w2 = eg.second_corrector(cs, bundle, 1 / 8)
        bell_pair, exp, rep = bellman_expansion(eg.BellmanSpec([spec]), 1 / 8,
                                                grid, tg)
        assert abs(bell_pair.lam - pair.lam) <= 1e-12 * pair.lam
        assert np.max(np.abs(rep["w2_trace"].values - w2.values)) < 1e-8
        # b = c = 0: the linear psi_1 vanishes too, as w_1 = 0 assumes
        assert np.max(np.abs(psi1.values)) <= 1e-8

    def test_constant_bellman_reduces_to_u(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        tg = eg.PeriodicGrid(1, 128)
        grid = eg.DomainGrid.unit(1, 512)
        pair, exp, rep = bellman_expansion(bs, 1 / 8, grid, tg)
        assert np.max(np.abs(rep["w2_trace"].values)) < 1e-9
        assert np.max(np.abs(exp.values - pair.phi.values)) < 1e-8

    def test_expansion_is_u_plus_eps2_w2_bit_for_bit(self):
        # in 1D w_1 = 0: w_eps is u + eps^2 w_2-trace, with no first-order term
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        tg = eg.PeriodicGrid(1, 128)
        grid = eg.DomainGrid.unit(1, 512)
        for eps in (1 / 8, 1 / 16):
            pair, w_eps, rep = bellman_expansion(bs, eps, grid, tg)
            assert np.max(np.abs(rep["w2_trace"].values)) > 0.1
            np.testing.assert_array_equal(
                w_eps.values, pair.phi.values + eps ** 2 * rep["w2_trace"].values)

    def test_residual_decays_linearly(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        tg = eg.PeriodicGrid(1, 256)
        grid = eg.DomainGrid.unit(1, 2048)
        cell, pe = bellman_effective(bs, grid, tg)
        prepared = eg.prepare_expansion(pe, cell, cell)
        eps_list, resid = [], []
        for m in (8, 16, 32):
            ops = eg.bellman_operators(bs, 1 / m, grid)
            _, rep = eg.nonlinear_expansion(pe, 1 / m, prepared, ops)
            eps_list.append(1 / m)
            resid.append(rep["expansion_residual_interior"])
        slope, _, _ = eg.fit_rate(eps_list, resid)
        assert slope >= 0.9

    def test_cell_residual_within_tolerance(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        tg = eg.PeriodicGrid(1, 256)
        for s in (1.0, -1.0):
            sol, _ = eg.solve_nonlinear_cell(bs, np.array([[s]]), tg, tol=1e-10)
            assert sol.residual <= 1e-10

    def test_2d_rejected(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(2, np.eye(2)), 1, 1)])
        grid = eg.DomainGrid.unit(2, 16)
        op = eg.assemble_oscillatory(bs.controls[0], 1.0, grid)
        pair = eg.principal_eigenpair(op, tol=1e-9)
        with pytest.raises(eg.InputError):
            eg.prepare_expansion(pair, None, None)


class TestCoreResidual:
    def test_closed_window_keeps_end_nodes(self):
        # n = 160 puts nodes at exactly x = 0.1 and x = 0.9; the sweep's
        # linear and Bellman residuals both take the closed window
        g = eg.DomainGrid.unit(1, 160)
        x = g.interior_points()[:, 0]
        for edge in (0.1, 0.9):
            res = np.where(x == edge, 1.0, 0.0)
            assert res.sum() == 1.0
            assert eg.core_residual(g, res) == 1.0
        assert eg.core_residual(g, np.where((x < 0.1) | (x > 0.9), 1.0, 0.0)) \
            == 0.0
