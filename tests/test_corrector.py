import numpy as np
import pytest

import ergodica as eg


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
        D2 = gradient_matrices(tg)[0] @ gradient_matrices(tg)[0]
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
        # eta and nu vanish, so w2 = chi(x/eps) u''(x)
        from ergodica.stencils import TorusInterpolant
        interp = TorusInterpolant(cs.chi[(0, 0)].chi.values)
        manual = interp((x / eps) % 1.0) * bundle.d2[(0, 0)].values
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


def _node_by_node(sol, y):
    """Torus profile evaluated at the fast coordinates y, one node a call."""
    from ergodica.stencils import TorusInterpolant
    interp = TorusInterpolant(sol.chi.values)
    return np.array([interp(p)[0] for p in y])


def _exact_fast(grid, eps):
    """y = x/eps mod 1 at every node of a unit grid, in integers: node i of
    an axis with n cells is x = i/n, and eps = 1/m."""
    n, m = np.array(grid.n), round(1 / eps)
    return np.rint(grid.points() * n).astype(int) * m % n / n


def _reference_w2(cs, bundle, eps):
    grid = bundle.u.grid
    d = grid.dim
    y = _exact_fast(grid, eps)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            out += _node_by_node(cs.chi[(k, l)], y) * bundle.d2[(k, l)].flat
        out += _node_by_node(cs.eta[k], y) * bundle.d1[(k,)].flat
    out += _node_by_node(cs.nu, y) * bundle.u.flat
    return out.reshape(grid.shape)


def _reference_w3(cs, bundle, psi1_bundle, eps):
    grid = bundle.u.grid
    d = grid.dim
    y = _exact_fast(grid, eps)
    out = np.zeros(np.prod(grid.shape))
    for k in range(d):
        for l in range(d):
            for m in range(d):
                out += _node_by_node(cs.chi3[(k, l, m)], y) * \
                    bundle.d3[(k, l, m)].flat
            out += _node_by_node(cs.eta2[(k, l)], y) * bundle.d2[(k, l)].flat
            out += _node_by_node(cs.chi[(k, l)], y) * psi1_bundle.d2[(k, l)].flat
        out += _node_by_node(cs.nu1[k], y) * bundle.d1[(k,)].flat
        out += _node_by_node(cs.eta[k], y) * psi1_bundle.d1[(k,)].flat
    out += _node_by_node(cs.xi, y) * bundle.u.flat
    out += _node_by_node(cs.nu, y) * psi1_bundle.u.flat
    return out.reshape(grid.shape)


class TestDistinctFastCoordinates:
    """The traces evaluate each profile once per distinct y = x/eps mod 1 and
    scatter back; that must equal evaluation at every node, bit for bit.
    y is computed in integers, and agrees with the float x/eps mod 1."""

    @pytest.mark.parametrize("dim, n_cells, eps", [
        (1, 1024, 1 / 8), (1, 512, 1 / 512), (2, 64, 1 / 16)])
    def test_power_of_two_grid_matches_sorted_floats(self, dim, n_cells, eps):
        # x/eps mod 1 is exact here, so sorting it gives the same rows and
        # the same scatter index
        grid = eg.DomainGrid.unit(dim, n_cells)
        rows, inverse = eg.fast_coordinates(grid, eps)
        keys, ref_inverse = np.unique((grid.points() / eps) % 1.0, axis=0,
                                      return_inverse=True)
        np.testing.assert_array_equal(rows, keys)
        np.testing.assert_array_equal(inverse, ref_inverse.ravel())

    @pytest.mark.parametrize("dim, n_cells, m", [
        (1, 512, 7), (1, 24, 5), (2, 12, 4), (2, 96, 6)])
    def test_rows_within_an_ulp_of_float_coordinates(self, dim, n_cells, m):
        grid = eg.DomainGrid.unit(dim, n_cells)
        rows, inverse = eg.fast_coordinates(grid, 1 / m)
        per_axis = n_cells // np.gcd(m, n_cells)
        assert rows.shape == (per_axis ** dim, dim)
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert all(len(np.unique(rows[:, k])) == per_axis for k in range(dim))
        z = grid.points() / (1 / m)
        gap = (rows[inverse] - z + 0.5) % 1.0 - 0.5  # periodic difference
        assert np.all(np.abs(gap) <= np.spacing(z))

    def test_eps_not_a_reciprocal_raises(self):
        with pytest.raises(eg.InputError, match="eps = 1/m"):
            eg.fast_coordinates(eg.DomainGrid.unit(1, 64), 0.3)

    @pytest.mark.parametrize("dim, n_cells, eps", [
        (1, 64, 1 / 8),
        (1, 24, 1 / 5),  # y = 5i/24 mod 1 does not repeat within the grid
        (2, 12, 1 / 4),
        (2, 10, 1 / 3),
    ], ids=["1d-eps-8", "1d-n24-eps-5", "2d-eps-4", "2d-n10-eps-3"])
    def test_traces_match_node_by_node_reference(self, dim, n_cells, eps):
        if dim == 1:
            spec = eg.LinearOperatorSpec(
                eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
                0.5, 1.5, c1=0.6)
        else:
            spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5),
                                         0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(dim, 16))
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


class TestBoundaryCorrectors:
    def test_boundary_exactness(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        bundle = eg.derivative_bundle(pair.phi, 3)
        eps = 1 / 8
        w2 = eg.second_corrector(cs, bundle, eps)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        w3 = eg.third_corrector(cs, bundle, eg.derivative_bundle(psi1, 2), eps)
        z2, z3 = eg.boundary_correctors(spec, eps, grid, w2, w3)
        bidx = grid.boundary_index()
        assert np.max(np.abs(w2.flat[bidx] + z2.flat[bidx])) < 1e-12
        assert np.max(np.abs(w3.flat[bidx] + z3.flat[bidx])) < 1e-12

    def test_zero_trace_gives_zero(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        zero = eg.GridFunction(grid, np.zeros(grid.shape))
        z2, z3 = eg.boundary_correctors(spec, 1 / 8, grid, zero, zero)
        assert np.max(np.abs(z2.values)) < 1e-13
        assert np.max(np.abs(z3.values)) < 1e-13

    def test_maximum_principle_bound(self, linear_1d):
        # anchored correctors vanish at y = 0, so for eps = 1/m the raw trace
        # has zero boundary data; shift by a constant to force nonzero data.
        # the sup bound by boundary data needs a proper operator (c <= 0)
        _, cs, eff, grid, eff_op, pair = linear_1d
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=-0.5, c_amp=0.4),
            0.5, 1.5, c1=0.9)
        bundle = eg.derivative_bundle(pair.phi, 2)
        eps = 1 / 8
        w2 = eg.second_corrector(cs, bundle, eps)
        shifted = eg.GridFunction(grid, w2.values + 0.3)
        zero = eg.GridFunction(grid, np.zeros(grid.shape))
        z2, _ = eg.boundary_correctors(spec, eps, grid, shifted, zero)
        bidx = grid.boundary_index()
        bound = np.max(np.abs(shifted.flat[bidx]))
        assert bound > 0.1
        assert np.max(np.abs(z2.values)) <= bound + 1e-12
        assert np.max(np.abs(z2.flat[bidx] + shifted.flat[bidx])) < 1e-12


class TestFullCorrector:
    def test_formula(self):
        g = eg.DomainGrid.unit(1, 16)
        one = eg.GridFunction(g, np.ones(17))
        zero = eg.GridFunction(g, np.zeros(17))
        exp = eg.full_corrector(one, zero, zero, zero, zero, 0.1)
        assert np.allclose(exp.v_eps.values, 0.1)
        assert exp.sup_norm_v == pytest.approx(0.1)

    def test_all_zero(self):
        g = eg.DomainGrid.unit(1, 16)
        zero = eg.GridFunction(g, np.zeros(17))
        exp = eg.full_corrector(zero, zero, zero, zero, zero, 0.1)
        assert exp.sup_norm_v == 0.0


class TestPivotAndAlignment:
    def test_constant_coefficients_pivot_is_u(self, const_1d):
        spec, cs, eff, grid, eff_op, pair = const_1d
        w = eg.pivot_problem(spec, 1 / 8, grid, pair.phi, pair.lam)
        assert np.max(np.abs(w.values - pair.phi.values)) < 1e-9

    def test_zero_input_guard(self, linear_1d):
        spec, cs, eff, grid, eff_op, pair = linear_1d
        zero = eg.GridFunction(grid, np.zeros(grid.shape))
        w = eg.pivot_problem(spec, 1 / 8, grid, zero, pair.lam)
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
        w = eg.pivot_problem(spec, eps, grid, pair.phi, pair.lam, op=op)
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


def bellman_expansion(bs, pair, eps, grid, tg):
    """The Bellman expansion around `pair` at one eps, as a sweep row makes it."""
    _, cells = eg.effective_bellman_1d(bs, tg)
    prepared = eg.prepare_expansion(bs, pair, grid, pair.lam, cells)
    ops = eg.bellman_operators(bs, eps, grid)
    return eg.nonlinear_expansion(bs, pair, eps, grid, pair.lam, prepared, ops)


class TestNonlinearExpansion:
    def test_singleton_matches_linear_pipeline(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        tg = eg.PeriodicGrid(1, 512)
        grid = eg.DomainGrid.unit(1, 1024)
        cs = eg.build_corrector_set(spec, tg)
        eff = eg.effective_linear(spec, cs)
        eff_op = eg.assemble_effective(eff, grid)
        pair = eg.principal_eigenpair(eff_op, tol=1e-11)
        bundle = eg.derivative_bundle(pair.phi, 3)
        psi1 = eg.solve_psi1(eff, bundle, grid, op=eff_op)
        w2 = eg.second_corrector(cs, bundle, 1 / 8)
        exp, rep = bellman_expansion(eg.BellmanSpec([spec]), pair, 1 / 8,
                                     grid, tg)
        assert np.max(np.abs(rep["w2_trace"].values - w2.values)) < 1e-8
        assert np.max(np.abs(rep["psi1"].values - psi1.values)) < 1e-8

    def test_constant_bellman_reduces_to_u(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        tg = eg.PeriodicGrid(1, 128)
        grid = eg.DomainGrid.unit(1, 512)
        pair, _ = eg.principal_eigenpair_bellman(bs, 1.0, grid, tol=1e-11)
        exp, rep = bellman_expansion(bs, pair, 1 / 8, grid, tg)
        assert np.max(np.abs(rep["w2_trace"].values)) < 1e-9
        assert np.max(np.abs(rep["psi1"].values)) < 1e-8
        assert np.max(np.abs(exp.values - pair.phi.values)) < 1e-8

    def test_psi1_vanishes_to_round_off_in_1d(self):
        # Psi_1 averages d_y of its data against the invariant measure mu:
        # in 1D a_pol * mu is constant and the circulant D_y has zero column
        # sums, so Psi_1 is zero up to round-off in the size of that data
        from ergodica.stencils import bounded_diff_matrix, periodic_diff_matrix
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        tg = eg.PeriodicGrid(1, 128)
        grid = eg.DomainGrid.unit(1, 512)
        pair, _ = eg.principal_eigenpair_bellman(bs, 1.0, grid, tol=1e-11)
        _, rep = bellman_expansion(bs, pair, 1 / 8, grid, tg)
        M = eg.derivative_bundle(pair.phi, 2).d2[(0, 0)].flat
        chi = {s: eg.solve_nonlinear_cell(bs, np.array([[s]]), tg)[0].chi.flat
               for s in (1.0, -1.0)}
        w2 = np.abs(M)[:, None] * np.array([chi[-1.0 if m < 0 else 1.0]
                                            for m in M])
        Dx = bounded_diff_matrix(grid.shape[0], grid.h[0], m=1)
        Dy = periodic_diff_matrix(tg.n, tg.h, m=1)
        data = 2.0 * bs.Lambda_ell * np.abs(Dy @ (Dx @ w2).T).max()
        assert data > 1.0
        assert np.max(np.abs(rep["Psi1"])) <= 1e-12 * data

    def test_residual_decays_linearly(self):
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        tg = eg.PeriodicGrid(1, 256)
        grid = eg.DomainGrid.unit(1, 2048)
        eff_bs, cells = eg.effective_bellman_1d(bs, tg)
        pe, _ = eg.principal_eigenpair_bellman(eff_bs, 1.0, grid, tol=1e-10)
        prepared = eg.prepare_expansion(bs, pe, grid, pe.lam, cells)
        eps_list, resid = [], []
        for m in (8, 16, 32):
            ops = eg.bellman_operators(bs, 1 / m, grid)
            _, rep = eg.nonlinear_expansion(bs, pe, 1 / m, grid, pe.lam,
                                            prepared, ops)
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
            eg.prepare_expansion(bs, pair, grid, pair.lam, {})


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
