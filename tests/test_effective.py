import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse.linalg as spla
from scipy.integrate import quad

import ergodica as eg
from ergodica.cli import build_problem
import ergodica.torus as torus_mod
from ergodica.torus import assemble_torus_diffusion, factor_cell, gradient_matrices


@pytest.fixture(scope="module")
def sin_correctors():
    spec = eg.LinearOperatorSpec(
        eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
        0.5, 1.5, c1=0.6)
    grid = eg.PeriodicGrid(1, 512)
    return spec, eg.build_corrector_set(spec, grid)


def a_fun(y):
    return 1 + 0.5 * np.sin(2 * np.pi * y)


class TestFirstOrderConstants:
    def test_a_bar_harmonic_mean(self, sin_correctors):
        spec, cs = sin_correctors
        eff = eg.effective_linear(spec, cs)
        assert eff.a_bar[0, 0] == pytest.approx(np.sqrt(3) / 2, abs=1e-10)

    def test_b_bar_quadrature(self, sin_correctors):
        spec, cs = sin_correctors
        eff = eg.effective_linear(spec, cs)
        # b = 0.3 cos: integrand b/a is an exact derivative -> b_bar = 0
        assert abs(eff.b_bar[0]) < 1e-10

    def test_c_bar_quadrature(self, sin_correctors):
        spec, cs = sin_correctors
        eff = eg.effective_linear(spec, cs)
        num = quad(lambda y: (0.2 + 0.4 * np.sin(2 * np.pi * y)) / a_fun(y),
                   0, 1, limit=200)[0]
        den = quad(lambda y: 1.0 / a_fun(y), 0, 1, limit=200)[0]
        assert eff.c_bar == pytest.approx(num / den, abs=1e-9)

    def test_chi11_closed_form(self):
        # chi'' = gamma/a - 1 with chi(0) = 0 and periodic chi'
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        grid = eg.PeriodicGrid(1, 1024)
        cs = eg.build_corrector_set(spec, grid)
        sol = cs.chi[(0, 0)]
        gam = np.sqrt(3) / 2
        g = lambda t: gam / a_fun(t) - 1.0
        G = lambda y: quad(g, 0, y, limit=200)[0]
        C = -quad(G, 0, 1, limit=200)[0]
        ys = grid.points()[::32, 0]
        exact = np.array([quad(lambda t: G(t) + C, 0, y, limit=200)[0]
                          for y in ys])
        err = np.max(np.abs(sol.chi.flat[::32] - exact))
        # second-order scheme: error ~ (h^2/12) * chi'' scale ~ 7e-8 at n=1024
        assert err <= 2e-7


class TestThirdOrderConstants:
    def test_symmetric_a_kills_third_order(self):
        # pure sin diffusion: odd symmetry wipes out a_bar_klm
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(1, 512))
        eff = eg.effective_linear(spec, cs)
        assert abs(eff.a_bar_klm[0, 0, 0]) < 1e-10
        assert abs(eff.d_bar) < 1e-12

    def test_generic_field_third_order_converged(self):
        # self-convergence of the second-round constants under refinement
        spec = eg.LinearOperatorSpec(
            eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4),
            0.5, 1.5, c1=0.6)
        effs = []
        for n in (256, 512):
            cs = eg.build_corrector_set(spec, eg.PeriodicGrid(1, n))
            effs.append(eg.effective_linear(spec, cs))
        for attr in ("a_bar_klm", "b_bar_kl", "c_bar_k"):
            x, y = getattr(effs[0], attr), getattr(effs[1], attr)
            assert np.max(np.abs(x - y)) < 1e-6
        assert effs[0].d_bar == pytest.approx(effs[1].d_bar, abs=1e-6)


class TestDegenerate:
    def test_constant_coefficients(self):
        a0, b0, c0 = 1.3, 0.4, -0.2
        spec = eg.LinearOperatorSpec(
            eg.constant_field(1, a0, b0=[b0], c0=c0), 1.3, 1.3, c1=0.4)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(1, 128))
        eff = eg.effective_linear(spec, cs)
        assert eff.a_bar[0, 0] == pytest.approx(a0, abs=1e-12)
        assert eff.b_bar[0] == pytest.approx(b0, abs=1e-12)
        assert eff.c_bar == pytest.approx(c0, abs=1e-12)
        # every corrector vanishes
        for sol in ([cs.nu, cs.xi] + cs.eta + cs.nu1 +
                    list(cs.chi.values()) + list(cs.chi3.values()) +
                    list(cs.eta2.values())):
            assert np.max(np.abs(sol.chi.flat)) < 1e-12
        assert np.max(np.abs(eff.a_bar_klm)) < 1e-12
        assert np.max(np.abs(eff.b_bar_kl)) < 1e-12


def per_column_corrector_set(spec, grid):
    """Reference hierarchy: one solve_cell call per cell problem."""
    d = spec.dim
    avals, bvals, cvals = spec.field.sample(grid.points())
    A = assemble_torus_diffusion(spec.field, grid)
    D = gradient_matrices(grid)
    solve = lambda f: eg.solve_cell(A, f, grid=grid)
    grad = lambda sol: [Dk @ sol.chi.flat for Dk in D]
    col_dot = lambda m, g: sum(avals[:, i, m] * g[i] for i in range(d))
    b_dot = lambda g: sum(bvals[:, i] * g[i] for i in range(d))
    pairs = [(k, l) for k in range(d) for l in range(d)]
    chi = {kl: solve(avals[:, kl[0], kl[1]]) for kl in pairs}
    eta = [solve(bvals[:, k]) for k in range(d)]
    nu = solve(cvals)
    g_chi = {kl: grad(sol) for kl, sol in chi.items()}
    g_eta = [grad(sol) for sol in eta]
    g_nu = grad(nu)
    return eg.CorrectorSet(
        grid, chi, eta, nu,
        {(k, l, m): solve(2.0 * col_dot(m, g_chi[(k, l)]))
         for k, l in pairs for m in range(d)},
        {(k, l): solve(2.0 * col_dot(k, g_eta[l]) + b_dot(g_chi[(k, l)]))
         for k, l in pairs},
        [solve(2.0 * col_dot(k, g_nu) + b_dot(g_eta[k])) for k in range(d)],
        solve(b_dot(g_nu)),
    )


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
def test_block_solves_match_per_column_solves(dim, n):
    field = eg.sin_field_1d(delta=0.5, b_amp=0.3, c0=0.2, c_amp=0.4) \
        if dim == 1 else eg.separable_sin_field_2d(delta=0.5)
    spec = eg.LinearOperatorSpec(field, 0.5, 1.5, c1=0.6)
    grid = eg.PeriodicGrid(dim, n)
    got = solutions(eg.build_corrector_set(spec, grid))
    ref = solutions(per_column_corrector_set(spec, grid))
    assert got.keys() == ref.keys() and len(got) == {1: 7, 2: 22}[dim]
    for key, sol in got.items():
        assert sol.gamma == pytest.approx(ref[key].gamma, abs=1e-10), key
        assert np.max(np.abs(sol.chi.flat - ref[key].chi.flat)) < 1e-10, key


def solutions(cs):
    """Every ErgodicSolution of a CorrectorSet, keyed by (family, index)."""
    out = {}
    for name in ("chi", "eta", "nu", "chi3", "eta2", "nu1", "xi"):
        family = getattr(cs, name)
        items = family.items() if isinstance(family, dict) else \
            enumerate(family) if isinstance(family, list) else [(None, family)]
        out.update({(name, key): sol for key, sol in items})
    return out


@pytest.fixture()
def splu_orders(monkeypatch):
    real = spla.splu
    orders = []

    def counted(matrix, *args, **kwargs):
        orders.append(matrix.shape[0])
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return orders


class TestSeparableCellHierarchy:
    """A 2D cell whose a separates by axis is solved by KroneckerCellFactor;
    SuperLU's factor_cell of the same A is the reference."""

    @pytest.mark.parametrize("problem,params,n", [
        ("sep-2d", {}, 32),
        ("sep-2d", {}, 64),
        ("constant", {"dim": 2, "a0": 1.3, "b0": [0.4, -0.2], "c0": 0.1}, 16),
    ])
    def test_matches_superlu(self, problem, params, n, splu_orders, monkeypatch):
        spec = build_problem(problem, params)["spec"]
        grid = eg.PeriodicGrid(2, n)
        got = solutions(eg.build_corrector_set(spec, grid))
        assert splu_orders == []
        monkeypatch.setattr(torus_mod, "separable_by_axis", lambda a: False)
        ref = solutions(eg.build_corrector_set(spec, grid))
        assert splu_orders == [n * n + 1]
        assert got.keys() == ref.keys() and len(got) == 22
        for key, sol in got.items():
            chi = ref[key].chi.flat
            assert abs(sol.gamma - ref[key].gamma) <= 1e-13, key
            assert np.max(np.abs(sol.chi.flat - chi)) <= \
                1e-12 * (1 + np.max(np.abs(chi))), key

    @pytest.mark.parametrize("n", [32, 128, 256])
    def test_a_bar_closed_form(self, n):
        # a11 depends on y1 alone, so gamma = mu_0 . a11 = n / sum(1 / a11)
        spec = build_problem("sep-2d")["spec"]
        grid = eg.PeriodicGrid(2, n)
        eff = eg.effective_linear(spec, eg.build_corrector_set(spec, grid))
        a11 = spec.field.a(grid.points())[::n, 0, 0]
        closed = n / np.sum(1 / a11)
        assert np.max(np.abs(np.diag(eff.a_bar) - closed)) <= 1e-14
        assert eff.a_bar[0, 1] == eff.a_bar[1, 0] == 0.0

    def test_non_separable_cell_keeps_superlu(self, splu_orders):
        base = eg.separable_sin_field_2d(delta=0.5)

        def a(pts):
            out = base.a(pts)
            out[:, 0, 0] += 0.2 * np.sin(2 * np.pi * (pts[:, 0] + pts[:, 1]))
            return out

        spec = eg.LinearOperatorSpec(eg.CoefficientField(2, a, base.b, base.c),
                                     0.3, 1.7)
        grid = eg.PeriodicGrid(2, 32)
        cs = eg.build_corrector_set(spec, grid)
        assert splu_orders == [grid.npoints + 1]
        # the first round is one block solve against factor_cell, bit for bit
        avals, bvals, cvals = spec.field.sample(grid.points())
        A = assemble_torus_diffusion(spec.field, grid)
        F = np.column_stack([avals[:, 0, 0], avals[:, 0, 1], avals[:, 1, 0],
                             avals[:, 1, 1], bvals[:, 0], bvals[:, 1], cvals])
        ref = eg.solve_cell(A, F, grid, lu=factor_cell(A))
        for sol, r in zip(list(cs.chi.values()) + cs.eta + [cs.nu], ref):
            assert sol.gamma == r.gamma
            assert np.array_equal(sol.chi.values, r.chi.values)
        per_column = solutions(per_column_corrector_set(spec, grid))
        for key, sol in solutions(cs).items():
            assert sol.gamma == pytest.approx(per_column[key].gamma, abs=1e-10)


def node_field(dim, n, a, b, c):
    """Field that takes the samples a (N, d, d), b (N, d), c (N,) at the
    nodes of the n-point torus grid of dimension `dim`."""
    def node(pts):
        idx = np.rint(pts * n).astype(int) % n
        return idx[:, 0] if dim == 1 else idx[:, 0] * n + idx[:, 1]
    return eg.CoefficientField(dim, lambda p: a[node(p)], lambda p: b[node(p)],
                               lambda p: c[node(p)])


def first_order(eff):
    return eff.a_bar, eff.b_bar, eff.c_bar


class TestFirstOrderEffective:
    """`first_order_effective` reads a_bar, b_bar, c_bar off the invariant
    measure: the numbers of the full hierarchy, with no corrector solved."""

    @staticmethod
    def assert_same_as_hierarchy(spec, grid):
        got = eg.first_order_effective(spec, grid)
        ref = eg.effective_linear(spec, eg.build_corrector_set(spec, grid))
        for x, y in zip(first_order(got), first_order(ref), strict=True):
            assert np.array_equal(x, y)
        assert type(got.c_bar) is float
        assert got.asymmetry_defect == ref.asymmetry_defect
        return got

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 64, 257]),
           lo=st.floats(0.2, 2.0), ratio=st.floats(1.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_random_1d_samples_bit_for_bit(self, seed, n, lo, ratio):
        rng = np.random.default_rng(seed)
        a = rng.uniform(lo, lo * ratio, n)[:, None, None]
        field = node_field(1, n, a, rng.uniform(-1, 1, (n, 1)),
                           rng.uniform(-1, 1, n))
        spec = eg.LinearOperatorSpec(field, lo, lo * ratio, c1=1.0)
        self.assert_same_as_hierarchy(spec, eg.PeriodicGrid(1, n))

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 32]),
           lo=st.floats(0.2, 2.0), ratio=st.floats(1.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_random_separable_2d_samples_bit_for_bit(self, seed, n, lo, ratio):
        # a11 varies along axis 0 only, a22 along axis 1 only, a12 = 0; the
        # drift and c are arbitrary node samples
        rng = np.random.default_rng(seed)
        a = np.zeros((n, n, 2, 2))
        a[..., 0, 0] = rng.uniform(lo, lo * ratio, n)[:, None]
        a[..., 1, 1] = rng.uniform(lo, lo * ratio, n)[None, :]
        field = node_field(2, n, a.reshape(-1, 2, 2),
                           rng.uniform(-1, 1, (n * n, 2)),
                           rng.uniform(-1, 1, n * n))
        spec = eg.LinearOperatorSpec(field, lo, lo * ratio, c1=2.0)
        self.assert_same_as_hierarchy(spec, eg.PeriodicGrid(2, n))

    @pytest.mark.parametrize("n", [32, 64])
    def test_superlu_cell_exact_oracle(self, n, splu_orders):
        # a = alpha(y) A0 does not separate, so SuperLU factors the cell.
        # Its operator is diag(alpha) L0 with L0 the constant stencil of
        # A0 : D^2, whose columns sum to 0, so mu ~ 1/alpha on every grid
        # and a_bar = A0 * N / sum(1 / alpha) exactly
        A0 = np.array([[1.0, 0.3], [0.3, 0.8]])

        def alpha(p):
            return 1 + 0.5 * np.sin(2 * np.pi * (p[:, 0] + 2 * p[:, 1])) * \
                np.cos(2 * np.pi * p[:, 1])

        field = eg.CoefficientField(
            2, lambda p: alpha(p)[:, None, None] * A0,
            lambda p: np.zeros((len(p), 2)), lambda p: np.zeros(len(p)))
        spec = eg.LinearOperatorSpec(field, 0.2, 2.0)
        grid = eg.PeriodicGrid(2, n)
        eff = self.assert_same_as_hierarchy(spec, grid)
        assert splu_orders == [n * n + 1, n * n + 1]
        oracle = A0 * grid.npoints / np.sum(1 / alpha(grid.points()))
        assert np.max(np.abs(eff.a_bar - oracle)) <= 1e-14
        assert np.max(np.abs(eff.b_bar)) <= 1e-14 and abs(eff.c_bar) <= 1e-14

    def test_third_order_fields_are_none_and_psi1_refuses(self):
        spec = build_problem("sin-abc")["spec"]
        eff = eg.first_order_effective(spec, eg.PeriodicGrid(1, 32))
        assert eff.a_bar_klm is eff.b_bar_kl is eff.c_bar_k is eff.d_bar is None
        assert eff.as_dict()["d_bar"] is None
        grid = eg.DomainGrid.unit(1, 64)
        x = grid.points()[:, 0]
        bundle = eg.derivative_bundle(eg.GridFunction(grid, np.sin(np.pi * x)), 3)
        with pytest.raises(eg.InputError, match="third-order constants"):
            eg.solve_psi1(eff, bundle, grid, eg.assemble_effective(eff, grid))

    def test_grid_dimension_mismatch(self):
        spec = build_problem("sep-2d")["spec"]
        with pytest.raises(eg.InputError, match="grid dimension"):
            eg.first_order_effective(spec, eg.PeriodicGrid(1, 16))


class TestEffective2D:
    def test_separable_diagonal(self):
        spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5),
                                     0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(2, 64))
        eff = eg.effective_linear(spec, cs)
        hm = np.sqrt(3) / 2
        assert eff.a_bar[0, 0] == pytest.approx(hm, abs=1e-5)
        assert eff.a_bar[1, 1] == pytest.approx(hm, abs=1e-5)
        assert abs(eff.a_bar[0, 1]) < 1e-8
        assert eff.asymmetry_defect < 1e-8

    def test_ellipticity_preserved(self):
        spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5),
                                     0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(2, 48))
        eff = eg.effective_linear(spec, cs)
        eigs = np.linalg.eigvalsh(eff.a_bar)
        assert eigs.min() >= 0.5 - 1e-8
        assert eigs.max() <= 1.5 + 1e-8


@pytest.fixture(scope="module")
def bspec():
    return eg.BellmanSpec([
        eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
        eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
    ])


def fbar(spec, m, grid):
    """F_bar(m): the ergodic constant of the 1D nonlinear cell problem at m."""
    return eg.solve_nonlinear_cell(spec, [[m]], grid)[0].gamma


def fbar_slope(spec, m, grid):
    """Centered-difference derivative of the 1D F_bar at m."""
    step = 1e-4 * (1.0 + abs(m))
    return (fbar(spec, m + step, grid) - fbar(spec, m - step, grid)) / (2 * step)


class TestEffectiveNonlinear:

    def test_upper_envelope_of_linear_values(self, bspec):
        # F_bar(M) >= each frozen-control effective value
        grid = eg.PeriodicGrid(1, 256)
        f1 = fbar(bspec, 1.0, grid)
        assert f1 >= np.sqrt(3) / 2 - 1e-9
        assert f1 >= 1.2 - 1e-9

    def test_convexity_in_m(self, bspec):
        grid = eg.PeriodicGrid(1, 128)
        ms = [-2.0, -0.5, 1.0, 2.5]
        vals = [fbar(bspec, m, grid) for m in ms]
        for i in range(1, len(ms) - 1):
            t = (ms[i] - ms[i - 1]) / (ms[i + 1] - ms[i - 1])
            chord = (1 - t) * vals[i - 1] + t * vals[i + 1]
            assert vals[i] <= chord + 1e-9

    def test_homogeneity(self, bspec):
        grid = eg.PeriodicGrid(1, 128)
        assert fbar(bspec, 2.0, grid) == pytest.approx(
            2 * fbar(bspec, 1.0, grid), abs=1e-8)

    def test_linearize_euler_identity(self, bspec):
        # 1-homogeneous F_bar: dF_bar(M) : M = F_bar(M)
        grid = eg.PeriodicGrid(1, 128)
        assert fbar_slope(bspec, 1.0, grid) == pytest.approx(
            fbar(bspec, 1.0, grid), abs=1e-5)

    def test_pucci_closed_form(self):
        # constant-coefficient Pucci: F_bar(m) = M^+(m) = max(lambda m, Lambda m)
        bspec = eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0))
        grid = eg.PeriodicGrid(1, 64)
        for m in (-1.5, 1.0, 2.0):
            assert fbar(bspec, m, grid) == pytest.approx(max(m, 2 * m),
                                                         abs=1e-10)


class TestEffectiveBellman1D:
    @pytest.mark.parametrize("s", [1, -1])
    def test_sign_cell_is_the_linearization(self, s):
        # F_bar is positively 1-homogeneous: in 1D its derivative at M = s is
        # s * F_bar(s); at s = -1 that is m_minus, a Bellman sweep's
        # effective coefficient
        spec = build_problem("bellman-2ctl-1d")["spec"]
        grid = eg.PeriodicGrid(1, 128)
        slope = s * fbar(spec, float(s), grid)
        assert slope == pytest.approx(fbar_slope(spec, s, grid), abs=1e-9)
        assert spec.lambda_ell <= slope <= spec.Lambda_ell

    def test_convexity_orders_the_controls(self, bspec):
        # F_bar(1) + F_bar(-1) >= 2 F_bar(0) = 0, so m_plus >= m_minus
        grid = eg.PeriodicGrid(1, 64)
        assert fbar(bspec, 1.0, grid) + fbar(bspec, -1.0, grid) >= 0.0

    def test_2d_rejected(self):
        # the effective stage of a Bellman sweep is 1D: a 2D effective pair
        # is refused, with the M = -I cell of the 2D problem
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(2, np.eye(2)), 1, 1)])
        cell = eg.solve_nonlinear_cell(bs, -np.eye(2), eg.PeriodicGrid(2, 16))[0]
        eff = eg.EffectiveLinear(-cell.gamma / 2 * np.eye(2), np.zeros(2), 0.0)
        pair = eg.effective_eigenpair(eff, eg.DomainGrid.unit(2, 16))
        with pytest.raises(eg.InputError):
            eg.prepare_expansion(pair, cell, cell)
