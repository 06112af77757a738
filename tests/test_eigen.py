import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import ergodica as eg
from ergodica.cli import build_problem
from ergodica.domain import assemble_linear, oscillatory_samples
from ergodica.eigen import _freeze_policy, linear_eigenpair


def linear_op(field, grid):
    avals, bvals, cvals = field.sample(grid.points())
    return assemble_linear(grid, avals, bvals, cvals)


class TestLinearEigen:
    def test_laplacian_1d(self):
        g = eg.DomainGrid.unit(1, 1024)
        pair = eg.principal_eigenpair(linear_op(eg.constant_field(1, 1.0), g),
                                      tol=1e-10)
        assert pair.lam == pytest.approx(np.pi ** 2, abs=1e-3)
        # eigenfunction ~ sin(pi x), sup-normalized positive
        x = g.points()[:, 0]
        assert np.max(np.abs(pair.phi.values - np.sin(np.pi * x))) < 1e-4
        assert pair.phi.values.max() == pytest.approx(1.0)

    def test_laplacian_2d(self):
        g = eg.DomainGrid.unit(2, 64)
        pair = eg.principal_eigenpair(linear_op(eg.constant_field(2, 1.0), g),
                                      tol=1e-9)
        assert pair.lam == pytest.approx(2 * np.pi ** 2, abs=5e-3)

    def test_dense_oracle_small_grid(self):
        field = eg.sin_field_1d(delta=0.5, b_amp=0.5, c0=0.2, c_amp=0.4)
        g = eg.DomainGrid.unit(1, 48)
        op = linear_op(field, g)
        pair = eg.principal_eigenpair(op, tol=1e-11)
        eigs = sla.eig(op.matrix.toarray())[0]
        lam_dense = -np.max(eigs.real)
        assert pair.lam == pytest.approx(lam_dense, abs=1e-9)

    def test_collatz_wielandt_bracket(self):
        g = eg.DomainGrid.unit(1, 256)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        pair = eg.principal_eigenpair(op, tol=1e-9)
        assert pair.cw_lower <= pair.lam <= pair.cw_upper
        assert pair.cw_upper - pair.cw_lower <= 1e-9
        lo, hi = eg.collatz_wielandt(op, pair.phi)
        assert lo <= pair.lam + 1e-9 and hi >= pair.lam - 1e-9

    def test_collatz_wielandt_rejects_another_grid(self):
        # a 64-cell phi against a 128-cell operator: an InputError, not an
        # IndexError from reading phi at the operator's interior nodes
        op = linear_op(eg.sin_field_1d(delta=0.5), eg.DomainGrid.unit(1, 128))
        coarse = eg.DomainGrid.unit(1, 64)
        phi = eg.principal_eigenpair(linear_op(eg.sin_field_1d(delta=0.5),
                                               coarse)).phi
        with pytest.raises(eg.InputError, match="phi grid function has shape"):
            eg.collatz_wielandt(op, phi)

    def test_bracket_history_shrinks(self):
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        pair = eg.principal_eigenpair(op, tol=1e-10)
        widths = pair.bracket_history
        assert widths[-1] <= 1e-10
        assert widths[-1] < widths[0]

    def test_random_restarts_agree(self):
        g = eg.DomainGrid.unit(1, 256)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        base = eg.principal_eigenpair(op, tol=1e-11)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x0 = rng.uniform(0.05, 3.0, size=op.matrix.shape[0])
            p = eg.principal_eigenpair(op, tol=1e-11, x0=x0)
            assert abs(p.lam - base.lam) < 1e-10

    def test_positive_zeroth_order_term_handled(self):
        # c > 0 makes the raw operator non-proper; the shift must absorb it
        field = eg.constant_field(1, 1.0, c0=5.0)
        g = eg.DomainGrid.unit(1, 256)
        pair = eg.principal_eigenpair(linear_op(field, g), tol=1e-9)
        assert pair.lam == pytest.approx(np.pi ** 2 - 5.0, abs=1e-3)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("defect", ["c_max_understated", "negative_offdiag"])
    def test_non_monotone_operator_raises(self, dim, defect):
        g = eg.DomainGrid.unit(dim, 8)
        N = int(np.prod(g.shape))
        cvals = np.zeros(N)
        cvals[N // 2] = 5.0  # the centre node, interior in 1D and 2D
        op = assemble_linear(g, np.broadcast_to(np.eye(dim), (N, dim, dim)),
                             np.zeros((N, dim)), cvals)
        matrix, c_max = op.matrix.tolil(), op.c_max
        if defect == "c_max_understated":
            # shift 1 against c = 5: the centre row excess of B is 1 - 5 < 0
            c_max = 0.0
        else:
            matrix[0, 1] = -1.0  # interior nodes 0 and 1 are neighbours
        bad = eg.DiscreteOperator(matrix.tocsr(), op.boundary, g, c_max)
        with pytest.raises(eg.SolverError, match="not monotone"):
            eg.principal_eigenpair(bad)

    def test_rejects_nonpositive_start(self):
        g = eg.DomainGrid.unit(1, 64)
        op = linear_op(eg.constant_field(1, 1.0), g)
        with pytest.raises(eg.InputError):
            eg.principal_eigenpair(op, x0=np.zeros(op.matrix.shape[0]))

    @pytest.mark.parametrize("bad", ["short", "nan", "inf"])
    def test_bad_start_vector_raises(self, bad):
        # a wrong shape or a nonfinite entry is an InputError before any
        # solve, not LAPACK's ValueError or a nonfinite-solve SolverError
        spec = eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2)
        g = eg.DomainGrid.unit(1, 64)
        op = eg.assemble_oscillatory(spec, 0.5, g)
        n = op.matrix.shape[0]
        x0 = np.ones(n - 1 if bad == "short" else n)
        if bad != "short":
            x0[n // 2] = np.nan if bad == "nan" else np.inf
        samples = oscillatory_samples(spec, 0.5, g)
        solves = (
            lambda: eg.principal_eigenpair(op, x0=x0),
            lambda: linear_eigenpair(g, *samples, x0=x0),
            lambda: eg.principal_eigenpair_bellman(eg.BellmanSpec([spec]), 0.5,
                                                   g, x0=x0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in solves:
                with pytest.raises(eg.InputError, match="starting vector"):
                    solve()

    def test_start_grid_function_is_its_interior(self):
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        u = eg.principal_eigenpair(linear_op(eg.constant_field(1, 1.0), g)).phi
        from_fn = eg.principal_eigenpair(op, x0=u)
        from_vec = eg.principal_eigenpair(op, x0=u.flat[g.interior_index()])
        assert from_fn.lam == from_vec.lam
        assert from_fn.iterations == from_vec.iterations
        coarse = eg.DomainGrid.unit(1, 64)
        other = eg.principal_eigenpair(
            linear_op(eg.constant_field(1, 1.0), coarse)).phi
        with pytest.raises(eg.InputError, match="starting grid function"):
            eg.principal_eigenpair(op, x0=other)

    def test_residual_reported(self):
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.constant_field(1, 1.0), g)
        pair = eg.principal_eigenpair(op, tol=1e-11)
        direct = np.max(np.abs(op.matrix @ pair.phi.flat[g.interior_index()]
                               + pair.lam * pair.phi.flat[g.interior_index()]))
        assert pair.residual == pytest.approx(direct, rel=1e-6, abs=1e-12)


class TestBellmanEigen:
    def test_singleton_matches_linear(self):
        spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
        g = eg.DomainGrid.unit(1, 512)
        for eps in (1 / 8, 1 / 16):
            op = eg.assemble_oscillatory(spec, eps, g)
            lin = eg.principal_eigenpair(op, tol=1e-11)
            bel, _ = eg.principal_eigenpair_bellman(
                eg.BellmanSpec([spec]), eps, g, tol=1e-11)
            assert abs(lin.lam - bel.lam) < 1e-10

    def test_exhaustive_policy_enumeration(self):
        # n=8: 7 interior nodes, 2 controls -> 128 policies; Howard must hit
        # the minimum of the frozen-policy eigenvalues
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
        ])
        g = eg.DomainGrid.unit(1, 8)
        eps = 0.5
        ops = eg.bellman_operators(bs, eps, g)
        pair, _ = eg.principal_eigenpair_bellman(bs, eps, g, tol=1e-12)
        ni = ops[0].matrix.shape[0]
        lams = []
        for bits in itertools.product(range(2), repeat=ni):
            frozen = _freeze_policy(ops, np.array(bits), g)
            lams.append(eg.principal_eigenpair(frozen, tol=1e-12).lam)
        assert pair.lam == pytest.approx(min(lams), abs=1e-9)

    def test_constant_controls_select_smaller_diffusion(self):
        # eigenvalue of a*Laplacian is a*pi^2; sup-form optimal eigenvalue is
        # the min over frozen controls
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
        ])
        g = eg.DomainGrid.unit(1, 256)
        pair, policy = eg.principal_eigenpair_bellman(bs, 1.0, g, tol=1e-10)
        assert pair.lam == pytest.approx(np.pi ** 2, abs=1e-3)
        assert set(policy.tolist()) == {0}

    def test_pucci_eigenvalue(self):
        # M^+ with lambda=1, Lambda=2: the optimal policy at the principal
        # eigenfunction (concave, D^2 phi < 0) freezes a = lambda = 1
        bs = eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0, "plus"))
        g = eg.DomainGrid.unit(1, 512)
        pair, _ = eg.principal_eigenpair_bellman(bs, 1.0, g, tol=1e-10)
        assert pair.lam == pytest.approx(np.pi ** 2, abs=1e-3)

    def test_eigenvalue_rise_raises(self, monkeypatch):
        # Howard's frozen-policy eigenvalues never rise; a rise beyond
        # 10 * tol means the policy oscillates. The controls are ordered so
        # that the first sweep (control 0, a = 2) must switch to a = 1.
        import ergodica.eigen as eigen_mod
        real = eigen_mod.principal_eigenpair
        calls = []

        def rising(op, **kwargs):
            pair = real(op, **kwargs)
            calls.append(pair.lam)
            # the true drop from a = 2 to a = 1 is about pi^2 ~ 10
            pair.lam += 100.0 * len(calls)
            return pair

        monkeypatch.setattr(eigen_mod, "principal_eigenpair", rising)
        bs = eg.BellmanSpec([
            eg.LinearOperatorSpec(eg.constant_field(1, 2.0), 1, 2),
            eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2),
        ])
        g = eg.DomainGrid.unit(1, 64)
        with pytest.raises(eg.IterationError, match="eigenvalue rose"):
            eg.principal_eigenpair_bellman(bs, 1.0, g, tol=1e-10)
        assert len(calls) == 2

    @pytest.mark.parametrize("eps", [1 / 4, 1 / 8, 1 / 16])
    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("problem", ["bellman-2ctl-1d", "pucci-1d"])
    def test_seeded_matches_cold(self, monkeypatch, effective_bellman_u,
                                 problem, n, eps):
        # seeded with the effective eigenfunction, Howard starts at the
        # optimal policy: one frozen-policy eigensolve, the same policy and
        # the same eigenvalue as the cold start from control 0 (optimal
        # from the start on pucci-1d, whose control 0 is a = lambda)
        cold_solves = {"bellman-2ctl-1d": 2, "pucci-1d": 1}[problem]
        import ergodica.eigen as eigen_mod
        spec, u = effective_bellman_u(problem, n)
        real = eigen_mod.principal_eigenpair
        calls = []

        def counted(op, **kwargs):
            calls.append(op)
            return real(op, **kwargs)

        monkeypatch.setattr(eigen_mod, "principal_eigenpair", counted)
        g, tol = eg.DomainGrid.unit(1, n), 1e-9
        cold, cold_policy = eg.principal_eigenpair_bellman(spec, eps, g, tol=tol)
        n_cold = len(calls)
        calls.clear()
        seeded, policy = eg.principal_eigenpair_bellman(spec, eps, g, tol=tol,
                                                        x0=u)
        assert (n_cold, len(calls)) == (cold_solves, 1)
        np.testing.assert_array_equal(policy, cold_policy)
        assert seeded.cw_lower <= cold.cw_upper
        assert cold.cw_lower <= seeded.cw_upper
        assert abs(seeded.lam - cold.lam) <= 10 * tol


    def test_iterations_add_up_over_howard_sweeps(self, monkeypatch):
        # a cold bellman-2ctl-1d solve makes two frozen-policy eigensolves;
        # the pair reports the inverse-power iterations of both
        import ergodica.eigen as eigen_mod
        real = eigen_mod.principal_eigenpair
        counts = []

        def counted(op, **kwargs):
            pair = real(op, **kwargs)
            counts.append(pair.iterations)
            return pair

        monkeypatch.setattr(eigen_mod, "principal_eigenpair", counted)
        spec = build_problem("bellman-2ctl-1d")["spec"]
        pair, _ = eg.principal_eigenpair_bellman(
            spec, 1 / 4, eg.DomainGrid.unit(1, 128), tol=1e-9)
        assert len(counts) == 2 and min(counts) > 0
        assert pair.iterations == sum(counts)


@pytest.fixture(scope="module")
def effective_bellman_u():
    """(problem, n) -> (the catalog problem's BellmanSpec, its effective
    eigenfunction on [0, 1] with n cells), each computed once."""
    cache = {}

    def get(problem, n):
        if (problem, n) not in cache:
            spec = build_problem(problem)["spec"]
            eff, _ = eg.effective_bellman_1d(spec, eg.PeriodicGrid(1, 64))
            pair, _ = eg.principal_eigenpair_bellman(
                eff, 1.0, eg.DomainGrid.unit(1, n))
            cache[problem, n] = spec, pair.phi
        return cache[problem, n]
    return get


def _roundoff_tol(op, tol):
    """tol plus the eigenvalue shift that LU round-off can cause:
    16 u ||L||_inf / sqrt(N)."""
    norm = np.max(np.abs(op.matrix).sum(axis=1))
    return tol + 16 * np.finfo(float).eps * norm / np.sqrt(op.matrix.shape[0])


def _effective(a_bar, b_bar=(0.0, 0.0), c_bar=0.0):
    d = len(b_bar)
    return eg.EffectiveLinear(
        a_bar=np.array(a_bar, dtype=float), b_bar=np.array(b_bar, dtype=float),
        c_bar=c_bar, a_bar_klm=np.zeros((d, d, d)), b_bar_kl=np.zeros((d, d)),
        c_bar_k=np.zeros(d), d_bar=0.0)


class TestEffectiveEigenpair:
    """A 2D effective operator without cross diffusion is solved as the
    Kronecker sum of its two axis operators; it must agree with the
    assembled 2D solve."""

    @pytest.fixture(scope="class")
    def sep_2d(self):
        spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5),
                                     0.5, 1.5)
        cs = eg.build_corrector_set(spec, eg.PeriodicGrid(2, 32))
        return eg.effective_linear(spec, cs)

    def _compare(self, eff, grid, tol):
        kron = eg.effective_eigenpair(eff, grid, tol=tol)
        op = eg.assemble_effective(eff, grid)
        sparse_pair = eg.principal_eigenpair(op, tol=tol)
        assert abs(kron.lam - sparse_pair.lam) <= _roundoff_tol(op, tol)
        assert kron.cw_lower <= sparse_pair.lam <= kron.cw_upper
        assert sparse_pair.cw_lower <= kron.lam <= sparse_pair.cw_upper
        assert kron.cw_upper - kron.cw_lower <= tol
        np.testing.assert_allclose(kron.phi.values, sparse_pair.phi.values,
                                   rtol=0, atol=1e-10)
        assert kron.phi.values.max() == 1.0
        assert np.all(kron.phi.flat[grid.boundary_index()] == 0.0)
        v = kron.phi.flat[grid.interior_index()]
        direct = np.max(np.abs(op.matrix @ v + kron.lam * v))
        norm = np.max(np.abs(op.matrix).sum(axis=1))
        assert kron.residual == pytest.approx(
            direct, abs=16 * np.finfo(float).eps * norm)
        # far from convergence the residual is well above round-off
        loose = eg.effective_eigenpair(eff, grid, tol=1e-2)
        v = loose.phi.flat[grid.interior_index()]
        direct = np.max(np.abs(op.matrix @ v + loose.lam * v))
        assert direct > 1e3 * np.finfo(float).eps * norm
        assert loose.residual == pytest.approx(direct, rel=1e-9)
        return kron

    def test_sep_2d_matches_sparse_path(self, sep_2d):
        assert sep_2d.a_bar[0, 1] == 0.0
        kron = self._compare(sep_2d, eg.DomainGrid.unit(2, 96), 1e-9)
        # two axis solves: the longer one sets the history length
        steps = len(kron.bracket_history)
        assert steps < kron.iterations <= 2 * steps
        assert kron.bracket_history[-1] <= 1e-9

    def test_drift_and_zeroth_order_on_rectangle(self):
        # unequal axes, a drift that upwinds on axis 1, and c_bar: the
        # identity must still hold stencil for stencil
        eff = _effective([[0.8, 0.0], [0.0, 0.3]], b_bar=(0.5, 5.0),
                         c_bar=1.5)
        grid = eg.DomainGrid(2, ((0.0, 1.0), (0.0, 2.0)), (48, 16))
        self._compare(eff, grid, 1e-10)

    def test_cross_diffusion_takes_sparse_path(self, monkeypatch):
        import ergodica.eigen as eigen_mod
        calls = []
        real = eigen_mod.assemble_linear

        def counting(grid, *samples):
            if grid.dim == 2:
                calls.append(grid)
            return real(grid, *samples)

        monkeypatch.setattr(eigen_mod, "assemble_linear", counting)
        grid = eg.DomainGrid.unit(2, 32)
        eg.effective_eigenpair(_effective([[1.0, 0.0], [0.0, 1.2]]), grid)
        assert calls == []
        cross = _effective([[1.0, 0.2], [0.2, 1.0]])
        pair = eg.effective_eigenpair(cross, grid)
        assert calls == [grid]
        ref = eg.principal_eigenpair(eg.assemble_effective(cross, grid))
        assert pair.lam == ref.lam

    def test_1d_is_the_assembled_solve(self):
        eff = _effective([[0.9]], b_bar=(0.4,), c_bar=0.3)
        grid = eg.DomainGrid.unit(1, 512)
        pair = eg.effective_eigenpair(eff, grid, tol=1e-10)
        ref = eg.principal_eigenpair(eg.assemble_effective(eff, grid), tol=1e-10)
        assert pair.lam == ref.lam and pair.residual == ref.residual
        np.testing.assert_array_equal(pair.phi.values, ref.phi.values)


def test_separable_oscillatory_oracle():
    """The sep-2d oscillatory stencil is exactly L_1 (x) I + I (x) L_2, so
    the 2D SuperLU eigensolve must return the sum of the 1D axis
    eigenvalues up to tol and round-off."""
    spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5), 0.5, 1.5)
    eps, n, tol = 1 / 4, 64, 1e-9
    grid = eg.DomainGrid.unit(2, n)
    op = eg.assemble_oscillatory(spec, eps, grid)
    pair = eg.principal_eigenpair(op, tol=tol)
    axis = eg.DomainGrid.unit(1, n)
    x = axis.points()[:, 0]
    a = 1.0 + 0.5 * np.sin(2 * np.pi * ((x / eps) % 1.0))
    axis_pair = eg.principal_eigenpair(
        assemble_linear(axis, a, np.zeros_like(a), np.zeros_like(a)),
        tol=tol / 2)
    slack = _roundoff_tol(op, tol)
    assert pair.lam == pytest.approx(2 * axis_pair.lam, abs=slack)
    # the two certified brackets overlap up to round-off
    assert pair.cw_lower <= 2 * axis_pair.cw_upper + slack - tol
    assert 2 * axis_pair.cw_lower <= pair.cw_upper + slack - tol


def test_separable_oscillatory_row_is_a_kronecker_sum():
    """The sep-2d oscillatory operator goes through the two axis solves and
    agrees with the assembled 2D SuperLU eigensolve."""
    spec = eg.LinearOperatorSpec(eg.separable_sin_field_2d(delta=0.5), 0.5, 1.5)
    eps, tol = 1 / 4, 1e-9
    grid = eg.DomainGrid.unit(2, 64)
    kron, formed = linear_eigenpair(grid, *oscillatory_samples(spec, eps, grid),
                                    tol=tol)
    assert formed is None
    op = eg.assemble_oscillatory(spec, eps, grid)
    ref = eg.principal_eigenpair(op, tol=tol)
    assert abs(kron.lam - ref.lam) <= _roundoff_tol(op, tol)
    assert kron.cw_lower <= ref.lam <= kron.cw_upper
    assert ref.cw_lower <= kron.lam <= ref.cw_upper
    np.testing.assert_allclose(kron.phi.values, ref.phi.values,
                               rtol=0, atol=1e-10)
    v = kron.phi.flat[grid.interior_index()]
    direct = np.max(np.abs(op.matrix @ v + kron.lam * v))
    norm = np.max(np.abs(op.matrix).sum(axis=1))
    assert kron.residual == pytest.approx(
        direct, abs=16 * np.finfo(float).eps * norm)


def _y2(pts):
    return np.sin(2 * np.pi * pts[:, 1])


@pytest.mark.parametrize("change", ["cross", "a11_on_y2", "c_on_y2"])
def test_non_separable_samples_take_the_assembled_path(monkeypatch, change):
    """One coupling between the axes rules out the Kronecker split: the
    operator is assembled once and solved as assembled, bit for bit."""
    import ergodica.eigen as eigen_mod
    base = eg.separable_sin_field_2d(delta=0.5)

    def a(pts):
        out = base.a(pts)
        if change == "cross":
            out[:, 0, 1] = out[:, 1, 0] = 0.1
        elif change == "a11_on_y2":
            out[:, 0, 0] += 0.1 * _y2(pts)
        return out

    def c(pts):
        return 0.3 * _y2(pts) if change == "c_on_y2" else base.c(pts)

    spec = eg.LinearOperatorSpec(eg.CoefficientField(2, a, base.b, c), 0.3, 1.7)
    grid = eg.DomainGrid.unit(2, 32)
    samples = oscillatory_samples(spec, 1 / 4, grid)
    calls = []
    real = eigen_mod.assemble_linear

    def counting(g, *args):
        calls.append(g.dim)
        return real(g, *args)

    monkeypatch.setattr(eigen_mod, "assemble_linear", counting)
    pair, op = linear_eigenpair(grid, *samples)
    assert calls == [2] and op is not None
    ref = eg.principal_eigenpair(eg.assemble_oscillatory(spec, 1 / 4, grid))
    assert pair.lam == ref.lam
