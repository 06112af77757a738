import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

import ergodica as eg
from ergodica.cli import build_problem
from ergodica.domain import (assemble_linear, effective_samples, fast_coordinates,
                             properness_shift, shifted_m_matrix)
from ergodica.eigen import _freeze_policy, axis_samples, linear_eigenpair
from ergodica.torus import (CellFactor1D, FactoredOperator,
                            assemble_torus_diffusion)
from referees import (collatz_wielandt, csr, gth_eigenvalue,
                      oscillatory_samples, plain_inverse_iteration,
                      stored_row_sums)


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
        eigs = sla.eig(csr(op).toarray())[0]
        lam_dense = -np.max(eigs.real)
        assert pair.lam == pytest.approx(lam_dense, abs=1e-9)

    def test_collatz_wielandt_bracket(self):
        g = eg.DomainGrid.unit(1, 256)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        pair = eg.principal_eigenpair(op, tol=1e-9)
        assert pair.cw_lower <= pair.lam <= pair.cw_upper
        assert pair.cw_upper - pair.cw_lower <= 1e-9
        lo, hi = collatz_wielandt(op, pair.phi)
        assert lo <= pair.lam + 1e-9 and hi >= pair.lam - 1e-9

    def test_collatz_wielandt_rejects_another_grid(self):
        # a 64-cell phi against a 128-cell operator: an InputError, not an
        # IndexError from reading phi at the operator's interior nodes
        op = linear_op(eg.sin_field_1d(delta=0.5), eg.DomainGrid.unit(1, 128))
        coarse = eg.DomainGrid.unit(1, 64)
        phi = eg.principal_eigenpair(linear_op(eg.sin_field_1d(delta=0.5),
                                               coarse)).phi
        with pytest.raises(eg.InputError, match="phi grid function has shape"):
            collatz_wielandt(op, phi)

    def test_bracket_history_shrinks(self):
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        pair = eg.principal_eigenpair(op, tol=1e-10)
        widths = pair.bracket_history
        assert widths[-1] <= 1e-10
        assert widths[-1] < widths[0]

    def test_iteration_cap_is_named(self, monkeypatch):
        import ergodica.eigen as eigen_mod
        op = linear_op(eg.sin_field_1d(delta=0.5), eg.DomainGrid.unit(1, 128))
        monkeypatch.setattr(eigen_mod, "MAX_POWER_ITER", 2)
        with pytest.raises(eg.IterationError, match="after 2 iterations"):
            eg.principal_eigenpair(op, tol=1e-12)

    def test_random_restarts_agree(self):
        g = eg.DomainGrid.unit(1, 256)
        op = linear_op(eg.sin_field_1d(delta=0.5), g)
        base = eg.principal_eigenpair(op, tol=1e-11)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x0 = rng.uniform(0.05, 3.0, size=csr(op).shape[0])
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
        weights, c_max = dict(op.neighbours), op.c_max
        if defect == "c_max_understated":
            # shift 1 against c = 5: the centre row excess of B is 1 - 5 < 0
            c_max = 0.0
        else:
            # entry (0, 1): interior nodes 0 and 1 are neighbours
            step = (1,) if dim == 1 else (0, 1)
            weights[step] = weights[step].copy()
            weights[step][0] = -1.0
        bad = eg.DiscreteOperator(weights, op.diag, g, c_max)
        with pytest.raises(eg.SolverError, match="not monotone"):
            eg.principal_eigenpair(bad)

    def test_rejects_nonpositive_start(self):
        g = eg.DomainGrid.unit(1, 64)
        op = linear_op(eg.constant_field(1, 1.0), g)
        with pytest.raises(eg.InputError):
            eg.principal_eigenpair(op, x0=np.zeros(csr(op).shape[0]))

    @pytest.mark.parametrize("bad", ["short", "nan", "inf"])
    def test_bad_start_vector_raises(self, bad):
        # a wrong shape or a nonfinite entry is an InputError before any
        # solve, not LAPACK's ValueError or a nonfinite-solve SolverError
        spec = eg.LinearOperatorSpec(eg.constant_field(1, 1.0), 1, 2)
        g = eg.DomainGrid.unit(1, 64)
        op = eg.assemble_oscillatory(spec, 0.5, g)
        n = csr(op).shape[0]
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
        direct = np.max(np.abs(csr(op) @ pair.phi.flat[g.interior_index()]
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
        ni = csr(ops[0]).shape[0]
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
        bs = eg.pucci_controls_1d(eg.PucciSpec(1.0, 2.0))
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
            cell = eg.solve_nonlinear_cell(spec, [[-1.0]], eg.PeriodicGrid(1, 64))[0]
            eff = eg.EffectiveLinear(np.array([[-cell.gamma]]), np.zeros(1), 0.0)
            pair = eg.effective_eigenpair(eff, eg.DomainGrid.unit(1, n))
            cache[problem, n] = spec, pair.phi
        return cache[problem, n]
    return get


def _roundoff_tol(op, tol):
    """tol plus the eigenvalue shift that LU round-off can cause:
    16 u ||L||_inf / sqrt(N)."""
    norm = np.max(np.abs(csr(op)).sum(axis=1))
    return tol + 16 * np.finfo(float).eps * norm / np.sqrt(csr(op).shape[0])


def _effective(a_bar, b_bar=(0.0, 0.0), c_bar=0.0):
    d = len(b_bar)
    return eg.EffectiveLinear(
        a_bar=np.array(a_bar, dtype=float), b_bar=np.array(b_bar, dtype=float),
        c_bar=c_bar, a_bar_klm=np.zeros((d, d, d)), b_bar_kl=np.zeros((d, d)),
        c_bar_k=np.zeros(d), d_bar=0.0)


def _effective_pair(eff, grid, tol=1e-9):
    """`linear_eigenpair` of the effective constants, one row for all nodes."""
    samples, at = effective_samples(eff, grid)
    return linear_eigenpair(grid, *samples, tol=tol, at=at)[0]


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
        kron = _effective_pair(eff, grid, tol=tol)
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
        direct = np.max(np.abs(csr(op) @ v + kron.lam * v))
        norm = np.max(np.abs(csr(op)).sum(axis=1))
        assert kron.residual == pytest.approx(
            direct, abs=16 * np.finfo(float).eps * norm)
        # far from convergence the residual is well above round-off
        loose = _effective_pair(eff, grid, tol=1e-2)
        v = loose.phi.flat[grid.interior_index()]
        direct = np.max(np.abs(csr(op) @ v + loose.lam * v))
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
        _effective_pair(_effective([[1.0, 0.0], [0.0, 1.2]]), grid)
        assert calls == []
        cross = _effective([[1.0, 0.2], [0.2, 1.0]])
        pair = _effective_pair(cross, grid)
        assert calls == [grid]
        ref = eg.principal_eigenpair(eg.assemble_effective(cross, grid))
        assert pair.lam == ref.lam

    def test_1d_is_the_assembled_solve(self):
        eff = _effective([[0.9]], b_bar=(0.4,), c_bar=0.3)
        grid = eg.DomainGrid.unit(1, 512)
        pair = _effective_pair(eff, grid, tol=1e-10)
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
    direct = np.max(np.abs(csr(op) @ v + kron.lam * v))
    norm = np.max(np.abs(csr(op)).sum(axis=1))
    assert kron.residual == pytest.approx(
        direct, abs=16 * np.finfo(float).eps * norm)


def test_equal_axes_are_solved_once(monkeypatch):
    """An isotropic separable row (sep-2d) is one axis problem twice: it is
    factored and iterated once, and its pair is bit for bit the Kronecker
    sum of the two axis solves. A c, which sits on axis 0 only, keeps the
    axes apart."""
    import ergodica.eigen as eigen_mod
    spec = build_problem("sep-2d")["spec"]
    grid = eg.DomainGrid.unit(2, 64)
    samples = oscillatory_samples(spec, 1 / 4, grid)
    factors, real_factor = [], eigen_mod.FactoredOperator

    def counting(matrix):
        factors.append(len(matrix.diag))
        return real_factor(matrix)

    monkeypatch.setattr(eigen_mod, "FactoredOperator", counting)
    pair, op = linear_eigenpair(grid, *samples, tol=1e-9)
    assert op is None and factors == [63]
    axis = eg.DomainGrid.unit(1, 64)
    solved = []
    for samples_k in axis_samples(grid, *samples):
        axis_op = assemble_linear(axis, *samples_k)
        axis_pair = eg.principal_eigenpair(axis_op, tol=1e-9 / 2)
        v = axis_pair.phi.values[1:-1]
        solved.append((axis_pair, axis_op @ v + axis_pair.lam * v))
    ref = eigen_mod.KroneckerPair(grid, solved)
    for key in ("lam", "cw_lower", "cw_upper", "iterations", "residual",
                "bracket_history"):
        assert getattr(pair, key) == getattr(ref, key), key
    np.testing.assert_array_equal(pair.phi.values, ref.phi.values)
    factors.clear()
    a, b, c = samples
    linear_eigenpair(grid, a, b, c + 0.25, tol=1e-9)
    assert factors == [63, 63]


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


def random_field_2d(seed, coupling):
    """A random admissible 2D field: a11, b1 and c vary along y1 and a22, b2
    along y2, which makes a Kronecker sum, plus one `coupling` of the axes
    unless it is "none"."""
    rng = np.random.default_rng(seed)
    amp, drift = rng.uniform(0.0, 0.4, 2), rng.uniform(-2.0, 2.0, 2)
    phase = rng.uniform(0.0, 1.0, 5)
    c0, c1 = rng.uniform(-1.0, 1.0, 2)
    wave = lambda t, k: np.sin(2 * np.pi * (t + phase[k]))
    across = lambda t: np.cos(2 * np.pi * t)  # not constant on >= 2 keys

    def a(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = 1 + amp[0] * wave(pts[:, 0], 0)
        out[:, 1, 1] = 1 + amp[1] * wave(pts[:, 1], 1)
        if coupling == "cross":
            out[:, 0, 1] = out[:, 1, 0] = 0.2
        elif coupling == "a11_on_y2":
            out[:, 0, 0] += 0.1 * across(pts[:, 1])
        return out

    def b(pts):
        out = np.stack([drift[0] * wave(pts[:, 0], 2),
                        drift[1] * wave(pts[:, 1], 3)], axis=1)
        if coupling == "b2_on_y1":
            out[:, 1] += 0.3 * across(pts[:, 0])
        return out

    def c(pts):
        out = c0 + c1 * wave(pts[:, 0], 4)
        return out + 0.3 * across(pts[:, 1]) if coupling == "c_on_y2" else out

    return eg.LinearOperatorSpec(eg.CoefficientField(2, a, b, c), 0.3, 1.7)


COUPLINGS = ("none", "cross", "a11_on_y2", "b2_on_y1", "c_on_y2")
# eps = 1/m on n cells; m = 6 divides neither 112 nor most n drawn here
ROWS_2D = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3, 4, 6]),
               n=st.integers(8, 28), coupling=st.sampled_from(COUPLINGS))


def distinct_and_gathered(spec, m, n):
    """The grid, its distinct-row samples with their index `at`, and the
    same samples gathered to every node."""
    grid = eg.DomainGrid.unit(2, n)
    rows, at = fast_coordinates(grid, 1 / m)
    return (grid, spec.field.sample(rows), at,
            oscillatory_samples(spec, 1 / m, grid))


class TestDistinctRows:
    """linear_eigenpair decides and solves on the distinct rows of the fast
    coordinates exactly as on the samples gathered to every node."""

    @given(**ROWS_2D)
    @example(seed=0, m=6, n=112, coupling="none")
    @example(seed=0, m=6, n=112, coupling="c_on_y2")
    @settings(max_examples=40, deadline=None)
    def test_verdict_and_axis_samples_match_the_nodes(self, seed, m, n,
                                                      coupling):
        grid, samples, at, gathered = distinct_and_gathered(
            random_field_2d(seed, coupling), m, n)
        got = axis_samples(grid, *samples, at=at)
        want = axis_samples(grid, *gathered)
        # each axis takes >= 2 fast coordinates (n > m), where the
        # couplings vary
        assert (got is None) == (want is None) == (coupling != "none")
        for got_axis, want_axis in zip(got or (), want or (), strict=True):
            for g, w in zip(got_axis, want_axis, strict=True):
                assert g.shape == (n + 1,)
                np.testing.assert_array_equal(g, w)

    @given(**ROWS_2D)
    @example(seed=0, m=6, n=112, coupling="none")
    @example(seed=0, m=6, n=112, coupling="b2_on_y1")
    @settings(max_examples=25, deadline=None)
    def test_eigenpair_matches_the_gathered_call(self, seed, m, n, coupling):
        grid, samples, at, gathered = distinct_and_gathered(
            random_field_2d(seed, coupling), m, n)
        pair, op = linear_eigenpair(grid, *samples, at=at)
        ref, ref_op = linear_eigenpair(grid, *gathered)
        assert (op is None) == (ref_op is None) == (coupling == "none")
        for key in ("lam", "cw_lower", "cw_upper", "iterations", "residual",
                    "bracket_history"):
            assert getattr(pair, key) == getattr(ref, key), key
        np.testing.assert_array_equal(pair.phi.values, ref.phi.values)

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3, 4, 6]),
           n=st.integers(8, 24))
    @settings(max_examples=25, deadline=None)
    def test_kronecker_bracket_holds_the_assembled_eigenvalue(self, seed, m, n):
        # the Perron root of L_1 (x) I + I (x) L_2 is l_1 + l_2: the axis
        # brackets add into one that holds the 2D solve, up to round-off
        grid, samples, at, _ = distinct_and_gathered(
            random_field_2d(seed, "none"), m, n)
        kron, op = linear_eigenpair(grid, *samples, at=at)
        assert op is None and kron.cw_upper - kron.cw_lower <= 1e-9
        full = assemble_linear(grid, *samples, at=at)
        ref = eg.principal_eigenpair(full, tol=1e-11)
        slack = _roundoff_tol(full, 1e-11)
        assert kron.cw_lower - slack <= ref.lam <= kron.cw_upper + slack
        np.testing.assert_allclose(kron.phi.values, ref.phi.values,
                                   rtol=0, atol=1e-8)


def min_control_spec(spec):
    """The linear spec of a_min(y) = min over the controls of a_beta(y),
    pure second order, as a Bellman spec's ellipticity allows."""
    def a(pts):
        return np.min([ctl.field.a(pts) for ctl in spec.controls], axis=0)

    field = eg.CoefficientField(1, a, lambda pts: np.zeros((len(pts), 1)),
                                lambda pts: np.zeros(len(pts)))
    return eg.LinearOperatorSpec(field, spec.lambda_ell, spec.Lambda_ell)


def m_minus(spec, n_torus):
    """-gamma of the nonlinear cell at M = -1: a Bellman sweep's effective
    coefficient."""
    return -eg.solve_nonlinear_cell(spec, [[-1.0]],
                                    eg.PeriodicGrid(1, n_torus))[0].gamma


def test_bracket_holds_the_perron_value_of_the_stored_matrix():
    # the bracket certifies the matrix the solver factors, B = s I - L_h as
    # stored: sin-abc, eps = 1/16, 4 096 cells, tol 1e-11 (LAPACK's gttrf
    # gave [8.4763762679422, 8.4763762679522] around 8.4763762678969)
    spec = build_problem("sin-abc")["spec"]
    op = eg.assemble_oscillatory(spec, 1 / 16, eg.DomainGrid.unit(1, 4096))
    s = properness_shift(op)
    B, ok, _ = shifted_m_matrix(op, s)
    lower, diag, upper = B.neighbours[(-1,)], B.diag, B.neighbours[(1,)]
    ref = gth_eigenvalue(-lower, -upper,
                         stored_row_sums(s, -lower, diag, -upper))
    pair = eg.principal_eigenpair(op, tol=1e-11)
    assert ok and pair.cw_lower <= ref <= pair.cw_upper


def test_row_eigensolve_narrows_below_the_old_roundoff_floor():
    # sin-abc at eps = 1/8 on the 65 536 cells of the sin-abc-1d sweep: a
    # LAPACK gttrf factor held the bracket 1.5e-9 wide after 500 iterations;
    # cyclic reduction on the stored matrix narrows it to 1e-12 in about 16
    spec = build_problem("sin-abc")["spec"]
    op = eg.assemble_oscillatory(spec, 1 / 8, eg.DomainGrid.unit(1, 65536))
    pair = eg.principal_eigenpair(op, tol=1e-12)
    assert pair.cw_upper - pair.cw_lower <= 1e-12 and pair.iterations <= 30


class SolveSpy:
    """Records the right-hand side of every `FactoredOperator.solve` that
    `eigen` makes; `steps()` names each step's input 'p' when it is the
    previous solve's result over its max (a plain step), 'j' otherwise (an
    extrapolated one); the first input is 's'."""

    def __init__(self, monkeypatch):
        import ergodica.eigen as eigen_mod
        self.log, spy = [], self

        class Factor(FactoredOperator):
            def solve(self, B):
                X = super().solve(B)
                spy.log.append((B.copy(), X.copy()))
                return X

        monkeypatch.setattr(eigen_mod, "FactoredOperator", Factor)

    def steps(self):
        kinds = "s"
        for (_, prev), (rhs, _) in zip(self.log, self.log[1:]):
            kinds += "p" if np.array_equal(rhs, prev / prev.max()) else "j"
        return kinds


def sin_abc_row(eps, n, seeded):
    """The sin-abc row operator at eps on n cells, with the start vector of
    a sweep's row: u, or max(u + v_eps, u/2) when `seeded`."""
    import ergodica.cli as cli_mod
    spec = build_problem("sin-abc")["spec"]
    grid = eg.DomainGrid.unit(1, n)
    config = eg.SweepConfig(problem="sin-abc", eps_list=[eps], n_torus=512)
    op = eg.assemble_oscillatory(spec, eps, grid)
    pair, slow = cli_mod._linear_effective(spec, grid, config,
                                           [eps] if seeded else None)
    u = pair.phi.values
    if not seeded:
        return op, grid.restrict(u)
    exp, _ = eg.linear_expansion(pair, slow, eps, op)
    return op, grid.restrict(np.maximum(u + exp.v_eps.values, u / 2))


class TestAitkenExtrapolation:
    def test_accelerated_bracket_holds_the_stored_matrix_referee(self, monkeypatch):
        # sin-abc at eps = 1/16 on 16 384 cells, seeded with u + v_eps as a
        # sweep row is: the extrapolated iterates still bracket the Perron
        # value of the stored B, in fewer solves than plain iteration
        op, start = sin_abc_row(1 / 16, 16384, seeded=True)
        spy = SolveSpy(monkeypatch)
        pair = eg.principal_eigenpair(op, tol=1e-9, x0=start)
        s = properness_shift(op)
        B, _, _ = shifted_m_matrix(op, s)
        lower, diag, upper = B.neighbours[(-1,)], B.diag, B.neighbours[(1,)]
        ref = gth_eigenvalue(-lower, -upper,
                             stored_row_sums(s, -lower, diag, -upper))
        assert pair.cw_lower <= ref <= pair.cw_upper
        assert pair.cw_upper - pair.cw_lower <= 1e-9
        assert "j" in spy.steps()
        assert pair.iterations < plain_inverse_iteration(op, 1e-9, start)[4]

    def test_lambda_only_and_v_norm_rows_overlap(self):
        # a row's bracket certifies its stored B whatever the start: the
        # lambda-only row (from u) and the v_norm row (from u + v_eps) of
        # sin-abc on 65 536 cells give overlapping brackets
        rows = []
        for meas in (("lambda_rate",), ("lambda_rate", "v_norm")):
            rep = eg.run_sweep(eg.SweepConfig(
                problem="sin-abc", eps_list=[1 / 8, 1 / 16], q=4096,
                n_torus=512, measurements=meas, timing=False))
            assert rep.failures == []
            rows.append(rep.rows)
        for lam_only, v_norm in zip(*rows, strict=True):
            assert max(lam_only["cw_lower"], v_norm["cw_lower"]) <= \
                min(lam_only["cw_upper"], v_norm["cw_upper"]), (lam_only, v_norm)

    @pytest.mark.parametrize("case", ["unseeded-1d", "unseeded-2d", "seeded-2d"])
    def test_plain_solves_are_the_plain_iteration(self, monkeypatch, case):
        # unseeded solves, and every SuperLU one, never extrapolate: the
        # pair is the plain iteration's, bit for bit, residual included
        if case == "unseeded-1d":
            g = eg.DomainGrid.unit(1, 512)
            op, x0 = linear_op(eg.sin_field_1d(delta=0.5, b_amp=0.5), g), None
        else:
            g = eg.DomainGrid.unit(2, 24)
            op = linear_op(eg.constant_field(2, [[1.0, -0.4], [-0.4, 0.7]]), g)
            x0 = None if case == "unseeded-2d" else \
                1.0 + np.arange(len(g.interior_index())) % 3
        spy = SolveSpy(monkeypatch)
        pair = eg.principal_eigenpair(op, tol=1e-10, x0=x0)
        lam, lower, upper, v, its, widths = plain_inverse_iteration(op, 1e-10, x0)
        assert "j" not in spy.steps()
        assert (pair.lam, pair.cw_lower, pair.cw_upper, pair.iterations) == \
            (lam, lower, upper, its)
        assert pair.bracket_history == widths
        assert pair.phi.flat[g.interior_index()].tobytes() == v.tobytes()
        assert pair.residual == float(np.max(np.abs(op @ v + lam * v)))

    def test_widening_jump_ends_the_extrapolation(self, monkeypatch):
        # a start that is 1e-6 on the left half of the interval: the jump
        # after the 10th solve widens the bracket, and every later step is
        # plain; the solve still converges to the plain iteration's bracket
        g = eg.DomainGrid.unit(1, 128)
        op = linear_op(eg.constant_field(1, 1.0, c0=-100.0), g)
        x = g.points()[g.interior_index(), 0]
        start = np.where(x < 0.5, 1e-6, np.sin(np.pi * x))
        spy = SolveSpy(monkeypatch)
        pair = eg.principal_eigenpair(op, tol=1e-9, x0=start)
        steps, widths = spy.steps(), pair.bracket_history
        wider = [k for k in range(1, len(steps))
                 if steps[k] == "j" and widths[k] > widths[k - 1]]
        assert wider and "j" not in steps[wider[0] + 1:]
        assert steps[wider[0] + 1:].count("p") >= 10
        assert widths[-1] <= 1e-9
        _, lower, upper, _, _, _ = plain_inverse_iteration(op, 1e-9, start)
        assert max(lower, pair.cw_lower) <= min(upper, pair.cw_upper)


def axis_referee(a, b, c, n):
    """`gth_eigenvalue` of the 1D effective row (a, b, c) on n cells of
    [0, 1], from the weights of `stencil_weights`."""
    from ergodica.stencils import stencil_weights
    g = eg.DomainGrid.unit(1, n)
    neighbours, _ = stencil_weights(np.reshape(a, (1, 1, 1)),
                                    np.reshape(b, (1, 1)), np.array([c]),
                                    g.h, g.shape, np.array([1]), wrap=False)
    return gth_eigenvalue(np.full(n - 1, neighbours[(-1,)][0]),
                          np.full(n - 1, neighbours[(1,)][0]),
                          np.full(n - 1, c))


class TestClosedFormEffective:
    """The effective pair is the Toeplitz closed form: checked against a
    long-double GTH referee, the assembled eigensolve and exact calculus."""

    @pytest.mark.parametrize("problem, n_torus, n", [
        ("sin-abc", 512, 4096), ("sep-2d", 128, 384),
        ("bellman-2ctl-1d", 512, 4096), ("pucci-1d", 512, 1024)])
    def test_lambda_bar_matches_the_gth_referee(self, problem, n_torus, n):
        spec = build_problem(problem)["spec"]
        if isinstance(spec, eg.BellmanSpec):
            eff = eg.EffectiveLinear(np.array([[m_minus(spec, n_torus)]]),
                                     np.zeros(1), 0.0)
        else:
            eff = eg.first_order_effective(spec, eg.PeriodicGrid(spec.dim,
                                                                 n_torus))
        pair = eg.effective_eigenpair(eff, eg.DomainGrid.unit(spec.dim, n))
        # axis 0 carries c_bar, as the Kronecker sum does
        ref = sum(axis_referee(eff.a_bar[k, k], eff.b_bar[k],
                               eff.c_bar if k == 0 else 0.0, n)
                  for k in range(spec.dim))
        assert abs(pair.lam - ref) <= 1e-13 * ref
        assert pair.iterations == 0
        assert pair.cw_lower <= pair.lam <= pair.cw_upper
        assert pair.cw_upper - pair.cw_lower <= 1e-12 * pair.lam

    @pytest.mark.parametrize("a0, b0, c0", [
        (0.8, 0.0, 0.0), (0.8, 0.7, 0.3),
        (0.05, -6.0, -1.0)])  # upwind rows: |b0| h >= 2 a0
    def test_matches_the_dense_eigenpair(self, a0, b0, c0):
        eff = eg.EffectiveLinear(np.array([[a0]]), np.array([b0]), c0)
        n = 48
        grid = eg.DomainGrid.unit(1, n)
        pair = eg.effective_eigenpair(eff, grid)
        L = csr(eg.assemble_effective(eff, grid)).toarray()
        norm = np.abs(L).sum(axis=1).max()
        ref = axis_referee(a0, b0, c0, n)
        assert abs(pair.lam - ref) <= 1e-13 * abs(ref)
        v = pair.phi.values[1:-1]
        assert np.max(np.abs(L @ v + pair.lam * v)) <= 1e-13 * norm
        assert v.min() > 0 and pair.phi.values.max() == 1.0
        assert pair.phi.values[0] == pair.phi.values[-1] == 0.0
        if b0 == 0.7:  # a mild drift: eig's vector is accurate
            vals, vecs = np.linalg.eig(-L)
            k = np.argmin(vals.real)
            want = np.abs(vecs[:, k].real)
            np.testing.assert_allclose(v, want / want.max(), rtol=0, atol=1e-10)
            assert abs(pair.lam - vals[k].real) <= 1e-12 * norm

    def test_derivatives_are_exact(self):
        # u(x) = C e^(kappa x) sin(pi x): derivatives(0) is phi bit for bit,
        # the others agree with u's derivatives written out by hand
        eff = eg.EffectiveLinear(np.array([[0.8]]), np.array([0.7]), 0.3)
        grid = eg.DomainGrid.unit(1, 256)
        pair = eg.effective_eigenpair(eff, grid)
        np.testing.assert_array_equal(pair.derivatives(0)[0].values,
                                      pair.phi.values)
        lower = 0.8 * 256 ** 2 - 0.7 * 256 / 2
        upper = 0.8 * 256 ** 2 + 0.7 * 256 / 2
        kappa = np.log(lower / upper) * 256 / 2
        x = grid.axes[0]
        e, s, c = np.exp(kappa * x), np.sin(np.pi * x), np.cos(np.pi * x)
        scale = 1.0 / np.max(e * s)
        w = np.pi
        exact = [e * s, e * (kappa * s + w * c),
                 e * ((kappa ** 2 - w ** 2) * s + 2 * kappa * w * c),
                 e * ((kappa ** 3 - 3 * kappa * w ** 2) * s
                      + (3 * kappa ** 2 * w - w ** 3) * c)]
        for m, want in enumerate(exact):
            got = pair.derivatives(m)[0].values
            np.testing.assert_allclose(got, scale * want, rtol=0,
                                       atol=1e-9 * np.max(np.abs(want)))

    def test_derivatives_at_once_are_the_single_ones(self):
        # derivatives(1, 2, 3), as slow_corrector takes them, forms all three
        # from one sin, cos and scale: the same bits as derivatives(m) each
        eff = eg.EffectiveLinear(np.array([[0.8]]), np.array([0.7]), 0.3)
        pair = eg.effective_eigenpair(eff, eg.DomainGrid.unit(1, 1000))
        together = pair.derivatives(0, 1, 2, 3)
        assert together[0].values.tobytes() == pair.phi.values.tobytes()
        for m, du in enumerate(together):
            assert du.values.tobytes() == pair.derivatives(m)[0].values.tobytes()
        assert [d.values.tobytes() for d in pair.derivatives(3, 1)] == \
            [together[3].values.tobytes(), together[1].values.tobytes()]

    @pytest.mark.parametrize("dim, d, db", [(1, 2, 2), (2, 1, 1), (1, 1, 2)])
    def test_a_bar_of_another_dimension_is_an_input_error(self, dim, d, db):
        # a 2x2 a_bar on a 1D grid returned the pair of a_bar[0, 0], lambda
        # 9.7434, and a 1x1 one on a 2D grid raised IndexError
        eff = eg.EffectiveLinear(np.eye(d), np.zeros(db), 0.0)
        with pytest.raises(eg.InputError, match=rf"a_bar of shape \({d}, {d}\)"
                           rf" and b_bar of shape \({db},\) on a {dim}D grid"):
            eg.effective_eigenpair(eff, eg.DomainGrid.unit(dim, 8))

    def test_cross_term_keeps_the_eigensolve(self, monkeypatch):
        # a_bar with a cross term does not separate: the assembled
        # eigensolve, the one effective eigensolve left
        import ergodica.eigen as eigen_mod
        calls = []
        real = eigen_mod.principal_eigenpair
        monkeypatch.setattr(eigen_mod, "principal_eigenpair",
                            lambda op, **k: calls.append(op) or real(op, **k))
        grid = eg.DomainGrid.unit(2, 16)
        for a12, solves in ((0.0, 0), (0.3, 1)):
            eff = eg.EffectiveLinear(np.array([[1.0, a12], [a12, 0.8]]),
                                     np.zeros(2), 0.5)
            pair = eg.effective_eigenpair(eff, grid)
            assert len(calls) == solves
            assert pair.cw_lower <= pair.lam <= pair.cw_upper


class TestBellmanIsLinearOfAmin:
    """With pure second-order controls a positive eigenfunction has
    phi'' < 0, where max_beta a_beta phi'' = a_min phi'': a 1D Bellman
    problem is the linear problem of a_min."""

    @pytest.mark.parametrize("problem", ["bellman-2ctl-1d", "pucci-1d"])
    def test_m_minus_is_the_harmonic_mean_of_a_min(self, problem):
        spec = build_problem(problem)["spec"]
        linear = eg.first_order_effective(min_control_spec(spec),
                                          eg.PeriodicGrid(1, 512))
        assert m_minus(spec, 512) == linear.a_bar[0, 0]

    @pytest.mark.parametrize("problem, n", [("bellman-2ctl-1d", 16384),
                                            ("pucci-1d", 4096)])
    def test_row_brackets_overlap_the_a_min_rows(self, problem, n):
        spec = build_problem(problem)["spec"]
        a_min = min_control_spec(spec)
        grid = eg.DomainGrid.unit(1, n)
        for eps in (1 / 8, 1 / 16, 1 / 64):
            bellman, _ = eg.principal_eigenpair_bellman(spec, eps, grid)
            linear = eg.principal_eigenpair(
                eg.assemble_oscillatory(a_min, eps, grid))
            assert bellman.cw_lower <= linear.cw_upper
            assert linear.cw_lower <= bellman.cw_upper

    def test_w2_trace_is_the_linear_trace_of_a_min(self):
        spec = build_problem("bellman-2ctl-1d")["spec"]
        a_min = min_control_spec(spec)
        grid = eg.DomainGrid.unit(1, 2048)
        eps = 1 / 16
        # the cell and the corrector set both on the trace grid
        tg = eg.trace_grid(grid, [eps])
        cells = [eg.solve_nonlinear_cell(spec, [[-1.0]], tg)[0]] * 2
        pair = eg.effective_eigenpair(eg.EffectiveLinear(
            np.array([[-cells[0].gamma]]), np.zeros(1), 0.0), grid)
        prepared = eg.prepare_expansion(pair, *cells)
        _, rep = eg.nonlinear_expansion(pair, eps, prepared,
                                        eg.bellman_operators(spec, eps, grid))
        cs = eg.build_corrector_set(a_min, tg)
        eff = eg.effective_linear(a_min, cs)
        assert eff.a_bar[0, 0] == -cells[0].gamma
        linear = eg.effective_eigenpair(eff, grid)
        bundle, _, _, _ = eg.slow_corrector(eff, cs, linear,
                                            eg.assemble_effective(eff, grid))
        w2 = eg.second_corrector(cs, bundle, eps)
        np.testing.assert_array_equal(linear.phi.values, pair.phi.values)
        # to the last bits: the cell solves sum in another (BLAS) order
        np.testing.assert_allclose(
            rep["w2_trace"].values, w2.values, rtol=0,
            atol=8 * np.finfo(float).eps * np.max(np.abs(w2.values)))
        assert np.max(np.abs(w2.values)) > 0.01

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.3, 2.0), st.floats(0.0, 0.9),
                              st.floats(0.0, 1.0)), min_size=2, max_size=3))
    def test_random_controls_are_their_envelope(self, params):
        # controls a_k(y) = m (1 + r sin(2 pi (y + p))), positive and pure
        # second order: Howard's M = -1 cell is the closed-form cell of
        # a_min with the policy argmin a, bit for bit, and the Bellman
        # eigenvalue lies in the bracket of the envelope's eigensolve
        def control(m, r, p):
            a = lambda pts: (m * (1 + r * np.sin(2 * np.pi * (pts[:, 0] + p)))
                             )[:, None, None]
            field = eg.CoefficientField(1, a, lambda pts: np.zeros((len(pts), 1)),
                                        lambda pts: np.zeros(len(pts)))
            return eg.LinearOperatorSpec(field, m * (1 - r), m * (1 + r))

        spec = eg.BellmanSpec([control(*ps) for ps in params])
        torus = eg.PeriodicGrid(1, 32)
        a = np.array([ctl.field.a(torus.points())[:, 0, 0]
                      for ctl in spec.controls])
        envelope = spec.envelope()
        np.testing.assert_array_equal(
            envelope.field.a(torus.points())[:, 0, 0], a.min(axis=0))
        a_min = min_control_spec(spec)
        ref = eg.solve_cell(assemble_torus_diffusion(a_min.field, torus),
                            -a.min(axis=0), torus,
                            lu=CellFactor1D(a.min(axis=0)))
        cell, policy = eg.solve_nonlinear_cell(spec, [[-1.0]], torus)
        np.testing.assert_array_equal(policy, np.argmin(a, axis=0))
        assert cell.gamma == ref.gamma
        assert cell.chi.values.tobytes() == ref.chi.values.tobytes()

        grid, eps = eg.DomainGrid.unit(1, 64), 1 / 4
        linear = eg.principal_eigenpair(eg.assemble_oscillatory(envelope, eps, grid))
        bellman, _ = eg.principal_eigenpair_bellman(spec, eps, grid, tol=1e-12)
        assert linear.cw_lower <= bellman.lam <= linear.cw_upper
