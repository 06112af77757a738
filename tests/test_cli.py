import csv
import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ergodica as eg
from ergodica.cli import (ALL_MEASUREMENTS, CSV_COLUMNS, SweepReport,
                          build_problem, emit_report, main)
from referees import csr, oscillatory_samples


class TestFitRate:
    def test_exact_linear(self):
        eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        slope, C, r2 = eg.fit_rate(eps, [0.3 * e for e in eps])
        assert slope == pytest.approx(1.0, abs=1e-10)
        assert C == pytest.approx(0.3, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic(self):
        eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        slope, _, _ = eg.fit_rate(eps, [0.3 * e ** 2 for e in eps])
        assert slope == pytest.approx(2.0, abs=1e-10)

    def test_noisy_linear(self):
        rng = np.random.default_rng(42)
        eps = [1 / 2 ** k for k in range(3, 9)]
        errs = [0.3 * e * (1 + 0.05 * rng.standard_normal()) for e in eps]
        slope, _, r2 = eg.fit_rate(eps, errs)
        assert 0.9 <= slope <= 1.1
        assert r2 >= 0.98

    def test_nonpositive_rows_dropped(self):
        eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        errs = [0.3 / 8, 0.0, 0.3 / 32, 0.3 / 64]
        slope, _, _ = eg.fit_rate(eps, errs)
        assert slope == pytest.approx(1.0, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(eg.SolverError):
            eg.fit_rate([1 / 8, 1 / 16], [0.1, 0.05])
        with pytest.raises(eg.SolverError):
            eg.fit_rate([1 / 8, 1 / 16, 1 / 32], [0.1, 0.0, 0.0])


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[])
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[1 / 16, 1 / 8])
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[0.3])
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[1 / 8], q=4)
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[1 / 8],
                           measurements=("bogus",))
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig(problem="sin-a", eps_list=[1 / 8], mode="other")

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.125, 0.0625], "q": 16}))
        cfg = eg.SweepConfig.from_file(str(path))
        assert cfg.problem == "sin-a"
        assert cfg.denominators() == [8, 16]

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.125], "bogus": 1}))
        with pytest.raises(eg.ConfigError):
            eg.SweepConfig.from_file(str(path))

    def test_unknown_problem(self):
        with pytest.raises(eg.ConfigError):
            build_problem("no-such-problem")


class TestRunSweep:
    def test_constant_problem_flagged_exact(self):
        cfg = eg.SweepConfig(problem="constant", params={"dim": 1, "a0": 1.0},
                             eps_list=[1 / 4, 1 / 8, 1 / 16], q=16,
                             n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        for row in rep.rows:
            assert row["abs_err_lambda"] <= 1e-9
        assert rep.fits["lambda"] == {"exact": True}

    def test_empty_measurements_metadata_only(self):
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=64, measurements=())
        rep = eg.run_sweep(cfg)
        assert rep.fits == {}
        assert len(rep.rows) == 2
        assert rep.grid["n_cells"] == 16 * 8

    def test_sin_a_decreasing_errors(self):
        cfg = eg.SweepConfig(problem="sin-a", n_torus=256,
                             eps_list=[1 / 8, 1 / 16, 1 / 32, 1 / 64], q=64,
                             measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        errs = [r["abs_err_lambda"] for r in rep.rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert rep.fits["lambda"]["slope"] >= 0.9

    def test_monotone_refinement_constant_stability(self):
        # halving every eps must not inflate the fitted constant by > 2x
        base = eg.SweepConfig(problem="sin-a", n_torus=256,
                              eps_list=[1 / 8, 1 / 16, 1 / 32, 1 / 64], q=32,
                              measurements=("lambda_rate",))
        halved = eg.SweepConfig(problem="sin-a", n_torus=256,
                                eps_list=[1 / 16, 1 / 32, 1 / 64, 1 / 128],
                                q=32, measurements=("lambda_rate",))
        c0 = eg.run_sweep(base).fits["lambda"]["constant"]
        c1 = eg.run_sweep(halved).fits["lambda"]["constant"]
        assert c1 <= 2 * c0

    def test_mode_mismatch_rejected(self):
        cfg = eg.SweepConfig(problem="pucci-1d", eps_list=[1 / 4], q=16,
                             n_torus=64, mode="linear")
        with pytest.raises(eg.ConfigError):
            eg.run_sweep(cfg)

    def test_bellman_residual_decays_linearly(self):
        # the expansion is built on the effective eigenpair, not the
        # oscillatory one; with the latter the residual stalls near 10
        cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                             eps_list=[1 / 8, 1 / 16, 1 / 32, 1 / 64], q=64,
                             n_torus=256,
                             measurements=("lambda_rate", "residual_slope"))
        rep = eg.run_sweep(cfg)
        assert rep.failures == []
        assert rep.fits["residual"]["slope"] >= 0.9

    def test_1d_lambda_eps_matches_dense_eigenvalues(self):
        cfg = eg.SweepConfig(problem="sin-abc", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        spec = build_problem("sin-abc")["spec"]
        grid = eg.DomainGrid.unit(1, rep.grid["n_cells"])
        assert [row["eps"] for row in rep.rows] == cfg.eps_list
        for row in rep.rows:
            L = csr(eg.assemble_oscillatory(spec, row["eps"], grid)).toarray()
            # L phi = -lambda phi: lambda is the eigenvalue of -L of least real part
            ref = np.min(np.linalg.eigvals(-L).real)
            rounding = 16 * np.finfo(float).eps * np.max(np.abs(L).sum(axis=1))
            assert abs(row["lambda_eps"] - ref) <= cfg.tol + rounding

    def test_bellman_cell_solves_do_not_grow_with_eps(self, monkeypatch):
        # lambda_bar is the envelope a_min D^2's first-order a_bar on the
        # n_torus = 32 cells; the expansion alone solves the M = -1 cell, on
        # n_torus and on the trace grid of the rows (n = 128 and 512 cells),
        # each the linear cell of a_min: however many rows, one effective
        # stage and two cells or none
        import ergodica.cli as cli_mod
        real_cell, real_eff = cli_mod.solve_concave_cell, \
            cli_mod.first_order_effective
        calls, effective = [], []

        def counted(envelope, grid):
            calls.append((-1.0, grid.n))
            return real_cell(envelope, grid)

        def counted_eff(spec, grid):
            effective.append(grid.n)
            return real_eff(spec, grid)

        monkeypatch.setattr(cli_mod, "solve_concave_cell", counted)
        monkeypatch.setattr(cli_mod, "first_order_effective", counted_eff)
        for (eps_list, n_t), (meas, cells) in itertools.product(
                (([1 / 4, 1 / 8], 32), ([1 / 4, 1 / 8, 1 / 16, 1 / 32], 128)),
                ((("residual_slope",), 2), (("lambda_rate",), 0))):
            calls.clear(), effective.clear()
            cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                                 eps_list=eps_list, q=16, n_torus=32,
                                 measurements=meas)
            rep = eg.run_sweep(cfg)
            assert len(rep.rows) == len(eps_list)
            assert calls == [(-1.0, 32), (-1.0, n_t)][:cells]
            assert effective == [32]

    @pytest.mark.parametrize("problem, mode, meas, rows_per_eps", [
        ("sin-abc", "linear", ALL_MEASUREMENTS, 1),
        ("sep-2d", "linear", ("lambda_rate", "eigfun_rate", "z_rate"), 1),
        ("bellman-2ctl-1d", "bellman", ("lambda_rate", "residual_slope"), 1),
    ])
    def test_no_effective_eigensolve(self, monkeypatch, problem, mode, meas,
                                     rows_per_eps):
        # the effective pair is a closed form: every inverse iteration is
        # some row's (its operator oscillates), one per 1D row (a Bellman
        # row's is its envelope's) and one per distinct axis of a separable
        # 2D row (sep-2d's two axes are one problem); no row runs Howard
        import ergodica.cli as cli_mod
        import ergodica.eigen as eigen_mod
        solved, howard = [], []
        real_eig, real_howard = eigen_mod.principal_eigenpair, \
            eigen_mod.policy_iteration

        def eig(op, **kwargs):
            solved.append(op)
            return real_eig(op, **kwargs)

        def policy_iteration(*args):
            howard.append(args)
            return real_howard(*args)

        for module in (cli_mod, eigen_mod):
            monkeypatch.setattr(module, "principal_eigenpair", eig)
        monkeypatch.setattr(eigen_mod, "policy_iteration", policy_iteration)
        eps_list = [1 / 4, 1 / 8, 1 / 16]
        rep = eg.run_sweep(eg.SweepConfig(
            problem=problem, mode=mode, eps_list=eps_list, q=16, n_torus=32,
            measurements=meas, timing=False))
        assert rep.failures == [] and len(rep.rows) == 3
        assert all(np.ptp(op.diag) > 0 for op in solved)
        assert howard == [] and len(solved) == rows_per_eps * len(eps_list)

    def test_bellman_residual_ignores_the_last_digits_of_m_minus(
            self, monkeypatch):
        # the bellman-1d grid (n = 16 384) at eps = 1/8: a 2e-14 change of
        # gamma_- moved the residual at its 1e-4 digit when u came from an
        # eigensolve differentiated by 4th-order stencils (1/h^2 times the
        # noise of u); with the closed form it moves u not at all. gamma_- is
        # -a_bar of the envelope's first-order effective stage, and again
        # the gamma of the M = -1 cells of the expansion: all carry the shift
        import dataclasses
        import ergodica.cli as cli_mod
        real_cell, real_eff = cli_mod.solve_concave_cell, \
            cli_mod.first_order_effective
        cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                             eps_list=[1 / 8, 1 / 256], q=64, n_torus=512,
                             measurements=("residual_slope",), timing=False)
        out, shifted = [], []
        for shift in (0.0, 2e-14):
            def shifted_cell(*args, **kwargs):
                cell = real_cell(*args, **kwargs)
                cell.gamma += shift
                shifted.append(("cell", shift))
                return cell

            def shifted_eff(*args, **kwargs):
                eff = real_eff(*args, **kwargs)
                shifted.append(("a_bar", shift))
                return dataclasses.replace(eff, a_bar=eff.a_bar - shift)

            monkeypatch.setattr(cli_mod, "solve_concave_cell", shifted_cell)
            monkeypatch.setattr(cli_mod, "first_order_effective", shifted_eff)
            rep = eg.run_sweep(cfg)
            assert rep.failures == []
            out.append((rep.rows[0]["residual"], rep.lambda_bar))
        residual, lam = zip(*out)
        assert lam[1] != lam[0]  # the shift reaches m_minus and u
        assert shifted == [(kind, shift) for shift in (0.0, 2e-14)
                           for kind in ("a_bar", "cell", "cell")]
        assert residual[0] > 0.1
        assert abs(residual[1] - residual[0]) <= 1e-9 * residual[0]

    def test_linear_core_residual_converges_in_n(self):
        # sin-abc at eps = 1/8, n_torus 512: with u's derivatives by 4th-order
        # stencils the core residual read 0.092 at n = 4 096 and 20 140 at
        # n = 65 536 (round-off times 1/h^3); exact derivatives hold it
        import ergodica.cli as cli_mod
        spec = build_problem("sin-abc")["spec"]
        config = eg.SweepConfig(problem="sin-abc", eps_list=[1 / 8],
                                n_torus=512)
        core = []
        for n in (4096, 65536):
            grid = eg.DomainGrid.unit(1, n)
            pair, slow = cli_mod._linear_effective(spec, grid, config, [1 / 8])
            _, res = eg.linear_expansion(
                pair, slow, 1 / 8, eg.assemble_oscillatory(spec, 1 / 8, grid))
            core.append(eg.core_residual(grid, res))
        assert 0.05 < core[0] < 0.2
        assert abs(core[1] - core[0]) <= 0.2 * core[0]

    def test_bellman_rows_make_one_eigensolve(self, monkeypatch):
        # each row solves the envelope's linear eigenproblem once, started
        # from the homogenized eigenfunction
        import ergodica.cli as cli_mod
        real_eig = cli_mod.principal_eigenpair
        calls = []

        def eig(op, **kwargs):
            pair = real_eig(op, **kwargs)
            calls.append((kwargs.get("x0"), op, pair))
            return pair

        effective = []
        real_effective = cli_mod.effective_eigenpair
        monkeypatch.setattr(cli_mod, "principal_eigenpair", eig)
        monkeypatch.setattr(cli_mod, "effective_eigenpair",
                            lambda *a, **k: effective.append(
                                real_effective(*a, **k)) or effective[-1])
        cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                             eps_list=[1 / 4, 1 / 8, 1 / 16], q=16, n_torus=32,
                             timing=False)
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(calls) == 3 and len(effective) == 1
        assert all(x0 is effective[0].phi for x0, _, _ in calls)
        envelope = build_problem("bellman-2ctl-1d")["spec"].envelope()
        grid = eg.DomainGrid.unit(1, rep.grid["n_cells"])
        for row, (_, op, pair) in zip(rep.rows, calls, strict=True):
            ref = eg.assemble_oscillatory(envelope, row["eps"], grid)
            assert op.diag.tobytes() == ref.diag.tobytes()
            assert row["lambda_eps"] == pair.lam

    @pytest.mark.parametrize("meas", [("lambda_rate",),
                                      ("lambda_rate", "residual_slope")])
    def test_bellman_sweep_runs_no_howard(self, monkeypatch, meas):
        # a 1D Bellman sweep is the linear sweep of its envelope a_min D^2:
        # no nonlinear cell, no Howard loop and no Bellman eigensolve, one
        # eigensolve per row; only the residual assembles the controls
        import ergodica.cli as cli_mod
        import ergodica.eigen as eigen_mod
        import ergodica.torus as torus_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a Bellman sweep ran Howard")

        for module, name in ((torus_mod, "solve_nonlinear_cell"),
                             (torus_mod, "policy_iteration"),
                             (eigen_mod, "policy_iteration")):
            monkeypatch.setattr(module, name, forbidden)
        solves, built = [], []
        real_eig, real_ops = cli_mod.principal_eigenpair, \
            cli_mod.bellman_operators
        monkeypatch.setattr(cli_mod, "principal_eigenpair",
                            lambda op, **k: solves.append(op) or real_eig(op, **k))
        monkeypatch.setattr(cli_mod, "bellman_operators",
                            lambda *a: built.append(a) or real_ops(*a))
        eps_list = [1 / 4, 1 / 8, 1 / 16]
        rep = eg.run_sweep(eg.SweepConfig(
            problem="bellman-2ctl-1d", mode="bellman", eps_list=eps_list, q=16,
            n_torus=32, measurements=meas, timing=False))
        assert rep.failures == [] and len(rep.rows) == 3
        assert len(solves) == len(eps_list)
        assert len(built) == (len(eps_list) if "residual_slope" in meas else 0)

    def test_linear_rows_start_from_the_expansion(self, monkeypatch):
        # a 1D row that computes v_eps starts inverse iteration from
        # max(u + v_eps, u/2): the bracket overlaps a cold solve of the same
        # operator, in strictly fewer iterations (from eps = 1/8 on; at
        # eps = 1/4 the start is no better than ones)
        import ergodica.cli as cli_mod
        real = cli_mod.principal_eigenpair
        rows = []

        def eig(op, **kwargs):
            pair = real(op, **kwargs)
            rows.append((op, kwargs.get("x0"), pair))
            return pair

        monkeypatch.setattr(cli_mod, "principal_eigenpair", eig)
        cfg = eg.SweepConfig(problem="sin-abc", eps_list=[1 / 8, 1 / 16, 1 / 32],
                             q=16, n_torus=32, tol=1e-9,
                             measurements=["v_norm", "residual_slope"])
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(rows) == 3
        for (op, x0, seeded), row in zip(rows, rep.rows):
            assert x0.shape == (csr(op).shape[0],) and x0.min() > 0
            assert row["lambda_eps"] == seeded.lam
            cold = real(op, tol=1e-9)
            assert seeded.cw_lower <= cold.cw_upper
            assert cold.cw_lower <= seeded.cw_upper
            assert seeded.iterations < cold.iterations

    @pytest.mark.parametrize("problem, starts", [
        ("sin-abc", [True, True]),
        # both row eigenpairs are one axis solve each, since the two axes
        # of sep-2d are one problem; the effective pair is a closed form,
        # solved by neither
        ("sep-2d", [False] * 2),
    ], ids=["sin-abc", "sep-2d"])
    def test_linear_rows_start_from_effective_eigenfunction(
            self, monkeypatch, problem, starts):
        # every row hands u to its eigensolve: a 1D row, assembled from its
        # fast coordinates, to principal_eigenpair, which starts inverse
        # iteration from it; a 2D row to linear_eigenpair as a function that
        # reads it, which the separable axis solves never call
        import ergodica.cli as cli_mod
        import ergodica.eigen as eigen_mod
        real_linear = cli_mod.linear_eigenpair
        real_eig = eigen_mod.principal_eigenpair
        calls, seeded = [], []

        def linear(grid, *samples, **kwargs):
            out = real_linear(grid, *samples, **kwargs)
            calls.append((kwargs.get("x0"), out[0]))
            return out

        def eig(op, **kwargs):
            seeded.append(kwargs.get("x0") is not None)
            return real_eig(op, **kwargs)

        def row_eig(op, **kwargs):
            pair = eig(op, **kwargs)
            calls.append((kwargs.get("x0"), pair))
            return pair

        effective = []
        real_effective = cli_mod.effective_eigenpair
        monkeypatch.setattr(cli_mod, "linear_eigenpair", linear)
        monkeypatch.setattr(eigen_mod, "principal_eigenpair", eig)
        monkeypatch.setattr(cli_mod, "principal_eigenpair", row_eig)
        monkeypatch.setattr(cli_mod, "effective_eigenpair",
                            lambda *a, **k: effective.append(
                                real_effective(*a, **k)) or effective[-1])
        cfg = eg.SweepConfig(problem=problem, eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=32, timing=False)
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(calls) == 2 and len(effective) == 1
        assert all((x0() if callable(x0) else x0) is effective[0].phi
                   for x0, _ in calls)
        assert seeded == starts

    def test_separable_2d_rows_factor_only_the_torus_cell(self, monkeypatch):
        # criterion 10's sweep: each sep-2d row is a Kronecker sum of two
        # tridiagonal eigensolves, and lambda_bar reads a_bar, b_bar, c_bar
        # off the invariant measure of the one Kronecker cell factor, which
        # never solves: no SuperLU factor, no eigh, no corrector
        import scipy.sparse.linalg as spla

        import ergodica.torus as torus_mod
        real_splu, real_eigh = spla.splu, np.linalg.eigh
        orders, cells, solves, eighs = [], [], [], []

        def counted(matrix, *args, **kwargs):
            orders.append(matrix.shape[0])
            return real_splu(matrix, *args, **kwargs)

        def eigh(matrix, *args, **kwargs):
            eighs.append(matrix.shape)
            return real_eigh(matrix, *args, **kwargs)

        class CountedCell(torus_mod.KroneckerCellFactor):
            def __init__(self, a):
                cells.append(a.shape)
                super().__init__(a)

            def solve(self, B):
                solves.append(B.shape)
                return super().solve(B)

        monkeypatch.setattr(spla, "splu", counted)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(torus_mod, "KroneckerCellFactor", CountedCell)
        cfg = eg.SweepConfig(problem="sep-2d", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        assert len(rep.rows) == 3 and rep.failures == []
        assert orders == [] and cells == [(64, 64, 2, 2)]
        assert solves == [] and eighs == []

    def test_lambda_only_2d_rows_gather_and_form_no_grid_array(self,
                                                               monkeypatch):
        # a lambda-only sep-2d row decides and solves on its distinct
        # samples: no gather to the nodes, no phi_1 (x) phi_2, no residual
        import ergodica.cli as cli_mod
        import ergodica.domain as domain_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a lambda-only 2D row formed a grid array")

        cfg = dict(problem="sep-2d", eps_list=[1 / 4, 1 / 8, 1 / 16], q=16,
                   n_torus=32, timing=False)
        with monkeypatch.context() as patch:
            for module in (cli_mod, domain_mod):
                patch.setattr(module, "oscillatory_samples", forbidden,
                              raising=False)
            patch.setattr(np, "outer", forbidden)
            rep = eg.run_sweep(eg.SweepConfig(**cfg,
                                              measurements=("lambda_rate",)))
        assert len(rep.rows) == 3 and rep.failures == []
        # the pivot columns read phi and u: the same numbers as from the
        # samples gathered to every node
        rep = eg.run_sweep(eg.SweepConfig(**dict(cfg, eps_list=[1 / 4, 1 / 8]),
                                          measurements=("eigfun_rate",
                                                        "z_rate")))
        assert rep.failures == [] and len(rep.rows) == 2
        spec = cli_mod.build_problem("sep-2d")["spec"]
        grid = eg.DomainGrid.unit(2, rep.grid["n_cells"])
        eff = eg.first_order_effective(spec, eg.PeriodicGrid(2, 32))
        u = eg.effective_eigenpair(eff, grid).phi
        for row in rep.rows:
            eps = row["eps"]
            pair, _ = cli_mod.linear_eigenpair(
                grid, *oscillatory_samples(spec, eps, grid))
            w = eg.pivot_problem(eg.assemble_oscillatory(spec, eps, grid), u,
                                 rep.lambda_bar)
            t_eps, z = eg.align_eigenfunctions(w, pair)
            diff = (1 + t_eps) * pair.phi.values - u.values
            assert row["lambda_eps"] == pair.lam and row["t_eps"] == t_eps
            assert row["eigfun_err"] == np.max(np.abs(diff))
            assert row["z_norm"] == np.max(np.abs(z.values))
            assert row["w_minus_u"] == np.max(np.abs(w.values - u.values))

    @pytest.mark.parametrize("problem, mode, meas", [
        ("sin-abc", "linear", ("lambda_rate",)),
        ("sin-abc", "linear", ("lambda_rate", "v_norm")),
        ("bellman-2ctl-1d", "bellman", ("lambda_rate", "residual_slope")),
        ("sep-2d", "linear", ("lambda_rate",)),
    ])
    def test_rows_report_their_bracket_and_iterations(self, problem, mode,
                                                      meas):
        cfg = eg.SweepConfig(problem=problem, mode=mode, q=16, n_torus=32,
                             eps_list=[1 / 4, 1 / 8, 1 / 16], measurements=meas,
                             timing=False)
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(rep.rows) == 3
        for row in rep.rows:
            assert row["cw_lower"] <= row["lambda_eps"] <= row["cw_upper"]
            assert row["cw_upper"] - row["cw_lower"] <= cfg.tol
            assert type(row["iterations"]) is int and row["iterations"] >= 1
        if problem == "sep-2d":
            # both axes carry a = 1 + sin(2 pi x/eps)/2: brackets and
            # iterations are twice those of one axis, solved with tol/2
            spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
            axis = eg.DomainGrid.unit(1, 256)
            for row in rep.rows:
                pair = eg.principal_eigenpair(
                    eg.assemble_oscillatory(spec, row["eps"], axis),
                    tol=cfg.tol / 2)
                assert row["iterations"] == 2 * pair.iterations
                assert row["cw_lower"] == 2 * pair.cw_lower
                assert row["cw_upper"] == 2 * pair.cw_upper

    @pytest.mark.parametrize("problem", ["sin-abc", "sep-2d"])
    def test_lambda_only_sweeps_solve_no_corrector(self, problem, monkeypatch):
        # lambda_bar needs a_bar, b_bar, c_bar alone: no cell solve, no torus
        # operator and no corrector gradients
        import ergodica.effective as eff_mod
        import ergodica.torus as torus_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a lambda-only sweep solved a corrector")

        for module in (eff_mod, torus_mod):
            for name in ("solve_cell", "assemble_torus_diffusion",
                         "gradient_matrices"):
                monkeypatch.setattr(module, name, forbidden)
        cfg = eg.SweepConfig(problem=problem, eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=32, measurements=("lambda_rate",),
                             timing=False)
        rep = eg.run_sweep(cfg)
        assert len(rep.rows) == 3 and rep.failures == []

    def test_v_norm_sweep_builds_the_hierarchy(self, monkeypatch):
        # v_eps reads the correctors: a 1D sweep with v_norm solves both
        # rounds, on the trace grid (256 cells, eps = 1/4 .. 1/16: the rows
        # are j/64, j/32 and j/16), not on n_torus = 32. Its lambda_bar is
        # the lambda-only one to the bit; its rows
        # start inverse iteration from u + v_eps instead of u, so lambda_eps
        # agrees to the eigensolve's tolerance (1.4e-13 apart at eps = 1/4)
        import ergodica.cli as cli_mod
        import ergodica.effective as eff_mod
        real = eff_mod.solve_cell
        built, rounds = [], []

        def build(spec, grid):
            built.append(grid.n)
            return real_build(spec, grid)

        def solve_cell(a_op, f, grid, lu=None):
            rounds.append(np.shape(f)[1])
            return real(a_op, f, grid, lu=lu)

        real_build = cli_mod.build_corrector_set
        monkeypatch.setattr(cli_mod, "build_corrector_set", build)
        monkeypatch.setattr(eff_mod, "solve_cell", solve_cell)
        reports = [eg.run_sweep(eg.SweepConfig(
            problem="sin-abc", eps_list=[1 / 4, 1 / 8, 1 / 16], q=16,
            n_torus=32, measurements=meas, timing=False))
            for meas in (("lambda_rate", "v_norm"), ("lambda_rate",))]
        assert built == [64] and rounds == [3, 4]
        full, lam_only = reports
        assert full.lambda_bar == lam_only.lambda_bar
        for r, q in zip(full.rows, lam_only.rows, strict=True):
            assert abs(r["lambda_eps"] - q["lambda_eps"]) <= 1e-9
        assert all("v_norm" in r for r in full.rows)

    @pytest.mark.parametrize("problem,mode,meas", [
        ("sin-abc", "linear", ("lambda_rate", "v_norm", "residual_slope")),
        ("bellman-2ctl-1d", "bellman", ("lambda_rate", "residual_slope")),
    ])
    def test_1d_rows_build_fast_coordinates_once(self, problem, mode, meas,
                                                 monkeypatch):
        # assembly (one per control) and expansion share the row's index
        import ergodica.cli as cli_mod
        import ergodica.corrector as corrector_mod
        import ergodica.domain as domain_mod
        real = domain_mod.fast_coordinates
        calls = []

        def counted(grid, eps):
            calls.append(eps)
            return real(grid, eps)

        for module in (cli_mod, corrector_mod, domain_mod):
            monkeypatch.setattr(module, "fast_coordinates", counted)
        eps_list = [1 / 4, 1 / 8, 1 / 16]
        rep = eg.run_sweep(eg.SweepConfig(
            problem=problem, mode=mode, eps_list=eps_list, q=16, n_torus=32,
            measurements=meas, timing=False))
        assert rep.failures == [] and all("residual" in r for r in rep.rows)
        # the effective eigenpair is a closed form: it assembles nothing
        assert calls == eps_list

    def test_separable_2d_pivot_rows_assemble_once(self, monkeypatch):
        # a row that solves with L_eps assembles it once, after the
        # eigensolve; a row that does not never forms it
        import ergodica.cli as cli_mod
        import ergodica.eigen as eigen_mod
        calls = []

        def counting(module):
            real = module.assemble_linear

            def assemble(grid, *samples):
                calls.append((module.__name__, grid.dim))
                return real(grid, *samples)
            monkeypatch.setattr(module, "assemble_linear", assemble)

        counting(cli_mod)
        counting(eigen_mod)
        for meas, per_row in ((("lambda_rate",), 0), (("eigfun_rate",), 1)):
            calls.clear()
            cfg = eg.SweepConfig(problem="sep-2d", eps_list=[1 / 4, 1 / 8],
                                 q=16, n_torus=32, measurements=meas)
            rep = eg.run_sweep(cfg)
            assert rep.failures == []
            assert calls.count(("ergodica.cli", 2)) == 2 * per_row
            assert ("ergodica.eigen", 2) not in calls
        assert all(np.isfinite(row["eigfun_err"]) for row in rep.rows)


class TestEmitReport:
    @pytest.fixture()
    def small_report(self):
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=64, measurements=("lambda_rate",),
                             timing=False)
        return eg.run_sweep(cfg)

    def test_csv_columns_exact(self, small_report, tmp_path):
        paths = emit_report(small_report, format="csv", out_dir=str(tmp_path))
        with open(paths[0]) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == 2
        assert float(rows[0][0]) == 0.25

    def test_empty_report_header_only(self, tmp_path):
        rep = SweepReport(problem="x", mode="linear", lambda_bar=0.0, grid={},
                          measurements=(), rows=[], fits={}, failures=[])
        paths = emit_report(rep, format="csv", out_dir=str(tmp_path))
        lines = open(paths[0]).read().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_json_round_trip(self, small_report, tmp_path):
        paths = emit_report(small_report, format="json",
                               out_dir=str(tmp_path))
        loaded = json.load(open(paths[0]))
        assert loaded == small_report.as_dict()

    def test_determinism_byte_identical(self, small_report, tmp_path):
        p1 = emit_report(small_report, format="csv",
                            out_dir=str(tmp_path / "a"))[0]
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=64, measurements=("lambda_rate",),
                             timing=False)
        rep2 = eg.run_sweep(cfg)
        p2 = emit_report(rep2, format="csv", out_dir=str(tmp_path / "b"))[0]
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unknown_format(self, small_report, tmp_path):
        with pytest.raises(eg.ConfigError):
            emit_report(small_report, format="xml", out_dir=str(tmp_path))


class TestCli:
    @pytest.fixture()
    def cfg_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a",
            "eps_list": [0.125, 0.0625, 0.03125],
            "q": 16, "n_torus": 128,
            "measurements": ["lambda_rate"],
            "timing": False,
        }))
        return str(path)

    def test_effective_command(self, cfg_path, capsys):
        assert main(["effective", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a_bar"][0][0] == pytest.approx(np.sqrt(3) / 2, abs=1e-6)

    @pytest.mark.parametrize("n_torus", [32768, 65536])
    def test_effective_on_fine_torus_grids(self, n_torus, tmp_path, capsys):
        # the cell residual check scales with the operator norm ~ 1/h^2:
        # an absolute one refused these exact closed-form correctors
        # (residual 7.1e-7 and 1.5e-6) with exit 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "sin-abc", "eps_list": [0.125],
                                    "q": 16, "n_torus": n_torus}))
        assert main(["effective", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["a_bar"][0][0] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_effective_constant_2d_scalar_drift(self, tmp_path, capsys):
        # a scalar b0 is the same drift on every axis (it used to crash
        # with a reshape ValueError)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "constant", "params": {"dim": 2, "b0": 1.0},
            "eps_list": [0.25], "q": 16, "n_torus": 16}))
        assert main(["effective", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["b_bar"] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_effective_understated_lambda_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # a spec declaring lambda = 0.5 while a22 = 0 is refused where the
        # config becomes a spec, before any cell solve (the degenerate
        # separable cell it would reach is covered in test_torus)
        import ergodica.cli as cli_mod
        spec = eg.LinearOperatorSpec(
            eg.constant_field(2, np.diag([1.0, 0.0])), 0.5, 1.5)
        monkeypatch.setattr(cli_mod, "build_problem", lambda name, params: {
            "mode": "linear", "spec": spec, "dim": 2})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "constant", "eps_list": [0.25],
                                    "q": 16, "n_torus": 16}))
        assert main(["effective", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: control 0 violates eig a >= lambda_ell = 0.5 by "
            "0.5 at y = (0, 0)\n")

    def test_constant_non_integral_dim_exit_2(self, tmp_path, capsys):
        # a non-integral dim is refused, not truncated to a 1D problem
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "constant", "params": {"dim": 1.7},
            "eps_list": [0.25, 0.125], "q": 16, "n_torus": 16}))
        assert main(["eigen", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "config error: constant: dim must be 1 or 2, got 1.7\n"

    def test_eigen_command(self, cfg_path, capsys, tmp_path):
        out_dir = str(tmp_path / "eig")
        assert main(["eigen", "--config", cfg_path, "--effective",
                     "--out", out_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == pytest.approx(np.sqrt(3) / 2 * np.pi ** 2,
                                              abs=1e-2)
        assert out["cw_lower"] <= out["lambda"] <= out["cw_upper"]
        assert os.path.exists(os.path.join(out_dir, "phi.csv"))

    @pytest.mark.parametrize("problem, mode, meas", [
        ("sin-abc", "linear", ["lambda_rate"]),
        ("sin-abc", "linear", ["lambda_rate", "eigfun_rate", "v_norm"]),
        ("sep-2d", "linear", ["lambda_rate", "eigfun_rate", "z_rate"]),
        ("pucci-1d", "bellman", ["lambda_rate", "residual_slope"]),
        ("bellman-2ctl-1d", "bellman", ["lambda_rate"]),
    ], ids=["sin-abc", "sin-abc-v_norm", "sep-2d", "pucci-1d",
            "bellman-2ctl-1d"])
    def test_eigen_eps_prints_the_sweep_row(self, tmp_path, capsys, problem,
                                            mode, meas):
        # one path per quantity: `eigen --eps` solves the sweep's row, with
        # its start vector (u + v_eps under v_norm) and, for a Bellman
        # problem, on the envelope a_min D^2
        raw = {"problem": problem, "mode": mode,
               "eps_list": [0.25, 0.125, 0.0625], "q": 16, "n_torus": 32,
               "measurements": meas, "timing": False}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["eigen", "--config", str(path), "--eps", "0.125"]) == 0
        out = json.loads(capsys.readouterr().out)
        row, = [r for r in eg.run_sweep(eg.SweepConfig(**raw)).rows
                if r["eps"] == 0.125]
        assert (out["lambda"], out["cw_lower"], out["cw_upper"],
                out["iterations"]) == (row["lambda_eps"], row["cw_lower"],
                                       row["cw_upper"], row["iterations"])

    @pytest.mark.parametrize("problem, mode, meas", [
        ("sin-abc", "linear", ["v_norm", "residual_slope"]),
        ("bellman-2ctl-1d", "bellman", ["residual_slope"]),
    ], ids=["sin-abc", "bellman-2ctl-1d"])
    def test_eigen_eps_outside_eps_list(self, tmp_path, capsys, monkeypatch,
                                        problem, mode, meas):
        # eps = 1/6 is no eps of [1/4, 1/8]: the row's cells are solved on
        # a trace grid that holds its fast coordinates too
        import ergodica.cli as cli_mod
        real, held = cli_mod.trace_grid, []
        monkeypatch.setattr(cli_mod, "trace_grid", lambda grid, eps_list: (
            held.append(list(eps_list)) or real(grid, eps_list)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": problem, "mode": mode, "eps_list": [0.25, 0.125],
            "q": 16, "n_torus": 32, "measurements": meas}))
        assert main(["eigen", "--config", str(path),
                     "--eps", str(1 / 6)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cw_lower"] <= out["lambda"] <= out["cw_upper"]
        assert out["cw_upper"] - out["cw_lower"] <= 1e-9
        assert held and all(1 / 6 in eps_list for eps_list in held)

    def test_eigen_refuses_what_sweep_refuses(self, tmp_path, capsys):
        # a 2D sweep does not measure v_norm; neither does its row in `eigen`
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sep-2d", "eps_list": [0.25, 0.125], "q": 16,
            "n_torus": 32, "measurements": ["lambda_rate", "v_norm"]}))
        for argv in (["sweep", "--out", str(tmp_path / "out")],
                     ["eigen", "--eps", "0.125"]):
            assert main(argv + ["--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                "config error: 2D linear sweeps do not measure ['v_norm']\n")

    def test_bellman_eigen_runs_no_howard(self, tmp_path, capsys,
                                          monkeypatch):
        # `eigen` on a Bellman config is the sweep's envelope row: Howard is
        # reached only through the Python API
        import ergodica.eigen as eigen_mod
        import ergodica.torus as torus_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a Bellman eigen ran Howard")

        for module, name in ((torus_mod, "solve_nonlinear_cell"),
                             (torus_mod, "policy_iteration"),
                             (eigen_mod, "policy_iteration")):
            monkeypatch.setattr(module, name, forbidden)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "bellman-2ctl-1d", "mode": "bellman",
            "eps_list": [0.25, 0.125], "q": 16, "n_torus": 32,
            "measurements": ["lambda_rate", "residual_slope"]}))
        assert main(["eigen", "--config", str(path), "--eps", "0.125"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cw_lower"] <= out["lambda"] <= out["cw_upper"]

    def test_corrector_command(self, cfg_path, capsys, tmp_path):
        out_dir = str(tmp_path / "corr")
        assert main(["corrector", "--config", cfg_path, "--eps", "0.125",
                     "--out", out_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sup_norm_v"] > 0
        for name in ("psi1", "w2_trace", "v_eps"):
            assert os.path.exists(os.path.join(out_dir, name + ".csv"))

    def test_corrector_command_matches_sweep_row(self, tmp_path, capsys):
        # the corrector command and the sweep row share one expansion path,
        # so sup |v_eps| agrees bit for bit
        raw = {"problem": "sin-abc", "eps_list": [0.25, 0.125, 0.0625],
               "q": 16, "n_torus": 32, "measurements": ["v_norm"],
               "timing": False}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["corrector", "--config", str(path), "--eps", "0.125"]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = eg.run_sweep(eg.SweepConfig(**raw)).rows
        row = next(r for r in rows if r["eps"] == 0.125)
        assert out["sup_norm_v"] == row["v_norm"]

    @pytest.mark.parametrize("argv, out_name", [
        (["sweep"], "file"),
        (["eigen", "--effective"], "file/x"),
        (["corrector", "--eps", "0.125"], "file/x"),
    ], ids=["sweep", "eigen", "corrector"])
    def test_out_not_a_directory_exit_2(self, cfg_path, capsys, tmp_path,
                                        argv, out_name):
        (tmp_path / "file").write_text("")
        out = str(tmp_path / out_name)
        assert main(argv + ["--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write ")

    @pytest.mark.parametrize("command", ["eigen", "corrector"])
    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "2"])
    def test_bad_eps_exit_2(self, cfg_path, capsys, command, eps):
        assert main([command, "--config", cfg_path, "--eps", eps]) == 2
        assert capsys.readouterr().err.startswith("config error: --eps ")

    @pytest.mark.parametrize("command", ["eigen", "corrector"])
    @pytest.mark.parametrize("eps", ["0.3", "0.001"])
    def test_eps_outside_sweep_rule_exit_2(self, cfg_path, capsys, command,
                                           eps):
        # --eps obeys the eps_list rule: 0.3 is not 1/m, and 0.001 is finer
        # than eps_list, so the grid would hold < q cells per period
        assert main([command, "--config", cfg_path, "--eps", eps]) == 2
        assert capsys.readouterr().err.startswith("config error: --eps")

    def test_sweep_out_checked_before_sweep(self, cfg_path, capsys, tmp_path,
                                            monkeypatch):
        import ergodica.cli as cli_mod

        def no_sweep(config):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        (tmp_path / "file").write_text("")
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "file")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write ")

    @pytest.mark.parametrize("argv", [
        ["eigen"], ["eigen", "--effective"], ["corrector", "--eps", "0.125"],
    ], ids=["eigen", "eigen-effective", "corrector"])
    def test_out_checked_before_solving(self, cfg_path, capsys, tmp_path,
                                        monkeypatch, argv):
        import ergodica.cli as cli_mod

        def no_problem(name, params=None):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(cli_mod, "build_problem", no_problem)
        (tmp_path / "file").write_text("")
        assert main(argv + ["--config", cfg_path,
                            "--out", str(tmp_path / "file" / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write ")

    def test_sweep_command(self, cfg_path, capsys, tmp_path):
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_path, "--out", out_dir,
                     "--format", "csv"]) == 0
        assert os.path.exists(os.path.join(out_dir, "sweep.csv"))

    def test_config_error_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["sweep", "--config", missing]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"problem": "sin-a", "eps_list": [0.3]}))
        assert main(["sweep", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("overrides", [
        {"eps_list": 0.5},
        {"q": "64"},
        {"n_torus": 2},
        {"params": {"deltaa": 0.9}},
        {"seed": 0},
        # measurements the sweep's mode and dimension do not produce
        {"problem": "sep-2d",
         "measurements": ["lambda_rate", "v_norm", "residual_slope"]},
        {"problem": "pucci-1d", "mode": "bellman",
         "measurements": ["lambda_rate", "eigfun_rate", "z_rate"]},
        {"problem": "pucci-1d", "mode": "bellman",
         "measurements": ["lambda_rate", "v_norm"]},
        # an out that is no path is refused before --out overrides it
        {"out": 5},
        {"out": None},
    ], ids=["eps_list-scalar", "q-string", "n_torus-2", "params-typo",
            "seed-removed", "sep-2d-v-residual", "bellman-eigfun-z",
            "bellman-v", "out-number", "out-null"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.125], "q": 16, "n_torus": 64,
            "measurements": ["lambda_rate"], "timing": False, **overrides}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("config", [
        5,
        {"params": {"delta": "0.5"}},
        {"params": {"delta": False}},
        {"tol": "1e-9"},
        {"tol": -1},
    ], ids=["config-scalar", "params-string", "params-bool", "tol-string",
            "tol-negative"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, config):
        if isinstance(config, dict):
            config = {"problem": "sin-a", "eps_list": [0.125], "q": 16,
                      "n_torus": 64, "measurements": ["lambda_rate"],
                      "timing": False, **config}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("overrides, message", [
        ({"format": "xml"}, "format must be"),
        ({"timing": "false"}, "timing must be"),
        ({"timing": 0}, "timing must be"),
        ({"measurements": "lambda_rate"}, "measurements must be a list"),
        ({"measurements": 5}, "measurements must be a list"),
    ], ids=["format-xml", "timing-string", "timing-int", "measurements-string",
            "measurements-scalar"])
    def test_output_options_rejected_before_sweep(self, tmp_path, capsys,
                                                  monkeypatch, overrides,
                                                  message):
        # a bad report option must fail before any sweep work, not after
        import ergodica.cli as cli_mod

        def no_sweep(config):
            raise AssertionError("the sweep ran on an invalid config")

        monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.125], "q": 16, "n_torus": 64,
            "measurements": ["lambda_rate"], "timing": False, **overrides}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_solver_error_exit_3(self, tmp_path, capsys):
        # an impossible bracket tolerance makes the power iteration give up
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.5], "q": 16, "n_torus": 16,
            "tol": 1e-18}))
        assert main(["eigen", "--config", str(cfg), "--eps", "0.5"]) == 3

    def test_singular_factor_exit_3(self, cfg_path, capsys, monkeypatch):
        # a sampled a = 0 leaves the 1D cell without an invariant measure
        import ergodica.effective as eff_mod
        real = eff_mod.cell_factor
        monkeypatch.setattr(eff_mod, "cell_factor",
                            lambda a, a_op: real(np.where(a == a.max(), 0, a), a_op))
        assert main(["effective", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: 1D cell: coefficient outside")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eigen", "effective", "corrector",
                                         "sweep"])
    def test_mode_contradicting_problem_exit_2(self, tmp_path, capsys,
                                               command):
        # pucci-1d is a Bellman problem and mode defaults to linear: every
        # command refuses it the way `sweep` does ('eigen' used to run the
        # Bellman eigensolve and exit 0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "pucci-1d", "eps_list": [0.25, 0.125], "q": 16,
            "n_torus": 32}))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: problem 'pucci-1d' is 'bellman', config says "
            "'linear'\n")

    def test_sweep_records_per_eps_failures(self, monkeypatch):
        # a failure at one eps is recorded as a reasoned row; the rest survive
        import ergodica.cli as cli_mod
        real = cli_mod.assemble_oscillatory

        def flaky(spec, eps, grid, *fast):
            if eps == 1 / 8:
                raise eg.SolverError("synthetic failure")
            return real(spec, eps, grid, *fast)

        monkeypatch.setattr(cli_mod, "assemble_oscillatory", flaky)
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        assert len(rep.rows) == 2
        assert len(rep.failures) == 1
        assert rep.failures[0]["eps"] == 1 / 8
        assert "synthetic failure" in rep.failures[0]["reason"]

    def test_closed_stdout_exits_without_traceback(self, cfg_path):
        # `ergodica effective ... | head`: the reader has gone before the
        # report is written; the CLI exits non-zero and prints nothing
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ergodica", "effective",
                 "--config", cfg_path],
                stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_console_script_entry_point(self, cfg_path):
        # `python -m ergodica` runs the CLI once, without runpy's warning
        # about a module executed after its package imported it
        proc = subprocess.run(
            [sys.executable, "-m", "ergodica", "effective",
             "--config", cfg_path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "a_bar" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
