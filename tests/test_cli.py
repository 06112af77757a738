import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import ergodica as eg
from ergodica.cli import CSV_COLUMNS, SweepReport, build_problem, main


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
            L = eg.assemble_oscillatory(spec, row["eps"], grid).matrix.toarray()
            # L phi = -lambda phi: lambda is the eigenvalue of -L of least real part
            ref = np.min(np.linalg.eigvals(-L).real)
            rounding = 16 * np.finfo(float).eps * np.max(np.abs(L).sum(axis=1))
            assert abs(row["lambda_eps"] - ref) <= cfg.tol + rounding

    def test_thread_count_does_not_change_rows(self, monkeypatch):
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",),
                             timing=False)
        rep1 = eg.run_sweep(cfg)
        monkeypatch.setenv("ERGODICA_THREADS", "3")
        rep2 = eg.run_sweep(cfg)
        assert rep1.rows == rep2.rows


    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_bellman_rows_identical_with_threads(self, monkeypatch, threads):
        # threaded rows share the eps-independent expansion and only read it;
        # a short switch interval makes the threads interleave finely
        cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                             eps_list=[1 / 4, 1 / 8, 1 / 16, 1 / 32], q=16,
                             n_torus=32,
                             measurements=("lambda_rate", "residual_slope"),
                             timing=False)
        rep1 = eg.run_sweep(cfg)
        monkeypatch.setenv("ERGODICA_THREADS", threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep2 = eg.run_sweep(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert rep1.failures == [] and rep2.failures == []
        assert all("residual" in row for row in rep1.rows)
        assert rep1.rows == rep2.rows

    def test_bellman_cell_solves_do_not_grow_with_eps(self, monkeypatch):
        # the sign cells at M = +1 and M = -1 serve the effective operator
        # and the expansion: a sweep solves exactly two, however many rows
        import ergodica.effective as eff_mod
        real = eff_mod.solve_nonlinear_cell
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eff_mod, "solve_nonlinear_cell", counted)
        for eps_list in ([1 / 4, 1 / 8], [1 / 4, 1 / 8, 1 / 16, 1 / 32]):
            calls.clear()
            cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                                 eps_list=eps_list, q=16, n_torus=32,
                                 measurements=("residual_slope",))
            rep = eg.run_sweep(cfg)
            assert len(rep.rows) == len(eps_list)
            assert len(calls) == 2

    def test_bellman_rows_make_one_eigensolve(self, monkeypatch):
        # each row starts Howard at the policy that is optimal against the
        # homogenized eigenfunction, which on bellman-2ctl-1d is the row's
        # own optimal policy: one frozen-policy eigensolve per row
        import ergodica.cli as cli_mod
        import ergodica.eigen as eigen_mod
        real_eig = eigen_mod.principal_eigenpair
        real_bellman = cli_mod.principal_eigenpair_bellman
        solves, calls = [], []

        def eig(op, **kwargs):
            solves.append(op)
            return real_eig(op, **kwargs)

        def bellman(*args, **kwargs):
            solves.clear()
            out = real_bellman(*args, **kwargs)
            calls.append((kwargs.get("x0"), out[0], len(solves)))
            return out

        monkeypatch.delenv("ERGODICA_THREADS", raising=False)
        monkeypatch.setattr(eigen_mod, "principal_eigenpair", eig)
        monkeypatch.setattr(cli_mod, "principal_eigenpair_bellman", bellman)
        cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                             eps_list=[1 / 4, 1 / 8, 1 / 16], q=16, n_torus=32,
                             timing=False)
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(calls) == 4
        (x0, u_pair, _), rows = calls[0], calls[1:]
        assert x0 is None
        assert all(x0 is u_pair.phi and n == 1 for x0, _, n in rows)

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

        monkeypatch.delenv("ERGODICA_THREADS", raising=False)
        monkeypatch.setattr(cli_mod, "principal_eigenpair", eig)
        cfg = eg.SweepConfig(problem="sin-abc", eps_list=[1 / 8, 1 / 16, 1 / 32],
                             q=16, n_torus=32, tol=1e-9,
                             measurements=["v_norm", "residual_slope"])
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(rows) == 3
        for (op, x0, seeded), row in zip(rows, rep.rows):
            assert x0.shape == (op.matrix.shape[0],) and x0.min() > 0
            assert row["lambda_eps"] == seeded.lam
            cold = real(op, tol=1e-9)
            assert seeded.cw_lower <= cold.cw_upper
            assert cold.cw_lower <= seeded.cw_upper
            assert seeded.iterations < cold.iterations

    def test_corrector_interpolants_built_once_per_sweep(self, monkeypatch):
        # the seven 1D torus correctors are interpolated before the rows,
        # not once per row and trace
        from ergodica.stencils import TorusInterpolant
        real = TorusInterpolant.__init__
        builds = []

        def counted(self, values):
            builds.append(values)
            real(self, values)

        monkeypatch.delenv("ERGODICA_THREADS", raising=False)
        monkeypatch.setattr(TorusInterpolant, "__init__", counted)
        cfg = eg.SweepConfig(problem="sin-abc", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=32, timing=False,
                             measurements=list(eg.cli.ALL_MEASUREMENTS))
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(rep.rows) == 3
        assert len(builds) == 7

    @pytest.mark.parametrize("problem, starts", [
        ("sin-abc", [False, True, True]),
        # the effective and both row eigenpairs are two axis solves each
        ("sep-2d", [False] * 6),
    ], ids=["sin-abc", "sep-2d"])
    def test_linear_rows_start_from_effective_eigenfunction(
            self, monkeypatch, problem, starts):
        # every row hands u to linear_eigenpair; an assembled row starts
        # inverse iteration from it, the separable 2D axis solves do not
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

        monkeypatch.delenv("ERGODICA_THREADS", raising=False)
        monkeypatch.setattr(cli_mod, "linear_eigenpair", linear)
        monkeypatch.setattr(eigen_mod, "principal_eigenpair", eig)
        cfg = eg.SweepConfig(problem=problem, eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=32, timing=False)
        rep = eg.run_sweep(cfg)
        assert rep.failures == [] and len(calls) == 3
        (x0, u_pair), rows = calls[0], calls[1:]
        assert x0 is None
        assert all(x0 is u_pair.phi for x0, _ in rows)
        assert seeded == starts

    def test_separable_2d_rows_factor_only_the_torus_cell(self, monkeypatch):
        # criterion 10's sweep: each sep-2d row is a Kronecker sum of two
        # tridiagonal eigensolves, and the torus cell is one fast
        # diagonalization, so SuperLU sees no matrix at all
        import ergodica.effective as effective_mod
        import ergodica.torus as torus_mod
        real = torus_mod.splu
        orders, cells = [], []

        def counted(matrix, *args, **kwargs):
            orders.append(matrix.shape[0])
            return real(matrix, *args, **kwargs)

        class CountedCell(torus_mod.KroneckerCellFactor):
            def __init__(self, a):
                cells.append(a.shape)
                super().__init__(a)

        monkeypatch.setattr(torus_mod, "splu", counted)
        monkeypatch.setattr(effective_mod, "KroneckerCellFactor", CountedCell)
        cfg = eg.SweepConfig(problem="sep-2d", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        assert len(rep.rows) == 3 and rep.failures == []
        assert orders == [] and cells == [(64, 64, 2, 2)]

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
        paths = eg.emit_report(small_report, format="csv", out_dir=str(tmp_path))
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
        paths = eg.emit_report(rep, format="csv", out_dir=str(tmp_path))
        lines = open(paths[0]).read().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_json_round_trip(self, small_report, tmp_path):
        paths = eg.emit_report(small_report, format="json",
                               out_dir=str(tmp_path))
        loaded = json.load(open(paths[0]))
        assert loaded == small_report.as_dict()

    def test_determinism_byte_identical(self, small_report, tmp_path):
        p1 = eg.emit_report(small_report, format="csv",
                            out_dir=str(tmp_path / "a"))[0]
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8], q=16,
                             n_torus=64, measurements=("lambda_rate",),
                             timing=False)
        rep2 = eg.run_sweep(cfg)
        p2 = eg.emit_report(rep2, format="csv", out_dir=str(tmp_path / "b"))[0]
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_unknown_format(self, small_report, tmp_path):
        with pytest.raises(eg.ConfigError):
            eg.emit_report(small_report, format="xml", out_dir=str(tmp_path))


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

    def test_effective_degenerate_separable_cell_exit_3(self, tmp_path, capsys,
                                                        monkeypatch):
        # a22 = 0 separates but has no cell solution: a solver error, not a
        # traceback and not a NaN a_bar
        import ergodica.cli as cli_mod
        spec = eg.LinearOperatorSpec(
            eg.constant_field(2, np.diag([1.0, 0.0])), 0.5, 1.5)
        monkeypatch.setattr(cli_mod, "build_problem", lambda name, params: {
            "mode": "linear", "spec": spec, "dim": 2})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "constant", "eps_list": [0.25],
                                    "q": 16, "n_torus": 16}))
        assert main(["effective", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: separable cell: axis 1")
        assert "Traceback" not in captured.err

    def test_eigen_command(self, cfg_path, capsys, tmp_path):
        out_dir = str(tmp_path / "eig")
        assert main(["eigen", "--config", cfg_path, "--effective",
                     "--out", out_dir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lambda"] == pytest.approx(np.sqrt(3) / 2 * np.pi ** 2,
                                              abs=1e-2)
        assert out["cw_lower"] <= out["lambda"] <= out["cw_upper"]
        assert os.path.exists(os.path.join(out_dir, "phi.csv"))

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

    @pytest.mark.parametrize("overrides, threads", [
        ({"eps_list": 0.5}, None),
        ({"q": "64"}, None),
        ({"n_torus": 2}, None),
        ({"params": {"deltaa": 0.9}}, None),
        ({"seed": 0}, None),
        ({}, "two"),
        ({}, "0"),
    ], ids=["eps_list-scalar", "q-string", "n_torus-2", "params-typo",
            "seed-removed", "threads-word", "threads-zero"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, monkeypatch,
                                     overrides, threads):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": "sin-a", "eps_list": [0.125], "q": 16, "n_torus": 64,
            "measurements": ["lambda_rate"], "timing": False, **overrides}))
        if threads is not None:
            monkeypatch.setenv("ERGODICA_THREADS", threads)
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
        # a zero cell operator makes the augmented matrix exactly singular
        import ergodica.effective as eff_mod
        monkeypatch.setattr(eff_mod, "assemble_torus_diffusion",
                            lambda field, grid: sparse.csr_matrix(
                                (grid.npoints, grid.npoints)))
        assert main(["effective", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: sparse LU factorization failed")
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
        real = cli_mod.oscillatory_samples

        def flaky(spec, eps, grid):
            if eps == 1 / 8:
                raise eg.SolverError("synthetic failure")
            return real(spec, eps, grid)

        monkeypatch.setattr(cli_mod, "oscillatory_samples", flaky)
        cfg = eg.SweepConfig(problem="sin-a", eps_list=[1 / 4, 1 / 8, 1 / 16],
                             q=16, n_torus=64, measurements=("lambda_rate",))
        rep = eg.run_sweep(cfg)
        assert len(rep.rows) == 2
        assert len(rep.failures) == 1
        assert rep.failures[0]["eps"] == 1 / 8
        assert "synthetic failure" in rep.failures[0]["reason"]

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
