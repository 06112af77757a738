"""What `import ergodica` and the 1D and separable 2D paths load, and the
names `ergodica` exports.

Each load check runs in a fresh interpreter, since this test process has
long since imported scipy for its own reference matrices.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types

import ergodica

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

PRELUDE = textwrap.dedent("""\
    import contextlib, io, json, os, sys, tempfile
    import ergodica as eg
    from ergodica.cli import main

    def scipy_loaded(package="scipy"):
        return sorted(m for m in sys.modules
                      if m == package or m.startswith(package + "."))

    def cli(*args, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--config", path]) == 0, args
""")


def run_script(body):
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_1d_and_separable_paths_load_no_scipy():
    # small sweeps shaped like the three benchmark workloads, the eigen and
    # effective commands on 1D and separable 2D configs, and eigen on the
    # 1D Bellman configs: each step records whatever scipy modules it left
    # loaded. Band matrices are factored by numpy alone. The sep-2d sweep
    # measures lambda_rate only: its eigfun_rate and z_rate rows still
    # assemble the 2D operator as CSR.
    loaded = run_script("""
        steps = {"import ergodica": scipy_loaded()}
        sweeps = {
            "sin-abc sweep": dict(problem="sin-abc", measurements=(
                "lambda_rate", "eigfun_rate", "z_rate", "v_norm",
                "residual_slope")),
            "bellman sweep": dict(problem="bellman-2ctl-1d", mode="bellman",
                                  measurements=("lambda_rate",
                                                "residual_slope")),
            "sep-2d sweep": dict(problem="sep-2d",
                                 measurements=("lambda_rate",)),
        }
        for name, kw in sweeps.items():
            rep = eg.run_sweep(eg.SweepConfig(
                eps_list=[1 / 4, 1 / 8], q=16, n_torus=32, timing=False, **kw))
            assert rep.failures == [] and len(rep.rows) == 2, rep.failures
            steps[name] = scipy_loaded()
        linear = (["effective"], ["eigen"], ["eigen", "--effective"])
        for problem, mode, commands in (("sin-abc", "linear", linear),
                                        ("sep-2d", "linear", linear),
                                        ("pucci-1d", "bellman", (["eigen"],)),
                                        ("bellman-2ctl-1d", "bellman", (["eigen"],))):
            config = {"problem": problem, "mode": mode, "eps_list": [0.25, 0.125],
                      "q": 16, "n_torus": 32}
            for args in commands:
                cli(*args, config=config)
                steps[f"{' '.join(args)} {problem}"] = scipy_loaded()
        print(json.dumps(steps))
    """)
    assert len(loaded) == 12
    assert loaded == {step: [] for step in loaded}


def test_cross_term_2d_loads_scipy_sparse_on_demand():
    # a 2D operator with a cross term is its weights, like any other: it is
    # assembled, applied, given its shifted verdict and frozen into a
    # policy with numpy alone; only the eigensolve's SuperLU factor writes
    # CSR and imports scipy.sparse
    out = run_script("""
        import numpy as np
        from ergodica.domain import properness_shift, shifted_m_matrix
        from ergodica.eigen import _freeze_policy
        before = scipy_loaded()
        grid = eg.DomainGrid.unit(2, 16)
        N = int(np.prod(grid.shape))
        a = np.broadcast_to([[1.0, 0.3], [0.3, 0.8]], (N, 2, 2))
        op = eg.assemble_linear(grid, a, np.zeros((N, 2)), np.full(N, 0.5))
        values = op @ np.ones(len(grid.interior_index()))
        _, ok, _ = shifted_m_matrix(op, properness_shift(op))
        laplacian = eg.assemble_linear(grid, np.broadcast_to(np.eye(2), (N, 2, 2)),
                                       np.zeros((N, 2)), np.zeros(N))
        policy = np.arange(len(values)) % 2
        frozen = _freeze_policy([op, laplacian], policy, grid)
        _, frozen_ok, _ = shifted_m_matrix(frozen, properness_shift(frozen))
        frozen @ values
        assembled = scipy_loaded()
        pair = eg.principal_eigenpair(op, tol=1e-10)
        print(json.dumps({"before": before, "assembled": assembled,
                          "after": scipy_loaded("scipy.sparse"),
                          "ok": [ok, frozen_ok],
                          "bracket": [pair.cw_lower, pair.lam, pair.cw_upper],
                          "diagonal": [float(op.neighbours[o].min())
                                       for o in ((1, 1), (-1, -1))]}))
    """)
    assert out["before"] == [] and out["assembled"] == []
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(out["after"])
    assert out["ok"] == [True, True]
    lower, lam, upper = out["bracket"]
    assert lower <= lam <= upper and upper - lower <= 1e-10
    # the 7-point cross stencil: a12 > 0 couples the (1, 1) diagonal
    assert min(out["diagonal"]) > 0


def readme_api_table():
    """{module: names} of README's "Python API" table."""
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            table[cells[0].strip("`")] = [n.strip().strip("`")
                                          for n in cells[1].split(",")]
    return table


def test_readme_api_table_is_the_package_namespace():
    # every name of the table is ergodica's, defined in the module of its
    # row, and every public name of ergodica but its submodules is listed
    table = readme_api_table()
    assert {"coeff", "domain", "eigen", "corrector", "cli"} <= set(table)
    listed = set()
    for module, names in table.items():
        mod = importlib.import_module(f"ergodica.{module}")
        for name in names:
            assert getattr(ergodica, name) is getattr(mod, name), name
            assert getattr(mod, name).__module__ == mod.__name__, name
            listed.add(name)
    public = {name for name, value in vars(ergodica).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == listed
