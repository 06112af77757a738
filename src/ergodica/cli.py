"""Configuration-driven entry point: problem catalog, epsilon sweeps, rate
fits, and report emission.

Sweeps fix one fine domain grid for all epsilon (n = q * max denominator
cells per axis) so the discretization error cancels when oscillatory and
effective eigenvalues are compared on the same mesh.
"""

import argparse
import json
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from . import coeff as cf
from .corrector import (
    align_eigenfunctions,
    core_residual,
    linear_expansion,
    nonlinear_expansion,
    pivot_problem,
    prepare_expansion,
    slow_corrector,
)
from .domain import (DomainGrid, assemble_linear, assemble_oscillatory,
                     bellman_operators, effective_samples, oscillatory_samples)
from .effective import build_corrector_set, effective_bellman_1d, effective_linear
from .eigen import (effective_eigenpair, linear_eigenpair, principal_eigenpair,
                    principal_eigenpair_bellman)
from .errors import ConfigError, ErgodicaError, SolverError
from .torus import GridFunction, PeriodicGrid

ALL_MEASUREMENTS = ("lambda_rate", "eigfun_rate", "z_rate", "v_norm",
                    "residual_slope")
EXACT_FLOOR = 1e-9
CSV_COLUMNS = ("eps", "lambda_eps", "lambda_bar", "abs_err_lambda",
               "eigfun_err", "z_norm", "v_norm", "seconds")


# ---------------------------------------------------------------------------
# problem catalog

def build_problem(name, params=None):
    """Instantiate a catalog problem by name; unknown `params` are an error."""
    params = dict(params or {})
    if name in ("sin-a", "sin-abc", "sep-2d", "bellman-2ctl-1d"):
        delta = params.pop("delta", 0.5)
        lam, Lam = 1 - abs(delta), 1 + abs(delta)
    if name == "sin-a":
        spec = cf.LinearOperatorSpec(cf.sin_field_1d(delta=delta), lam, Lam)
    elif name == "sin-abc":
        # default drift amplitude is large enough that the first-order term
        # of lambda_eps - lambda_bar dominates the sweep window (it vanishes
        # identically when b = 0)
        b_amp = params.pop("b_amp", 1.0)
        c0 = params.pop("c0", 0.2)
        c_amp = params.pop("c_amp", 0.4)
        field = cf.sin_field_1d(delta=delta, b_amp=b_amp, c0=c0, c_amp=c_amp)
        c1 = max(abs(b_amp), abs(c0) + abs(c_amp))
        spec = cf.LinearOperatorSpec(field, lam, Lam, c1=c1)
    elif name == "sep-2d":
        spec = cf.LinearOperatorSpec(cf.separable_sin_field_2d(delta=delta), lam, Lam)
    elif name == "pucci-1d":
        lam = params.pop("lambda_ell", 1.0)
        Lam = params.pop("Lambda_ell", 2.0)
        spec = cf.pucci_controls_1d(cf.PucciSpec(lam, Lam, "plus"))
    elif name == "bellman-2ctl-1d":
        a2 = params.pop("a2", 1.2)
        f1 = cf.sin_field_1d(delta=delta)
        f2 = cf.constant_field(1, a2)
        lam, Lam = min(lam, a2), max(Lam, a2)
        spec = cf.BellmanSpec([
            cf.LinearOperatorSpec(f1, lam, Lam),
            cf.LinearOperatorSpec(f2, lam, Lam),
        ])
    elif name == "constant":
        dim = int(params.pop("dim", 1))
        field = cf.constant_field(dim, params.pop("a0", 1.0),
                                  params.pop("b0", None), params.pop("c0", 0.0))
        a0 = field.a(np.zeros((1, dim)))[0]
        eigs = np.linalg.eigvalsh(a0)
        spec = cf.LinearOperatorSpec(field, eigs.min(), eigs.max())
    else:
        raise ConfigError(f"unknown catalog problem {name!r}")
    if params:
        raise ConfigError(f"unknown params for {name!r}: {sorted(params)}")
    mode = "bellman" if isinstance(spec, cf.BellmanSpec) else "linear"
    return {"mode": mode, "spec": spec, "dim": spec.dim}


def config_problem(config):
    """`build_problem` for the config, whose `mode` must be the problem's."""
    problem = build_problem(config.problem, config.params)
    if problem["mode"] != config.mode:
        raise ConfigError(f"problem {config.problem!r} is {problem['mode']!r}, "
                          f"config says {config.mode!r}")
    return problem


# ---------------------------------------------------------------------------
# configuration

def _is_number(x, kind=numbers.Real):
    return isinstance(x, kind) and not isinstance(x, bool)


def eps_denominator(eps, name="eps"):
    """The integer m of eps = 1/m; any other eps is a ConfigError, since a
    sweep grid resolves only such eps (`name` labels the message)."""
    if not (_is_number(eps) and 0 < eps < 1):
        raise ConfigError(f"{name} must be a number in (0, 1), got {eps!r}")
    frac = Fraction(eps).limit_denominator(10 ** 6)
    if frac.numerator != 1 or abs(float(frac) - eps) > 1e-12:
        raise ConfigError(f"{name}={eps} is not the reciprocal of an integer")
    return frac.denominator


@dataclass
class SweepConfig:
    problem: str
    eps_list: list
    params: dict = dc_field(default_factory=dict)
    q: int = 64
    n_torus: int = 512
    mode: str = "linear"
    measurements: tuple = ("lambda_rate",)
    tol: float = 1e-9
    out: str = "."
    format: str = "csv"
    # wall-clock timing breaks byte-identical reruns; disable to compare runs
    timing: bool = True

    def __post_init__(self):
        eps = self.eps_list
        if not isinstance(eps, (list, tuple)) or not eps:
            raise ConfigError("eps_list must be a nonempty list of numbers in (0, 1)")
        dens = self.denominators()
        if any(b <= a for a, b in zip(dens, dens[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        if not _is_number(self.q, numbers.Integral) or self.q < 16:
            raise ConfigError("oversampling q must be an integer >= 16")
        if not _is_number(self.n_torus, numbers.Integral) or self.n_torus < 4:
            raise ConfigError("n_torus must be an integer >= 4")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a JSON object")
        bad = sorted(k for k, v in self.params.items() if not _is_number(v))
        if bad:
            raise ConfigError(f"params {bad} must be real numbers")
        if not (_is_number(self.tol) and 0 < self.tol < np.inf):
            raise ConfigError("tol must be a positive real number")
        if self.mode not in ("linear", "bellman"):
            raise ConfigError("mode must be 'linear' or 'bellman'")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if not isinstance(self.timing, bool):
            raise ConfigError("timing must be true or false")
        if not isinstance(self.measurements, (list, tuple)) or \
                not all(isinstance(m, str) for m in self.measurements):
            raise ConfigError("measurements must be a list of names")
        self.measurements = tuple(self.measurements)
        bad = set(self.measurements) - set(ALL_MEASUREMENTS)
        if bad:
            raise ConfigError(f"unknown measurements {sorted(bad)}")

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        return cls(**raw)

    def denominators(self):
        return [eps_denominator(e) for e in self.eps_list]


# ---------------------------------------------------------------------------
# rate fitting

def fit_rate(eps_list, errors):
    """Least-squares slope of log(error) against log(eps).

    Returns (slope, constant, r2) for the model error ~ C * eps^slope;
    nonpositive error rows are dropped, and at least 3 must survive.
    """
    eps = np.asarray(eps_list, dtype=float)
    err = np.asarray(errors, dtype=float)
    keep = np.isfinite(err) & (err > 0)
    eps, err = eps[keep], err[keep]
    if len(eps) < 3:
        raise SolverError(f"rate fit needs >= 3 positive points, got {len(eps)}")
    x, y = np.log(eps), np.log(err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if sst == 0 else 1.0 - np.sum(resid ** 2) / sst
    return float(slope), float(np.exp(intercept)), float(r2)


# ---------------------------------------------------------------------------
# sweep

@dataclass
class SweepReport:
    problem: str
    mode: str
    lambda_bar: float
    grid: dict
    measurements: tuple
    rows: list
    fits: dict
    failures: list

    def as_dict(self):
        return dict(asdict(self), measurements=list(self.measurements))


def _fit_column(report, name, eps, values):
    vals = np.asarray(values, dtype=float)
    good = np.isfinite(vals)
    if good.sum() == 0:
        report.fits[name] = {"error": "no data"}
        return
    if np.all(np.abs(vals[good]) <= EXACT_FLOOR):
        report.fits[name] = {"exact": True}
        return
    try:
        slope, constant, r2 = fit_rate(np.asarray(eps)[good], vals[good])
        report.fits[name] = {"slope": slope, "constant": constant, "r2": r2,
                             "points": int(good.sum())}
    except ErgodicaError as exc:
        report.fits[name] = {"error": str(exc)}


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the full per-epsilon study described by the configuration."""
    threads = os.environ.get("ERGODICA_THREADS", "1")
    if not threads.isdecimal() or int(threads) < 1:
        raise ConfigError(f"ERGODICA_THREADS must be an integer >= 1, got {threads!r}")
    problem = config_problem(config)
    dim = problem["dim"]
    spec = problem["spec"]
    tg = PeriodicGrid(dim, config.n_torus)
    n_cells = config.q * max(config.denominators())
    grid = DomainGrid.unit(dim, n_cells)
    meas = set(config.measurements)

    if config.mode == "linear":
        correctors = build_corrector_set(spec, tg)
        eff = effective_linear(spec, correctors)
        # in 1D the assembled eff_op serves the psi_1 solve as well
        eff_pair, eff_op = linear_eigenpair(grid, *effective_samples(eff, grid),
                                            tol=config.tol)
        slow = slow_corrector(eff, correctors, eff_pair.phi, eff_op) \
            if dim == 1 and meas & {"v_norm", "residual_slope"} else None
    else:
        if dim != 1:
            raise ConfigError("bellman sweeps are supported in 1D only")
        eff_spec, cells = effective_bellman_1d(spec, tg)
        slow = None
        eff_pair, _ = principal_eigenpair_bellman(eff_spec, 1.0, grid,
                                                  tol=config.tol)
    lam_bar = eff_pair.lam
    u = eff_pair.phi

    # the eps-independent part of the Bellman expansion; rows only read it
    prepared = prepare_expansion(spec, eff_pair, grid, lam_bar, cells) \
        if config.mode == "bellman" and "residual_slope" in meas else None
    needs_pivot = config.mode == "linear" and bool(meas & {"eigfun_rate", "z_rate"})

    def one_row(eps):
        t0 = time.perf_counter()
        row = {"eps": eps, "lambda_bar": lam_bar}
        # (lambda_eps, phi_eps) -> (lambda_bar, u): u starts the eigensolve well
        if slow is not None:
            # v_eps needs only u, so it comes first; max(u + v_eps, u/2) starts better
            op = assemble_oscillatory(spec, eps, grid)
            lu = op.factor()
            exp, res = linear_expansion(spec, eff_pair, slow, eps, op, lu=lu)
            row["v_norm"] = exp.sup_norm_v
            if "residual_slope" in meas:
                row["residual"] = core_residual(grid, res)
            start = grid.restrict(np.maximum(u.values + exp.v_eps.values, u.values / 2))
            del exp, res  # peak RSS of sin-abc-1d 90.7 -> 87.5 MB
            pair = principal_eigenpair(op, tol=config.tol, x0=start)
        elif config.mode == "linear":
            # a separable 2D L_eps is formed only if the row solves with it
            samples = oscillatory_samples(spec, eps, grid)
            pair, op = linear_eigenpair(grid, *samples, tol=config.tol, x0=u)
            if op is None and needs_pivot:
                op = assemble_linear(grid, *samples)
            lu = None  # pivot_problem factors L_eps for its one solve
        else:
            # the frozen operators serve the eigensolve and the expansion
            ops = bellman_operators(spec, eps, grid)
            pair, _ = principal_eigenpair_bellman(spec, eps, grid, tol=config.tol,
                                                  ops=ops, x0=u)
        row["lambda_eps"] = pair.lam
        row["abs_err_lambda"] = abs(pair.lam - lam_bar)
        if needs_pivot:
            w = pivot_problem(spec, eps, grid, u, lam_bar, op=op, lu=lu)
            t_eps, z = align_eigenfunctions(w, pair)
            row["t_eps"] = t_eps
            diff = (1 + t_eps) * pair.phi.values - u.values
            row["eigfun_err"] = float(np.max(np.abs(diff)))
            row["eigfun_err_l2"] = float(
                np.sqrt(np.sum(grid.inner_weights() * diff ** 2)))
            row["z_norm"] = float(np.max(np.abs(z.values)))
            row["w_minus_u"] = float(np.max(np.abs(w.values - u.values)))
        if prepared is not None:
            _, rep = nonlinear_expansion(spec, eff_pair, eps, grid, lam_bar,
                                         prepared, ops)
            row["residual"] = rep["expansion_residual_interior"]
            row["w2F_residual"] = rep["w2F_residual"]
        if config.timing:
            row["seconds"] = time.perf_counter() - t0
        return row

    def attempt(eps):
        try:
            return one_row(eps), None
        except ErgodicaError as exc:
            return None, {"eps": eps, "reason": str(exc)}

    workers = int(threads)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # one worker runs the rows in this thread: a pool thread gets its own
        # malloc arena, which raised peak RSS by 15% on a 1D sweep
        mapper = pool.map if workers > 1 else map
        outcomes = list(mapper(attempt, config.eps_list))
    rows = [row for row, _ in outcomes if row is not None]
    failures = [fail for _, fail in outcomes if fail is not None]

    report = SweepReport(
        problem=config.problem, mode=config.mode, lambda_bar=lam_bar,
        grid={"dim": dim, "n_cells": n_cells, "n_torus": config.n_torus,
              "q": config.q},
        measurements=config.measurements, rows=rows, fits={}, failures=failures,
    )
    eps = [r["eps"] for r in rows]

    def column(key):
        return [r.get(key, np.nan) for r in rows]

    if "lambda_rate" in meas:
        _fit_column(report, "lambda", eps, column("abs_err_lambda"))
    if "eigfun_rate" in meas and config.mode == "linear":
        _fit_column(report, "eigfun", eps, column("eigfun_err"))
        _fit_column(report, "w_minus_u", eps, column("w_minus_u"))
    if "z_rate" in meas and config.mode == "linear":
        _fit_column(report, "z", eps, column("z_norm"))
    if "v_norm" in meas and slow is not None:
        _fit_column(report, "v", eps, column("v_norm"))
        vn = column("v_norm")
        report.fits["v_over_eps"] = {
            "ratios": [v / e for v, e in zip(vn, eps) if np.isfinite(v)]
        }
    if "residual_slope" in meas:
        _fit_column(report, "residual", eps, column("residual"))
    return report


# ---------------------------------------------------------------------------
# output

def _fmt(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return f"{x:.12e}" if isinstance(x, float) else str(x)


def emit_report(report: SweepReport, format="csv", out_dir="."):
    """Write the sweep report; returns the list of files written."""
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown report format {format!r}")
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join(_fmt(row.get(k, np.nan)) for k in CSV_COLUMNS)
            for row in report.rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    path = os.path.join(out_dir, f"sweep.{format}")
    _write_text(path, text)
    return [path]


def _make_dir(path):
    """Create directory `path`; an OSError is a ConfigError (bad output path)."""
    try:
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_text(path, text):
    """Write `text` to `path`, creating its directory (see `_make_dir`)."""
    _make_dir(os.path.dirname(path))
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _grid_csv(fn: GridFunction, path):
    lines = ["x1,value" if fn.grid.dim == 1 else "x1,x2,value"]
    for p, v in zip(fn.grid.points(), fn.flat):
        coords = ",".join(f"{c:.12e}" for c in p)
        lines.append(f"{coords},{v:.12e}")
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CLI commands

def _cmd_effective(config, args):
    problem = config_problem(config)
    tg = PeriodicGrid(problem["dim"], config.n_torus)
    if problem["mode"] != "linear":
        raise ConfigError("'effective' applies to linear problems")
    correctors = build_corrector_set(problem["spec"], tg)
    eff = effective_linear(problem["spec"], correctors)
    print(json.dumps(eff.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_eigen(config, args):
    if args.out:
        _make_dir(args.out)  # before the eigensolve, not after it
    problem = config_problem(config)
    dim = problem["dim"]
    n_cells = config.q * max(config.denominators())
    grid = DomainGrid.unit(dim, n_cells)
    if args.effective:
        if problem["mode"] != "linear":
            raise ConfigError("--effective applies to linear problems")
        tg = PeriodicGrid(dim, config.n_torus)
        eff = effective_linear(problem["spec"],
                               build_corrector_set(problem["spec"], tg))
        pair = effective_eigenpair(eff, grid, tol=config.tol)
    else:
        eps = args.eps if args.eps is not None else config.eps_list[0]
        if problem["mode"] == "linear":
            samples = oscillatory_samples(problem["spec"], eps, grid)
            pair, _ = linear_eigenpair(grid, *samples, tol=config.tol)
        else:
            pair, _ = principal_eigenpair_bellman(problem["spec"], eps, grid,
                                                  tol=config.tol)
    print(json.dumps({
        "lambda": pair.lam,
        "cw_lower": pair.cw_lower,
        "cw_upper": pair.cw_upper,
        "residual": pair.residual,
        "iterations": pair.iterations,
    }, indent=2, sort_keys=True))
    if args.out:
        _grid_csv(pair.phi, os.path.join(args.out, "phi.csv"))
    return 0


def _cmd_corrector(config, args):
    if args.out:
        _make_dir(args.out)  # before the expansion, not after it
    problem = config_problem(config)
    if problem["mode"] != "linear" or problem["dim"] != 1:
        raise ConfigError("'corrector' supports 1D linear problems")
    spec = problem["spec"]
    eps = args.eps if args.eps is not None else config.eps_list[0]
    tg = PeriodicGrid(1, config.n_torus)
    n_cells = config.q * max(config.denominators())
    grid = DomainGrid.unit(1, n_cells)
    correctors = build_corrector_set(spec, tg)
    eff = effective_linear(spec, correctors)
    pair, eff_op = linear_eigenpair(grid, *effective_samples(eff, grid),
                                    tol=config.tol)
    op = assemble_oscillatory(spec, eps, grid)
    exp, res = linear_expansion(
        spec, pair, slow_corrector(eff, correctors, pair.phi, eff_op), eps, op)
    print(json.dumps({
        "sup_norm_v": exp.sup_norm_v,
        "residual_slope_inputs": {
            "eps": eps,
            "residual_sup": float(np.max(np.abs(res))),
        },
    }, indent=2, sort_keys=True))
    if args.out:
        for name, fn in (("psi1", exp.psi1), ("w2_trace", exp.w2_trace),
                         ("v_eps", exp.v_eps)):
            _grid_csv(fn, os.path.join(args.out, f"{name}.csv"))
    return 0


def _cmd_sweep(config, args):
    out = args.out or config.out
    _make_dir(out)  # before the sweep, not after all its rows
    report = run_sweep(config)
    fmt = args.format or config.format
    written = emit_report(report, format=fmt, out_dir=out)
    for path in written:
        print(path)
    print(json.dumps({"lambda_bar": report.lambda_bar, "fits": report.fits},
                     indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ergodica",
        description="Periodic homogenization of principal eigenvalue problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("effective", "eigen", "corrector", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name in ("eigen", "corrector"):
            p.add_argument("--eps", type=float, default=None)
        if name == "eigen":
            p.add_argument("--effective", action="store_true")
        if name == "sweep":
            p.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)
    handlers = {
        "effective": _cmd_effective,
        "eigen": _cmd_eigen,
        "corrector": _cmd_corrector,
        "sweep": _cmd_sweep,
    }
    try:
        config = SweepConfig.from_file(args.config)
        eps = getattr(args, "eps", None)
        # a finer eps than eps_list's would get < q grid cells per period
        if eps is not None and \
                eps_denominator(eps, "--eps") > max(config.denominators()):
            raise ConfigError(f"--eps {eps} is below min(eps_list)")
        return handlers[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgodicaError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
