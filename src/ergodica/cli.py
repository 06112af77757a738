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
from .domain import (DomainGrid, assemble_effective, assemble_linear,
                     assemble_oscillatory, bellman_operators, fast_coordinates,
                     trace_grid)
from .effective import (build_corrector_set, effective_linear,
                        first_order_effective)
from .eigen import effective_eigenpair, linear_eigenpair, principal_eigenpair
from .errors import ConfigError, ErgodicaError, SolverError
from .torus import GridFunction, PeriodicGrid, solve_concave_cell

ALL_MEASUREMENTS = ("lambda_rate", "eigfun_rate", "z_rate", "v_norm",
                    "residual_slope")
# what a sweep of each (mode, dim) produces; asking for more is a ConfigError
SWEEP_MEASUREMENTS = {
    ("linear", 1): set(ALL_MEASUREMENTS),
    ("linear", 2): {"lambda_rate", "eigfun_rate", "z_rate"},
    ("bellman", 1): {"lambda_rate", "residual_slope"},
}
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
        spec = cf.pucci_controls_1d(cf.PucciSpec(lam, Lam))
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
        dim = params.pop("dim", 1)
        if dim not in (1, 2):
            raise ConfigError(f"constant: dim must be 1 or 2, got {dim!r}")
        dim = int(dim)
        field = cf.constant_field(dim, params.pop("a0", 1.0),
                                  params.pop("b0", None), params.pop("c0", 0.0))
        a0, b0, c0 = (v[0] for v in field.sample(np.zeros(dim)))
        eigs = np.linalg.eigvalsh(a0)
        spec = cf.LinearOperatorSpec(field, eigs.min(), eigs.max(),
                                     c1=max(np.linalg.norm(b0), abs(c0)))
    else:
        raise ConfigError(f"unknown catalog problem {name!r}")
    if params:
        raise ConfigError(f"unknown params for {name!r}: {sorted(params)}")
    mode = "bellman" if isinstance(spec, cf.BellmanSpec) else "linear"
    return {"mode": mode, "spec": spec, "dim": spec.dim}


def config_problem(config):
    """`build_problem` for the config, whose `mode` must be the problem's and
    whose declared structure constants must hold at the torus grid nodes."""
    problem = build_problem(config.problem, config.params)
    if problem["mode"] != config.mode:
        raise ConfigError(f"problem {config.problem!r} is {problem['mode']!r}, "
                          f"config says {config.mode!r}")
    cf.check_structure(problem["spec"],
                       PeriodicGrid(problem["dim"], config.n_torus).points())
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
        if not isinstance(self.out, str):
            raise ConfigError("out must be a directory path (a string)")
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


def _linear_effective(spec, grid, config, eps_list=None):
    """(effective eigenpair on `grid` from the n_torus cell, and given
    `eps_list` the 1D slow corrector from the cells of its `trace_grid`),
    shared by every command; L_bar is assembled only for psi_1."""
    eff = first_order_effective(spec, PeriodicGrid(grid.dim, config.n_torus))
    pair = effective_eigenpair(eff, grid, tol=config.tol)
    if eps_list is None:
        return pair, None
    correctors = build_corrector_set(spec, trace_grid(grid, eps_list))
    eff = effective_linear(spec, correctors)
    return pair, slow_corrector(eff, correctors, pair,
                                assemble_effective(eff, grid))


def _sweep_stage(config: SweepConfig, eps_list):
    """The eps-independent stage of a sweep whose trace grid holds
    `eps_list`: (grid, effective pair, row), row(eps) -> (row dict, pair)
    solving the sweep's row at eps. `run_sweep` and `ergodica eigen` share it.

    lambda_bar comes from the n_torus cells, the effective eigenpair from
    `effective_eigenpair`; a Bellman sweep is the linear one of its
    `BellmanSpec.envelope` a_min D^2 (no Howard). The expansion of a 1D sweep
    with `v_norm` or `residual_slope` reads cells solved on the `trace_grid`
    of `eps_list`. The homogenized eigenfunction u is read only where it is
    used: by 1D and Bellman rows, the pivot columns, and a 2D row that is not
    separable, whose eigensolve starts from it.
    """
    problem = config_problem(config)
    dim = problem["dim"]
    spec = problem["spec"]
    grid = DomainGrid.unit(dim, config.q * max(config.denominators()))
    meas = set(config.measurements)
    if config.mode == "bellman" and dim != 1:
        raise ConfigError("bellman sweeps are supported in 1D only")
    unsupported = meas - SWEEP_MEASUREMENTS[config.mode, dim]
    if unsupported:
        raise ConfigError(f"{dim}D {config.mode} sweeps do not measure "
                          f"{sorted(unsupported)}")

    if config.mode == "bellman":  # only the residual reads the controls
        spec = spec.envelope()
    expand = config.mode == "linear" and bool(meas & {"v_norm", "residual_slope"})
    eff_pair, slow = _linear_effective(spec, grid, config,
                                       eps_list if expand else None)
    lam_bar = eff_pair.lam

    # the eps-independent part of the Bellman expansion; rows only read it
    prepared = None
    if config.mode == "bellman" and "residual_slope" in meas:
        prepared = prepare_expansion(eff_pair, *(
            solve_concave_cell(spec, cells) for cells in
            (PeriodicGrid(1, config.n_torus), trace_grid(grid, eps_list))))
    needs_pivot = config.mode == "linear" and bool(meas & {"eigfun_rate", "z_rate"})

    def one_row(eps):
        t0 = time.perf_counter()
        row = {"eps": eps, "lambda_bar": lam_bar}
        # a row's operators and expansion share one fast-coordinate index
        fast = fast_coordinates(grid, eps)
        # (lambda_eps, phi_eps) -> (lambda_bar, u): u starts the eigensolve well
        if dim == 1:
            op = assemble_oscillatory(spec, eps, grid, fast)
            start = u = eff_pair.phi
            if slow is not None:
                # v_eps needs only u; max(u + v_eps, u/2) starts better than u
                exp, res = linear_expansion(eff_pair, slow, eps, op, fast)
                row["v_norm"] = exp.sup_norm_v
                if "residual_slope" in meas:
                    row["residual"] = core_residual(grid, res)
                start = grid.restrict(np.maximum(u.values + exp.v_eps.values,
                                                 u.values / 2))
                del exp, res  # peak RSS of sin-abc-1d 90.7 -> 87.5 MB
            pair = principal_eigenpair(op, tol=config.tol, x0=start)
        else:
            # a separable 2D L_eps is formed only if the row solves with it
            rows, at = fast
            samples = spec.field.sample(rows)
            pair, op = linear_eigenpair(grid, *samples, tol=config.tol,
                                        x0=lambda: eff_pair.phi, at=at)
            if op is None and needs_pivot:
                op = assemble_linear(grid, *samples, at)
        row["lambda_eps"] = pair.lam
        row["abs_err_lambda"] = abs(pair.lam - lam_bar)
        row.update(cw_lower=pair.cw_lower, cw_upper=pair.cw_upper,
                   iterations=pair.iterations)
        if needs_pivot:
            u = eff_pair.phi
            w = pivot_problem(op, u, lam_bar)
            t_eps, z = align_eigenfunctions(w, pair)
            row["t_eps"] = t_eps
            diff = (1 + t_eps) * pair.phi.values - u.values
            row["eigfun_err"] = float(np.max(np.abs(diff)))
            row["eigfun_err_l2"] = float(
                np.sqrt(np.sum(grid.inner_weights() * diff ** 2)))
            row["z_norm"] = float(np.max(np.abs(z.values)))
            row["w_minus_u"] = float(np.max(np.abs(w.values - u.values)))
        if prepared is not None:
            ops = bellman_operators(problem["spec"], eps, grid, fast)
            _, rep = nonlinear_expansion(eff_pair, eps, prepared, ops, fast)
            row["residual"] = rep["expansion_residual_interior"]
            row["w2F_residual"] = rep["w2F_residual"]
        if config.timing:
            row["seconds"] = time.perf_counter() - t0
        return row, pair

    return grid, eff_pair, one_row


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the full per-epsilon study described by the configuration: the
    `_sweep_stage` of its eps_list, one row per eps and the rate fits. Every
    row reports its eigensolve's bracket and iterations; a row that raises
    an ErgodicaError is recorded as a failure.
    """
    grid, eff_pair, one_row = _sweep_stage(config, config.eps_list)
    rows, failures = [], []
    for eps in config.eps_list:
        try:
            rows.append(one_row(eps)[0])  # the pair is freed before the next row
        except ErgodicaError as exc:
            failures.append({"eps": eps, "reason": str(exc)})

    meas = set(config.measurements)
    report = SweepReport(
        problem=config.problem, mode=config.mode, lambda_bar=eff_pair.lam,
        grid={"dim": grid.dim, "n_cells": grid.n[0], "n_torus": config.n_torus,
              "q": config.q},
        measurements=config.measurements, rows=rows, fits={}, failures=failures,
    )
    eps = [r["eps"] for r in rows]

    def column(key):
        return [r.get(key, np.nan) for r in rows]

    if "lambda_rate" in meas:
        _fit_column(report, "lambda", eps, column("abs_err_lambda"))
    if "eigfun_rate" in meas:
        _fit_column(report, "eigfun", eps, column("eigfun_err"))
        _fit_column(report, "w_minus_u", eps, column("w_minus_u"))
    if "z_rate" in meas:
        _fit_column(report, "z", eps, column("z_norm"))
    if "v_norm" in meas:
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
    if args.effective:
        problem = config_problem(config)
        if problem["mode"] != "linear":
            raise ConfigError("--effective applies to linear problems")
        grid = DomainGrid.unit(problem["dim"],
                               config.q * max(config.denominators()))
        pair, _ = _linear_effective(problem["spec"], grid, config)
    else:
        # the sweep's row at eps; the trace grid also holds an eps off eps_list
        eps = args.eps if args.eps is not None else config.eps_list[0]
        _, _, row = _sweep_stage(config, [*config.eps_list, eps])
        _, pair = row(eps)
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
    grid = DomainGrid.unit(1, config.q * max(config.denominators()))
    # the sweep's trace grid, refined if eps is not in eps_list
    pair, slow = _linear_effective(spec, grid, config, [*config.eps_list, eps])
    exp, res = linear_expansion(pair, slow, eps,
                                assemble_oscillatory(spec, eps, grid))
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
        status = handlers[args.command](config, args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgodicaError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout's reader has gone: silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
