"""Benchmark workloads: sweep configs drawn from a seed, and their checks.

Each workload is one `run_sweep` config, run closed loop: one client, one
sweep at a time, `tol=1e-9`. The three stress different layers:

- sin-abc-1d: the per-eps linear row (assembly, banded eigensolve, pivot and
  z2/z3 Dirichlet solves, corrector interpolation). Torus cells are cheap
  and 1D fill is low, so cell-hierarchy and ordering changes should not
  move it.
- bellman-1d: Howard loops; `nonlinear_expansion` makes ~1e5 tiny SuperLU
  solves against a few factorizations.
- sep-2d: 2D sparse factorization; the torus cell hierarchy refactors the
  same matrix with `spsolve` and the eigensolver is dominated by `splu`
  fill and triangular solves. Many large solves against few factors.

Three workloads replace the four reference configs of the roadmap: the
criterion-10 2D case and the 512^2 / n_torus=256 case exercise the same
layers as sep-2d, and the larger one (~50 s a sweep) would not fit the
repeated runs a performance check needs.

Seed 0 runs the catalog defaults and is checked against pinned outputs of
the seed program (reference.json). Other seeds draw admissible `params`
from narrow ranges, so the work per sweep stays comparable across seeds,
and are checked by invariants only.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
MIN_RATE_SLOPE = 0.9
# multiplier on the round-off scale of a Rayleigh quotient (see roundoff_scale)
ROUNDOFF_MARGIN = 16.0
# eigenfunction columns pass through 3rd derivatives and extra solves
EIGFUN_MARGIN = 10.0
PINNED_EIGFUN_COLUMNS = ("eigfun_err", "z_norm", "v_norm")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    dim: int
    # param -> (low, high), drawn uniformly for seeds other than 0
    ranges: dict
    # catalog value of each drawn param, for the ellipticity bound
    defaults: dict
    # leading rows of the lambda-rate invariant (the acceptance window)
    rate_rows: int


def _eps(*denominators):
    return [1.0 / d for d in denominators]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sin-abc-1d",
            why="per-eps linear rows: assembly, 1D eigensolve, pivot and "
                "boundary Dirichlet solves, corrector interpolation; torus "
                "cells and fill negligible",
            config=dict(problem="sin-abc", mode="linear",
                        eps_list=_eps(8, 16, 32, 64, 128, 256, 512, 1024),
                        q=64, n_torus=512,
                        measurements=["lambda_rate", "eigfun_rate", "z_rate",
                                      "v_norm", "residual_slope"]),
            dim=1,
            ranges={"delta": (0.45, 0.55), "b_amp": (0.9, 1.1),
                    "c_amp": (0.35, 0.45)},
            defaults={"delta": 0.5, "b_amp": 1.0, "c_amp": 0.4},
            rate_rows=8,
        ),
        Workload(
            name="bellman-1d",
            why="Howard loops and ~1e5 small SuperLU solves against few "
                "factorizations in nonlinear_expansion",
            config=dict(problem="bellman-2ctl-1d", mode="bellman",
                        eps_list=_eps(8, 16, 32, 64, 128, 256),
                        q=64, n_torus=512,
                        measurements=["lambda_rate", "residual_slope"]),
            dim=1,
            ranges={"delta": (0.45, 0.55), "a2": (1.15, 1.25)},
            defaults={"delta": 0.5, "a2": 1.2},
            # acceptance criterion 7 fits eps = 1/8 .. 1/64; below that the
            # Bellman lambda error sits at its discretization floor
            rate_rows=4,
        ),
        Workload(
            name="sep-2d",
            why="2D sparse factorization: torus cell hierarchy via spsolve "
                "and a high-fill splu eigensolve; few large factors",
            config=dict(problem="sep-2d", mode="linear",
                        eps_list=_eps(4, 8, 16), q=24, n_torus=128,
                        measurements=["lambda_rate"]),
            dim=2,
            ranges={"delta": (0.45, 0.55)},
            defaults={"delta": 0.5},
            rate_rows=3,
        ),
    )
}


def make_config(name, seed):
    """SweepConfig keyword arguments for a workload and seed (JSON-ready)."""
    work = WORKLOADS[name]
    params = {}
    if seed != 0:
        rng = np.random.default_rng(seed)
        params = {key: round(float(rng.uniform(lo, hi)), 4)
                  for key, (lo, hi) in sorted(work.ranges.items())}
    return dict(work.config, params=params, tol=TOL)


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def roundoff_scale(work, config):
    """Absolute tolerance on a computed eigenvalue.

    The inverse-power bracket is at most `tol` wide, but it brackets the
    eigenvalue of the computed LU, not of L_h. LU round-off perturbs each
    entry by about u * |L_h|, whose rows reach 4 * dim * Lambda / h^2; the
    Rayleigh quotient averages N such perturbations with random signs, so
    the eigenvalue moves by about u * ||L_h|| / sqrt(N). A change of
    ordering moves it by that much and no more.
    """
    params = config["params"]
    delta = abs(params.get("delta", work.defaults["delta"]))
    big = max(1.0 + delta, params.get("a2", work.defaults.get("a2", 0.0)))
    n = config["q"] * max(round(1.0 / e) for e in config["eps_list"])
    norm = 4.0 * work.dim * big * n ** 2
    unknowns = (n - 1) ** work.dim
    u = np.finfo(float).eps
    return config["tol"] + ROUNDOFF_MARGIN * u * norm / math.sqrt(unknowns)


def _rate_slope(eps, errors):
    x, y = np.log(np.asarray(eps)), np.log(np.asarray(errors))
    return float(np.polyfit(x, y, 1)[0])


def check_report(name, seed, config, report):
    """Check one sweep report against pins (seed 0) and invariants.

    Returns (failed_rows, problems): the number of eps rows that failed in
    the program or fall outside the check, and a list of messages (row
    problems and report-wide problems alike).
    """
    work = WORKLOADS[name]
    problems = []
    eps_list = config["eps_list"]
    rows = report["rows"]
    failures = report["failures"]
    failed = len(failures)
    for fail in failures:
        problems.append(f"eps={fail['eps']:.6g} failed: {fail['reason']}")
    if len(rows) + len(failures) != len(eps_list):
        problems.append(f"{len(rows)} rows + {len(failures)} failures for "
                        f"{len(eps_list)} eps")

    lam_bar = report["lambda_bar"]
    if not (math.isfinite(lam_bar) and lam_bar > 0):
        problems.append(f"lambda_bar = {lam_bar!r}")
    ref = load_reference()[name] if seed == 0 else None
    rho = roundoff_scale(work, config)
    if ref is not None and abs(lam_bar - ref["lambda_bar"]) > rho:
        problems.append(f"lambda_bar {lam_bar!r} != pinned "
                        f"{ref['lambda_bar']!r} (tol {rho:.2e})")

    ref_rows = {r["eps"]: r for r in ref["rows"]} if ref else {}
    for row in rows:
        bad = []
        lam = row["lambda_eps"]
        if not math.isfinite(lam):
            bad.append(f"lambda_eps = {lam!r}")
        elif abs(row["abs_err_lambda"] - abs(lam - lam_bar)) > \
                4 * np.finfo(float).eps * abs(lam):
            bad.append("abs_err_lambda != |lambda_eps - lambda_bar|")
        pin = ref_rows.get(row["eps"])
        if pin is not None:
            if abs(lam - pin["lambda_eps"]) > rho:
                bad.append(f"lambda_eps {lam!r} != pinned "
                           f"{pin['lambda_eps']!r} (tol {rho:.2e})")
            for col in PINNED_EIGFUN_COLUMNS:
                if col in pin and not (abs(row.get(col, math.nan) - pin[col])
                                       <= EIGFUN_MARGIN * rho):
                    bad.append(f"{col} {row.get(col)!r} != pinned "
                               f"{pin[col]!r} (tol {EIGFUN_MARGIN * rho:.2e})")
        elif ref is not None:
            bad.append("no pinned row for this eps")
        if bad:
            failed += 1
            problems.extend(f"eps={row['eps']:.6g}: {msg}" for msg in bad)

    # lambda-rate invariant of acceptance criteria 3, 7 and 10
    window = [r for r in rows if r["eps"] in eps_list[:work.rate_rows]]
    errs = [r["abs_err_lambda"] for r in window]
    if len(window) < work.rate_rows or min(errs, default=0.0) <= 0:
        problems.append("lambda-rate window incomplete or has zero error")
    else:
        if any(b >= a for a, b in zip(errs, errs[1:])):
            problems.append(f"lambda errors not decreasing: {errs}")
        slope = _rate_slope([r["eps"] for r in window], errs)
        if slope < MIN_RATE_SLOPE:
            problems.append(f"lambda-rate slope {slope:.3f} < "
                            f"{MIN_RATE_SLOPE} over {len(window)} rows")
    return failed, problems
