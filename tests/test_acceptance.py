"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also an ordinary assertion so the suite stays red/green.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.linalg as sla

import ergodica as eg
from ergodica.domain import assemble_linear
from ergodica.eigen import _freeze_policy
from referees import csr


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def linear_op(field, grid):
    avals, bvals, cvals = field.sample(grid.points())
    return assemble_linear(grid, avals, bvals, cvals)


@pytest.fixture(scope="module")
def sin_abc_sweep():
    """Shared sweep backing criteria 3-6."""
    cfg = eg.SweepConfig(
        problem="sin-abc", eps_list=[1 / 8, 1 / 16, 1 / 32, 1 / 64], q=64,
        measurements=("lambda_rate", "eigfun_rate", "z_rate", "v_norm"))
    return eg.run_sweep(cfg)


def test_criterion_01_effective_coefficient_oracle():
    t0 = time.perf_counter()
    problem = eg.cli.build_problem("sin-a")
    cs = eg.build_corrector_set(problem["spec"], eg.PeriodicGrid(1, 512))
    eff = eg.effective_linear(problem["spec"], cs)
    err = abs(eff.a_bar[0, 0] - np.sqrt(3) / 2)
    dt = time.perf_counter() - t0
    report("criterion 1 (effective coefficient)",
           err < 1e-6 and dt < 1.0,
           f"|a_bar - sqrt(3)/2| = {err:.2e} (tol 1e-6), {dt:.2f}s")


def test_criterion_02_effective_eigenvalue():
    t0 = time.perf_counter()
    field = eg.constant_field(1, np.sqrt(3) / 2)
    pair = eg.principal_eigenpair(
        linear_op(field, eg.DomainGrid.unit(1, 2048)), tol=1e-9)
    err = abs(pair.lam - np.sqrt(3) / 2 * np.pi ** 2)
    # dense eigensolve cross-check at n = 64
    op64 = linear_op(field, eg.DomainGrid.unit(1, 64))
    pair64 = eg.principal_eigenpair(op64, tol=1e-11)
    lam_dense = -np.max(sla.eig(csr(op64).toarray())[0].real)
    dense_err = abs(pair64.lam - lam_dense)
    dt = time.perf_counter() - t0
    report("criterion 2 (effective eigenvalue)",
           err < 1e-3 and dense_err < 1e-9 and dt < 5.0,
           f"|lam - (sqrt3/2)pi^2| = {err:.2e} (tol 1e-3), dense agreement "
           f"{dense_err:.1e} (tol 1e-9), {dt:.2f}s")


def test_criterion_03_eigenvalue_rate(sin_abc_sweep):
    fit = sin_abc_sweep.fits["lambda"]
    ok = fit["slope"] >= 0.9 and fit["r2"] >= 0.95
    report("criterion 3 (eigenvalue rate)", ok,
           f"slope = {fit['slope']:.3f} (>= 0.9), r^2 = {fit['r2']:.4f} "
           f"(>= 0.95)")


def test_criterion_04_eigenfunction_rate(sin_abc_sweep):
    f_eig = sin_abc_sweep.fits["eigfun"]
    f_z = sin_abc_sweep.fits["z"]
    ok = f_eig["slope"] >= 0.9 and f_z["slope"] >= 0.9
    report("criterion 4 (eigenfunction rate)", ok,
           f"||(1+t)u^eps - u|| slope = {f_eig['slope']:.3f}, "
           f"||z^eps|| slope = {f_z['slope']:.3f} (both >= 0.9)")


def test_criterion_05_pivot_rate(sin_abc_sweep):
    fit = sin_abc_sweep.fits["w_minus_u"]
    report("criterion 5 (pivot-problem rate)", fit["slope"] >= 0.9,
           f"||w^eps - u|| slope = {fit['slope']:.3f} (>= 0.9)")


def test_criterion_06_corrector_bound(sin_abc_sweep):
    ratios = [r["v_norm"] / r["eps"] for r in sin_abc_sweep.rows]
    ok = max(ratios) <= 10 * ratios[0]
    report("criterion 6 (corrector bound)", ok,
           f"sup ||v^eps||/eps = {max(ratios):.4f} <= 10 x "
           f"{ratios[0]:.4f} (value at largest eps)")


def test_criterion_07_nonlinear_pipeline():
    # (a) sweep slope
    cfg = eg.SweepConfig(problem="bellman-2ctl-1d", mode="bellman",
                         eps_list=[1 / 8, 1 / 16, 1 / 32, 1 / 64], q=64,
                         measurements=("lambda_rate",))
    rep = eg.run_sweep(cfg)
    slope = rep.fits["lambda"]["slope"]
    # (b) singleton control matches the linear pipeline per eps
    spec = eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5)
    grid = eg.DomainGrid.unit(1, 512)
    single_max = 0.0
    for eps in (1 / 8, 1 / 16, 1 / 32):
        lin = eg.principal_eigenpair(
            eg.assemble_oscillatory(spec, eps, grid), tol=1e-11)
        bel, _ = eg.principal_eigenpair_bellman(
            eg.BellmanSpec([spec]), eps, grid, tol=1e-11)
        single_max = max(single_max, abs(lin.lam - bel.lam))
    # (c) tiny-grid exhaustive policy enumeration
    bs = eg.cli.build_problem("bellman-2ctl-1d")["spec"]
    g8 = eg.DomainGrid.unit(1, 8)
    ops = eg.bellman_operators(bs, 0.5, g8)
    pair, _ = eg.principal_eigenpair_bellman(bs, 0.5, g8, tol=1e-12)
    ni = csr(ops[0]).shape[0]
    enum = min(
        eg.principal_eigenpair(_freeze_policy(ops, np.array(bits), g8),
                               tol=1e-12).lam
        for bits in itertools.product(range(2), repeat=ni))
    enum_err = abs(pair.lam - enum)
    ok = slope >= 0.9 and single_max <= 1e-10 and enum_err <= 1e-9
    report("criterion 7 (nonlinear pipeline)", ok,
           f"slope = {slope:.3f} (>= 0.9), singleton-vs-linear "
           f"{single_max:.1e} (tol 1e-10), enumeration {enum_err:.1e} "
           f"(tol 1e-9)")


def test_criterion_08_certification_invariants():
    spec = eg.LinearOperatorSpec(
        eg.sin_field_1d(delta=0.5, b_amp=1.0, c0=0.2, c_amp=0.4),
        0.5, 1.5, c1=1.0)
    grid = eg.DomainGrid.unit(1, 512)
    rng = np.random.default_rng(11)
    worst_width, worst_dev, bracket_ok = 0.0, 0.0, True
    for eps in (1 / 4, 1 / 8, 1 / 16):
        op = eg.assemble_oscillatory(spec, eps, grid)
        base = eg.principal_eigenpair(op, tol=1e-9)
        bracket_ok &= base.cw_lower <= base.lam <= base.cw_upper
        worst_width = max(worst_width, base.cw_upper - base.cw_lower)
        ref = eg.principal_eigenpair(op, tol=1e-11)
        for _ in range(10):
            x0 = rng.uniform(0.05, 3.0, size=csr(op).shape[0])
            p = eg.principal_eigenpair(op, tol=1e-11, x0=x0)
            worst_dev = max(worst_dev, abs(p.lam - ref.lam))
    ok = bracket_ok and worst_width <= 1e-8 and worst_dev <= 1e-10
    report("criterion 8 (certification invariants)", ok,
           f"bracket contains lambda: {bracket_ok}, max width "
           f"{worst_width:.1e} (tol 1e-8), max restart deviation "
           f"{worst_dev:.1e} (tol 1e-10)")


def test_criterion_09_degenerate_identities():
    spec = eg.LinearOperatorSpec(eg.constant_field(1, 1.3, b0=[0.2], c0=-0.1),
                                 1.3, 1.3, c1=0.2)
    cs = eg.build_corrector_set(spec, eg.PeriodicGrid(1, 128))
    eff = eg.effective_linear(spec, cs)
    a_err = abs(eff.a_bar[0, 0] - 1.3)
    chi_max = max(np.max(np.abs(sol.chi.flat))
                  for sol in [cs.nu, cs.xi] + cs.eta + cs.nu1 +
                  list(cs.chi.values()) + list(cs.chi3.values()) +
                  list(cs.eta2.values()))
    grid = eg.DomainGrid.unit(1, 512)
    eff_pair = eg.principal_eigenpair(eg.assemble_effective(eff, grid),
                                      tol=1e-11)
    lam_err = 0.0
    for eps in (1 / 4, 1 / 8, 1 / 16):
        p = eg.principal_eigenpair(eg.assemble_oscillatory(spec, eps, grid),
                                   tol=1e-11)
        lam_err = max(lam_err, abs(p.lam - eff_pair.lam))
    ok = a_err <= 1e-12 and chi_max <= 1e-12 and lam_err <= 1e-9
    report("criterion 9 (degenerate identities)", ok,
           f"|a_bar - a| = {a_err:.1e}, max corrector {chi_max:.1e} "
           f"(tol 1e-12), max |lam_eps - lam_bar| = {lam_err:.1e} (tol 1e-9)")


def test_criterion_10_2d_sanity():
    t0 = time.perf_counter()
    cfg = eg.SweepConfig(problem="sep-2d", eps_list=[1 / 4, 1 / 8, 1 / 16],
                         q=16, n_torus=64, measurements=("lambda_rate",))
    rep = eg.run_sweep(cfg)
    errs = [r["abs_err_lambda"] for r in rep.rows]
    dt = time.perf_counter() - t0
    ok = errs[0] > errs[1] > errs[2] and dt < 600
    report("criterion 10 (2D sanity)", ok,
           f"|lam_eps - lam_bar| = {errs[0]:.2e} > {errs[1]:.2e} > "
           f"{errs[2]:.2e}, {dt:.1f}s")
