"""Effective coefficients: first- and third-order constants.

Each effective constant is the ergodic constant of one torus cell problem.
The first round (chi^kl, eta^k, nu) uses the raw coefficients as data; the
second round feeds on 4th-order gradients of the first-round correctors.

lambda_bar needs only a_bar = <mu, a>, b_bar = <mu, b>, c_bar = <mu, c>,
mu the invariant measure of a(y) D^2 on the torus, which
`first_order_effective` reads off the cell factor with no corrector solved;
only the eigenfunction expansion reads the correctors and third-order
constants of `build_corrector_set` and `effective_linear`.

The homogenized Bellman map F_bar(M) is the ergodic constant of
`torus.solve_nonlinear_cell` at M, convex and positively 1-homogeneous. A
1D Bellman sweep reads only m_minus = -F_bar(-1): with pure second-order
controls a positive eigenfunction is strictly concave, so its effective
operator is m_minus D^2 (`cli.run_sweep`).
"""

from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional

import numpy as np

from .coeff import LinearOperatorSpec
from .errors import InputError, SolverError
from .torus import (
    ErgodicSolution,
    PeriodicGrid,
    assemble_torus_diffusion,
    cell_factor,
    gradient_matrices,
    solve_cell,
)

# slack of a_bar's spectrum on the ellipticity interval [lambda, Lambda]
_ELLIPTICITY_TOL = 1e-8


@dataclass
class CorrectorSet:
    """All torus correctors of a linear operator, anchored at the grid origin."""

    grid: PeriodicGrid
    chi: Dict[tuple, ErgodicSolution]       # (k, l) -> chi^{kl}
    eta: List[ErgodicSolution]              # k -> eta^k
    nu: ErgodicSolution
    chi3: Dict[tuple, ErgodicSolution]      # (k, l, m) -> chi^{klm}
    eta2: Dict[tuple, ErgodicSolution]      # (k, l) -> eta^{kl}
    nu1: List[ErgodicSolution]              # k -> nu^k
    xi: ErgodicSolution


@dataclass
class EffectiveLinear:
    """Constant coefficients of the effective operator, plus third-order
    constants; those are None when built by `first_order_effective`."""

    a_bar: np.ndarray           # (d, d), symmetrized
    b_bar: np.ndarray           # (d,)
    c_bar: float
    a_bar_klm: Optional[np.ndarray] = None  # (d, d, d)
    b_bar_kl: Optional[np.ndarray] = None   # (d, d)
    c_bar_k: Optional[np.ndarray] = None    # (d,)
    d_bar: Optional[float] = None
    asymmetry_defect: float = 0.0

    @property
    def dim(self):
        return self.a_bar.shape[0]

    def as_dict(self):
        keys = ("a_bar", "b_bar", "c_bar", "a_bar_klm", "b_bar_kl", "c_bar_k",
                "d_bar")
        return {k: np.asarray(getattr(self, k)).tolist() for k in keys}


def build_corrector_set(spec: LinearOperatorSpec, grid: PeriodicGrid) -> CorrectorSet:
    """Solve the full hierarchy of cell problems for a linear operator.

    One `cell_factor` of the augmented cell matrix serves two block solves,
    one per round. Order matters: the second-round right-hand sides consume
    gradients of the first-round correctors (centered 4th-order differences).
    """
    d = spec.dim
    if grid.dim != d:
        raise InputError("grid dimension does not match the operator")
    avals, bvals, cvals = spec.field.sample(grid.points())
    A = assemble_torus_diffusion(spec.field, grid)
    lu = cell_factor(avals.reshape(grid.shape + (d, d)), A)
    D = gradient_matrices(grid)

    def solve(rhs):
        """One block solve for a round of cell problems."""
        try:
            sols = solve_cell(A, np.column_stack(list(rhs.values())), grid,
                              lu=lu)
        except SolverError as exc:
            raise SolverError(
                f"cell problems {', '.join(rhs)} failed: {exc}") from exc
        return dict(zip(rhs, sols))

    pairs = [(k, l) for k in range(d) for l in range(d)]
    first = solve({**{f"chi[{k}{l}]": avals[:, k, l] for k, l in pairs},
                   **{f"eta[{k}]": bvals[:, k] for k in range(d)},
                   "nu": cvals})
    chi = {(k, l): first[f"chi[{k}{l}]"] for k, l in pairs}
    eta = [first[f"eta[{k}]"] for k in range(d)]
    nu = first["nu"]

    grad = lambda sol: [Dk @ sol.chi.flat for Dk in D]
    grad_chi = {kl: grad(sol) for kl, sol in chi.items()}
    grad_eta = [grad(sol) for sol in eta]
    grad_nu = grad(nu)

    # 2 a_{*m} . D_y chi^{kl}
    def col_dot(m, g):
        return sum(avals[:, i, m] * g[i] for i in range(d))

    def b_dot(g):
        return sum(bvals[:, i] * g[i] for i in range(d))

    second = solve({
        **{f"chi[{k}{l}{m}]": 2.0 * col_dot(m, grad_chi[(k, l)])
           for k, l in pairs for m in range(d)},
        **{f"eta[{k}{l}]": 2.0 * col_dot(k, grad_eta[l]) + b_dot(grad_chi[(k, l)])
           for k, l in pairs},
        **{f"nu[{k}]": 2.0 * col_dot(k, grad_nu) + b_dot(grad_eta[k])
           for k in range(d)},
        "xi": b_dot(grad_nu),
    })
    chi3 = {(k, l, m): second[f"chi[{k}{l}{m}]"] for k, l in pairs for m in range(d)}
    eta2 = {(k, l): second[f"eta[{k}{l}]"] for k, l in pairs}
    nu1 = [second[f"nu[{k}]"] for k in range(d)]
    xi = second["xi"]
    return CorrectorSet(grid, chi, eta, nu, chi3, eta2, nu1, xi)


def _effective(spec: LinearOperatorSpec, gam, b_bar, c_bar, **third):
    """EffectiveLinear from the ergodic constants gam[k, l] of chi^kl: a_bar
    is gam symmetrized, the defect recorded, and its spectrum must lie in
    the ellipticity interval."""
    a_bar = 0.5 * (gam + gam.T)
    defect = float(np.max(np.abs(gam - gam.T)))
    eigs = np.linalg.eigvalsh(a_bar)
    if eigs.min() < spec.lambda_ell - _ELLIPTICITY_TOL or \
            eigs.max() > spec.Lambda_ell + _ELLIPTICITY_TOL:
        raise SolverError(
            f"effective matrix spectrum [{eigs.min():.6g}, {eigs.max():.6g}] escapes "
            f"the ellipticity interval [{spec.lambda_ell:.6g}, {spec.Lambda_ell:.6g}]"
        )
    return EffectiveLinear(a_bar=a_bar, b_bar=b_bar, c_bar=c_bar,
                           asymmetry_defect=defect, **third)


def first_order_effective(spec: LinearOperatorSpec,
                          grid: PeriodicGrid) -> EffectiveLinear:
    """a_bar, b_bar and c_bar alone, the first-round ergodic constants mu . f
    of f = a_kl, b_k, c, bit for bit those of `effective_linear`; the
    third-order fields are None. `cell_factor` picks the factor: a closed
    form gives gamma = mu . F (`gamma`), a SuperLU factor the gammas of one
    `solve_cell`, residual check included."""
    d = spec.dim
    if grid.dim != d:
        raise InputError("grid dimension does not match the operator")
    avals, bvals, cvals = spec.field.sample(grid.points())
    F = np.column_stack([avals.reshape(-1, d * d), bvals, cvals])
    # assembled only for a SuperLU factor, which its solve_cell reuses
    a_op = cache(lambda: assemble_torus_diffusion(spec.field, grid))
    lu = cell_factor(avals.reshape(grid.shape + (d, d)), a_op)
    gam = lu.gamma(F) if hasattr(lu, "gamma") else \
        np.array([sol.gamma for sol in solve_cell(a_op(), F, grid, lu=lu)])
    return _effective(spec, gam[:d * d].reshape(d, d), gam[d * d:-1],
                      float(gam[-1]))


def effective_linear(spec: LinearOperatorSpec, correctors: CorrectorSet) -> EffectiveLinear:
    """Package all ergodic constants; a_bar is symmetrized, the defect recorded."""
    d = spec.dim
    gam = np.array([[correctors.chi[(k, l)].gamma for l in range(d)] for k in range(d)])
    return _effective(
        spec, gam, np.array([sol.gamma for sol in correctors.eta]),
        correctors.nu.gamma,
        a_bar_klm=np.array(
            [[[correctors.chi3[(k, l, m)].gamma for m in range(d)]
              for l in range(d)] for k in range(d)]
        ),
        b_bar_kl=np.array(
            [[correctors.eta2[(k, l)].gamma for l in range(d)] for k in range(d)]
        ),
        c_bar_k=np.array([sol.gamma for sol in correctors.nu1]),
        d_bar=correctors.xi.gamma,
    )
