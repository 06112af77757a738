"""Periodic coefficient fields and operator specifications.

A coefficient field is a triple of 1-periodic maps y -> (a(y), b(y), c(y))
with a(y) symmetric positive definite. Fields are built in closed form
(constants and trigonometric polynomials, which are C^infinity on the
torus); `cli.build_problem` names the problems assembled from them, and
`check_structure` verifies a spec's declared constants on samples.
"""

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError

# slack on a declared structure bound, relative to 1 + |bound|
_STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientField:
    """Periodic maps y -> a(y) in S^d, b(y) in R^d, c(y) in R.

    The evaluators are vectorized: given points of shape (m, dim) they
    return arrays of shape (m, dim, dim), (m, dim) and (m,). Period is 1
    per axis; callers with other periods rescale before constructing.
    """

    dim: int
    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    c: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")

    def sample(self, points):
        """Evaluate (a, b, c) at an (m, dim) array of torus points."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        return self.a(pts), self.b(pts), self.c(pts)


@dataclass(frozen=True)
class LinearOperatorSpec:
    """A linear non-divergence operator a:D^2 + b.D + c with its structure constants."""

    field: CoefficientField
    lambda_ell: float
    Lambda_ell: float
    c1: float = 0.0

    def __post_init__(self):
        if not (0 < self.lambda_ell <= self.Lambda_ell):
            raise ConfigError("need 0 < lambda_ell <= Lambda_ell")
        if self.c1 < 0:
            raise ConfigError("c1 must be nonnegative")

    @property
    def dim(self):
        return self.field.dim


@dataclass(frozen=True)
class PucciSpec:
    """Maximal Pucci operator M^+ with ellipticity interval [lambda, Lambda].

    M^+(X) = sup Tr(AX) over lambda*I <= A <= Lambda*I. The minimal M^- is
    an inf, not a sup-form (Bellman) operator, so it has no spec here.
    """

    lambda_ell: float
    Lambda_ell: float

    def __post_init__(self):
        if not (0 < self.lambda_ell <= self.Lambda_ell):
            raise ConfigError("need 0 < lambda_ell <= Lambda_ell")


@dataclass(frozen=True)
class BellmanSpec:
    """Convex Bellman operator: nodewise sup over a finite list of linear controls."""

    controls: Sequence[LinearOperatorSpec]

    def __post_init__(self):
        if len(self.controls) == 0:
            raise ConfigError("Bellman spec needs at least one control")
        dims = {ctl.dim for ctl in self.controls}
        if len(dims) != 1:
            raise ConfigError(f"controls disagree on dimension: {dims}")

    @property
    def dim(self):
        return self.controls[0].dim

    @property
    def lambda_ell(self):
        return min(ctl.lambda_ell for ctl in self.controls)

    @property
    def Lambda_ell(self):
        return max(ctl.Lambda_ell for ctl in self.controls)

    def diffusions(self, points):
        """a_beta at `points`, (controls, m, d, d); cells take Tr(a D^2) only."""
        samples = [ctl.field.sample(points) for ctl in self.controls]
        for k, (_, b, c) in enumerate(samples):
            if b.any() or c.any():
                raise InputError(f"control {k} has a drift or zeroth-order term; "
                                 "Bellman cells take controls Tr(a D^2) only")
        return np.array([a for a, _, _ in samples])

    def envelope(self):
        """1D a_min D^2, a_min = min_beta a_beta: the spec wherever D^2 < 0,
        as on a positive eigenfunction and in the M = -1 cell (`cli.run_sweep`)."""
        if self.dim != 1:
            raise InputError("the envelope of Bellman controls is 1D only")
        field = replace(constant_field(1, 1.0),
                        a=lambda pts: self.diffusions(pts).min(axis=0))
        return LinearOperatorSpec(field, self.lambda_ell, self.Lambda_ell)


def check_structure(spec, points):
    """Check a spec's declared structure constants on samples at `points`.

    The structure condition of the theory is the Pucci sandwich

        M^-(Y) - c1 (|q| + |s|) <= F(y, r+s, p+q, X+Y) - F(y, r, p, X)
                                <= M^+(Y) + c1 (|q| + |s|).

    For a linear F = Tr(aX) + b.p + c r it holds exactly when, at every y,
    a(y) is symmetric with lambda_ell <= eig a(y) <= Lambda_ell,
    |b(y)| <= c1 and |c(y)| <= c1; a Bellman spec satisfies it when each
    control does. The eigenvalues of a 2x2 (or 1x1) a are taken in closed
    form. The first bound violated by more than `_STRUCTURE_TOL` (relative
    to the bound) is a ConfigError naming the control, the bound, the
    excess and y.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, spec.dim)
    controls = spec.controls if isinstance(spec, BellmanSpec) else [spec]
    for i, ctl in enumerate(controls):
        a, b, c = ctl.field.sample(pts)
        if ctl.dim == 2:
            off, asym = a[:, 0, 1], np.abs(a[:, 0, 1] - a[:, 1, 0])
        else:
            off = asym = np.zeros(len(pts))
        mid = 0.5 * (a[:, 0, 0] + a[:, -1, -1])
        rad = np.hypot(0.5 * (a[:, 0, 0] - a[:, -1, -1]), off)
        lam, Lam, c1 = ctl.lambda_ell, ctl.Lambda_ell, ctl.c1
        bounds = (
            ("a = a^T", asym, 0.0),
            (f"eig a >= lambda_ell = {lam:.6g}", lam - (mid - rad), lam),
            (f"eig a <= Lambda_ell = {Lam:.6g}", mid + rad - Lam, Lam),
            (f"|b| <= c1 = {c1:.6g}", np.sqrt((b * b).sum(axis=1)) - c1, c1),
            (f"|c| <= c1 = {c1:.6g}", np.abs(c) - c1, c1),
        )
        for name, excess, bound in bounds:
            k = int(np.argmax(excess))
            if excess[k] > _STRUCTURE_TOL * (1.0 + abs(bound)):
                y = ", ".join(f"{v:.6g}" for v in pts[k])
                raise ConfigError(f"control {i} violates {name} by "
                                  f"{excess[k]:.3g} at y = ({y})")


# ---------------------------------------------------------------------------
# closed-form fields


def constant_field(dim, a0, b0=None, c0=0.0):
    """Constant-coefficient field; a0 may be a scalar (isotropic) or a (dim, dim)
    matrix, b0 a scalar (the same drift on every axis) or a (dim,) vector."""
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim == 0:
        a0 = a0 * np.eye(dim)
    b0 = np.zeros(dim) if b0 is None else np.asarray(b0, dtype=float)
    if b0.ndim == 0:
        b0 = np.full(dim, float(b0))
    if a0.shape != (dim, dim) or b0.shape != (dim,):
        raise ConfigError(
            f"constant field in {dim}D needs a0 of shape ({dim}, {dim}) and b0 of "
            f"shape ({dim},), got {a0.shape} and {b0.shape}")
    c0 = float(c0)

    def a(pts):
        return np.broadcast_to(a0, (len(pts), dim, dim)).copy()

    def b(pts):
        return np.broadcast_to(b0, (len(pts), dim)).copy()

    def c(pts):
        return np.full(len(pts), c0)

    return CoefficientField(dim, a, b, c)


def sin_field_1d(a0=1.0, delta=0.5, b_amp=0.0, c0=0.0, c_amp=0.0):
    """1D trigonometric field: a = a0 + delta*sin(2 pi y), b = b_amp*cos(2 pi y),
    c = c0 + c_amp*sin(2 pi y)."""
    if a0 - abs(delta) <= 0:
        raise ConfigError("a0 - |delta| must stay positive")

    def a(pts):
        y = pts[:, 0]
        return (a0 + delta * np.sin(2 * np.pi * y))[:, None, None]

    def b(pts):
        y = pts[:, 0]
        return (b_amp * np.cos(2 * np.pi * y))[:, None]

    def c(pts):
        y = pts[:, 0]
        return c0 + c_amp * np.sin(2 * np.pi * y)

    return CoefficientField(1, a, b, c)


def separable_sin_field_2d(a0=1.0, delta=0.5):
    """2D diagonal field a = diag(a0 + delta sin(2 pi y1), a0 + delta sin(2 pi y2))."""
    if a0 - abs(delta) <= 0:
        raise ConfigError("a0 - |delta| must stay positive")

    def a(pts):
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = a0 + delta * np.sin(2 * np.pi * pts[:, 0])
        out[:, 1, 1] = a0 + delta * np.sin(2 * np.pi * pts[:, 1])
        return out

    def b(pts):
        return np.zeros((len(pts), 2))

    def c(pts):
        return np.zeros(len(pts))

    return CoefficientField(2, a, b, c)


def pucci_controls_1d(spec: PucciSpec):
    """Represent the 1D Pucci operator M^+ exactly as a two-control Bellman
    spec: in one dimension M^+(m) = max(lambda*m, Lambda*m)."""
    mk = lambda kappa: LinearOperatorSpec(
        constant_field(1, kappa), spec.lambda_ell, spec.Lambda_ell)
    return BellmanSpec([mk(spec.lambda_ell), mk(spec.Lambda_ell)])
