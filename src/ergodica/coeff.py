"""Periodic coefficient fields and operator specifications.

A coefficient field is a triple of 1-periodic maps y -> (a(y), b(y), c(y))
with a(y) symmetric positive definite. Fields are built in closed form
(constants and trigonometric polynomials, which are C^infinity on the
torus); `cli.build_problem` names the problems assembled from them.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError

_SYM_TOL = 1e-10


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

    def check(self, lambda_ell, Lambda_ell, n_samples=64, tol=_SYM_TOL):
        """Validate symmetry, ellipticity and periodicity on a sample grid.

        Returns a list of violation strings (empty when the field passes).
        """
        violations = []
        rng = np.random.default_rng(0)
        pts = rng.random((n_samples, self.dim))
        av, bv, cv = self.sample(pts)
        asym = np.max(np.abs(av - np.transpose(av, (0, 2, 1))))
        if asym > tol:
            violations.append(f"a not symmetric: max asymmetry {asym:.3e}")
        eigs = np.linalg.eigvalsh(0.5 * (av + np.transpose(av, (0, 2, 1))))
        if eigs.min() < lambda_ell - tol or eigs.max() > Lambda_ell + tol:
            violations.append(
                f"a spectrum [{eigs.min():.6g}, {eigs.max():.6g}] escapes "
                f"[{lambda_ell:.6g}, {Lambda_ell:.6g}]"
            )
        for k in range(self.dim):
            shift = np.zeros(self.dim)
            shift[k] = 1.0
            a2, b2, c2 = self.sample(pts + shift)
            period_err = max(
                np.max(np.abs(av - a2)), np.max(np.abs(bv - b2)), np.max(np.abs(cv - c2))
            )
            if period_err > tol:
                violations.append(f"not 1-periodic along axis {k}: {period_err:.3e}")
        return violations


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
    """Extremal Pucci operator M^+/M^- with ellipticity interval [lambda, Lambda]."""

    lambda_ell: float
    Lambda_ell: float
    sign: str = "plus"

    def __post_init__(self):
        if not (0 < self.lambda_ell <= self.Lambda_ell):
            raise ConfigError("need 0 < lambda_ell <= Lambda_ell")
        if self.sign not in ("plus", "minus"):
            raise ConfigError("sign must be 'plus' or 'minus'")


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


def _check_symmetric(X, tol=1e-8):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise InputError(f"expected a square matrix, got shape {X.shape}")
    scale = 1.0 + np.max(np.abs(X))
    if np.max(np.abs(X - X.T)) > tol * scale:
        raise InputError("matrix is not symmetric within tolerance")
    return 0.5 * (X + X.T)


def eval_pucci(spec: PucciSpec, X) -> float:
    """Evaluate M^+ (sign='plus') or M^- (sign='minus') at a symmetric matrix.

    M^+(X) = Lambda * sum(positive eigenvalues) + lambda * sum(negative ones),
    the sup of Tr(AX) over lambda*I <= A <= Lambda*I; M^- swaps the roles.
    """
    X = _check_symmetric(X)
    eigs = np.linalg.eigvalsh(X)
    pos = eigs[eigs > 0].sum()
    neg = eigs[eigs < 0].sum()
    if spec.sign == "plus":
        return float(spec.Lambda_ell * pos + spec.lambda_ell * neg)
    return float(spec.lambda_ell * pos + spec.Lambda_ell * neg)


def eval_bellman(spec: BellmanSpec, y, r, p, X) -> float:
    """max over controls of Tr(a(y) X) + b(y).p + c(y) r at one torus point."""
    X = _check_symmetric(X)
    y = np.asarray(y, dtype=float).reshape(1, spec.dim)
    p = np.asarray(p, dtype=float).reshape(spec.dim)
    best = -np.inf
    for ctl in spec.controls:
        av, bv, cv = ctl.field.sample(y)
        val = float(np.trace(av[0] @ X) + bv[0] @ p + cv[0] * r)
        best = max(best, val)
    return best


def linear_value(spec: LinearOperatorSpec, y, r, p, X) -> float:
    """Tr(a(y) X) + b(y).p + c(y) r for a single linear operator."""
    return eval_bellman(BellmanSpec([spec]), y, r, p, X)


@dataclass
class StructureReport:
    samples: int
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def validate_structure(spec: LinearOperatorSpec, sample_count: int, seed=0,
                       tol=_SYM_TOL) -> StructureReport:
    """Sample random increments and check the Pucci sandwich and 1-homogeneity.

    For the induced operator F(y, r, p, X) = Tr(a(y)X) + b(y).p + c(y)r the
    structure condition requires, for all increments (s, q, Y),

        M^-(Y) - C1(|q| + |s|) <= F(y, r+s, p+q, X+Y) - F(y, r, p, X)
                                <= M^+(Y) + C1(|q| + |s|),

    together with F(y, alpha r, alpha p, alpha X) = alpha F(y, r, p, X).
    """
    if sample_count < 1:
        raise InputError("sample_count must be >= 1")
    d = spec.dim
    rng = np.random.default_rng(seed)
    plus = PucciSpec(spec.lambda_ell, spec.Lambda_ell, "plus")
    minus = PucciSpec(spec.lambda_ell, spec.Lambda_ell, "minus")
    report = StructureReport(samples=sample_count)
    for i in range(sample_count):
        y = rng.random(d)
        r, s = rng.normal(size=2)
        p = rng.normal(size=d)
        q = rng.normal(size=d)
        Y = rng.normal(size=(d, d))
        Y = 0.5 * (Y + Y.T)
        X = rng.normal(size=(d, d))
        X = 0.5 * (X + X.T)
        base = linear_value(spec, y, r, p, X)
        inc = linear_value(spec, y, r + s, p + q, X + Y) - base
        slack = spec.c1 * (abs(s) + np.linalg.norm(q))
        upper = eval_pucci(plus, Y) + slack
        lower = eval_pucci(minus, Y) - slack
        if inc > upper + tol:
            report.violations.append(
                f"sample {i}: increment {inc:.6g} exceeds upper bound {upper:.6g}"
            )
        if inc < lower - tol:
            report.violations.append(
                f"sample {i}: increment {inc:.6g} below lower bound {lower:.6g}"
            )
        alpha = rng.random() * 2.0
        hom = linear_value(spec, y, alpha * r, alpha * p, alpha * X) - alpha * base
        if abs(hom) > tol * (1.0 + abs(base)):
            report.violations.append(
                f"sample {i}: 1-homogeneity defect {hom:.3e} at alpha={alpha:.3f}"
            )
    return report


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


def pucci_controls_1d(spec: PucciSpec, c1=0.0):
    """Represent a 1D Pucci operator exactly as a two-control Bellman spec.

    In one dimension M^+(m) = max(lambda*m, Lambda*m); M^- is min, which is
    not a sup-form operator and is rejected.
    """
    if spec.sign != "plus":
        raise ConfigError("only M^+ has a sup (Bellman) representation")
    mk = lambda kappa: LinearOperatorSpec(
        constant_field(1, kappa), spec.lambda_ell, spec.Lambda_ell, c1)
    return BellmanSpec([mk(spec.lambda_ell), mk(spec.Lambda_ell)])
