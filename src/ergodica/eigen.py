"""Principal eigenpairs of monotone discrete operators.

The effective operator has constant coefficients, so its pair is a closed
form (`ToeplitzPair`, `effective_eigenpair`) unless a_bar has a cross term.
The linear solver runs inverse power iteration on B = s*I - L_h (a
nonsingular M-matrix after the properness shift s), whose inverse is
entrywise nonnegative, so the iterates stay positive and the Collatz-
Wielandt ratios bracket the Perron value of B as stored at every step:
its cyclic-reduction factor (`torus.FactoredOperator`) adds no cancelling
term, so each solve is accurate componentwise. Storing B rounds its
diagonal s - diag(L_h) once, so the bracket is not yet one for L_h's exact
stencil. A seeded band solve (a sweep's 1D rows and Howard evaluations)
replaces every other iterate by Aitken's delta^2 extrapolation, which
keeps the bracket a certificate since any positive iterate gives one; the
plain steps between jumps measure its ratio and stop it when a jump widens
the bracket. Unseeded and SuperLU solves iterate plainly. Bellman
problems wrap the linear solver in Howard policy iteration. An operator
is its row-aligned weights in 1D and 2D alike (`domain.DiscreteOperator`):
B, the residual and a frozen policy are formed from them the same way,
and only the factor tells a tridiagonal B (cyclic reduction) from a 2D
one (SuperLU of its CSR).

A 2D operator whose samples separate by axis (sep-2d, a 2D effective one)
is a Kronecker sum of two 1D ones, whose Perron roots and brackets add.
"""

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .coeff import BellmanSpec
from .domain import (
    DiscreteOperator,
    DomainGrid,
    assemble_linear,
    bellman_operators,
    effective_samples,
    properness_shift,
    shifted_m_matrix,
)
from .effective import EffectiveLinear
from .errors import InputError, IterationError, SolverError
from .stencils import select_weights, separable_by_axis, stencil_weights
from .torus import (FactoredOperator, GridFunction, improve_policy,
                    policy_iteration)

MAX_POWER_ITER = 500
MAX_HOWARD_OUTER = 60


@dataclass
class EigenPair:
    """Principal eigenpair with sign convention L phi = -lambda phi.

    phi is positive on the interior, sup-normalized; [cw_lower, cw_upper]
    is an a posteriori Perron bracket around lambda.
    """

    lam: float
    phi: GridFunction
    residual: float
    cw_lower: float
    cw_upper: float
    iterations: int
    bracket_history: list = dc_field(default_factory=list)


def _start_vector(x0, grid, n, name="starting"):
    """x0, a GridFunction on `grid` or a vector on its n interior nodes, as
    a fresh interior vector; InputError, naming x0 `name`, unless it is
    finite and positive."""
    if isinstance(x0, GridFunction):
        if x0.values.shape != grid.shape:
            raise InputError(f"{name} grid function has shape "
                             f"{x0.values.shape}, not {grid.shape}")
        x0 = x0.flat[grid.interior_index()]
    v = np.array(x0, dtype=float)
    if v.shape != (n,) or not (np.all(np.isfinite(v)) and v.min() > 0):
        raise InputError(f"{name} vector must be finite and positive, of "
                         f"shape ({n},); got shape {v.shape}")
    return v


def principal_eigenpair(op: DiscreteOperator, tol=1e-9, x0=None) -> EigenPair:
    """Positive principal eigenpair of a monotone discrete operator.

    Stops when the Collatz-Wielandt bracket around lambda is narrower than
    `tol`, within MAX_POWER_ITER iterations; lambda is the bracket midpoint.
    B = s*I - L_h, the weights from `shifted_m_matrix`, is factored once
    (`torus.FactoredOperator`: cyclic reduction when B is tridiagonal,
    SuperLU of its CSR otherwise) and every iteration is one solve against
    it. It starts from `x0`, a GridFunction on op.grid or a vector on the
    interior nodes (default ones); s and B do not depend on it, so it moves
    lambda only inside the certified bracket.

    A seeded band solve (`x0` given, B tridiagonal) takes Aitken's delta^2
    step (Aitken 1926) after two plain ones: the next iterate is x ~ w -
    q v / (s + lambda_mid), v the step's input, w = B^{-1} v, q the ratio of
    the last two bracket widths and lambda_mid the bracket's midpoint, which
    removes the error along the second eigenvector. Any positive iterate
    gives a valid bracket, so the certificate stands: x is taken only when
    it is positive (else w is), a plain step follows every jump and
    measures q afresh, and a jump that widens the bracket ends the jumps of
    that solve. Unseeded and SuperLU solves iterate plainly. The pair's
    `residual` is formed when first read.
    """
    n = len(op.grid.interior_index())
    v = np.ones(n) if x0 is None else _start_vector(x0, op.grid, n)
    s = properness_shift(op)
    shifted, ok, info = shifted_m_matrix(op, s)
    if not ok:
        raise SolverError(f"operator is not monotone under shift {s:g}: {info}")
    lu = FactoredOperator(shifted)
    del shifted  # the power loop needs only the factor
    v /= v.max()

    r, history = np.empty(n), []
    extrapolate, jumped = x0 is not None and lu.tridiagonal, False
    for it in range(1, MAX_POWER_ITER + 1):
        w = lu.solve(v)
        np.divide(w, v, out=r)  # v > 0, so r has the signs of w
        r_min, r_max = r.min(), r.max()
        if r_min <= 0:
            raise SolverError(
                "inverse power iterate lost positivity; monotonicity failure"
            )
        # Perron value of B^{-1} lies in [r_min, r_max]; map to lambda
        lower = 1.0 / r_max - s
        upper = 1.0 / r_min - s
        history.append(upper - lower)
        if upper - lower <= tol:
            break
        if jumped:  # a plain step, whose bracket judges the jump
            extrapolate, jumped = history[-1] <= history[-2], False
        elif extrapolate and it >= 2:
            # x = w - q v / (s + lambda_mid), formed in v
            q = history[-1] / history[-2]
            np.multiply(v, q / (s + 0.5 * (lower + upper)), out=v)
            np.subtract(w, v, out=v)
            jumped = v.min() > 0
        if not jumped:
            v = w
        v /= v.max()
    else:
        raise IterationError(
            f"power iteration: bracket width {upper - lower:.3e} > tol after "
            f"{MAX_POWER_ITER} iterations (bracket [{lower:.12g}, {upper:.12g}])"
        )
    w /= w.max()
    return PowerPair(op, w, lower, upper, it, history)


class PowerPair(EigenPair):
    """The EigenPair of inverse iteration on `op`, from its last iterate v
    (interior, sup-normalized) and lam, the midpoint of the certified
    [cw_lower, cw_upper]. residual = max |L v + lam v| on the interior is
    formed when first read, from the operator the pair keeps."""

    def __init__(self, op, v, lower, upper, iterations, history):
        self._op = op
        self.lam = float(0.5 * (lower + upper))
        self.cw_lower, self.cw_upper = float(lower), float(upper)
        self.phi = GridFunction(op.grid, op.grid.embed(v))
        self.iterations, self.bracket_history = iterations, history

    @cached_property
    def residual(self):
        v = self.phi.flat[self.phi.grid.interior_index()]
        return float(np.max(np.abs(self._op @ v + self.lam * v)))


class KroneckerPair(EigenPair):
    """The EigenPair of L_1 (x) I + I (x) L_2 on `grid`, from `axes`, two
    (pair_k, r_k) with r_k = L_k phi_k + lam_k phi_k on the interior: lam
    is the midpoint of the certified [l_1 + l_2, u_1 + u_2], and iterations
    and bracket widths add. phi = phi_1 (x) phi_2 and residual = max |r_1
    (x) phi_2 + phi_1 (x) r_2 + (lam - lam_1 - lam_2) phi| = max |L phi +
    lam phi| are formed when first read."""

    def __init__(self, grid: DomainGrid, axes):
        (p1, _), (p2, _) = self._axes = axes
        self._grid = grid
        self.cw_lower = p1.cw_lower + p2.cw_lower
        self.cw_upper = p1.cw_upper + p2.cw_upper
        self.lam = 0.5 * (self.cw_lower + self.cw_upper)
        self.iterations = p1.iterations + p2.iterations
        h1, h2 = p1.bracket_history, p2.bracket_history
        self.bracket_history = [h1[min(i, len(h1) - 1)] + h2[min(i, len(h2) - 1)]
                                for i in range(max(len(h1), len(h2)))]

    @cached_property
    def phi(self):
        (p1, _), (p2, _) = self._axes
        return GridFunction(self._grid, np.outer(p1.phi.values, p2.phi.values))

    @cached_property
    def residual(self):
        (p1, r1), (p2, r2) = self._axes
        v1, v2 = p1.phi.values[1:-1], p2.phi.values[1:-1]
        residual = np.outer(r1, v2) + np.outer(v1, r2) + \
            (self.lam - p1.lam - p2.lam) * np.outer(v1, v2)
        return float(np.max(np.abs(residual)))


class ToeplitzPair(EigenPair):
    """The principal pair, in closed form, of the constant 1D row with
    weights l (to i-1), u (to i+1) and, in exact arithmetic, c - l - u on
    the n cells of `grid`: lam = -c + t_1 + t_2 with t_1 = (l - u)^2 /
    (sqrt l + sqrt u)^2 and t_2 = 4 sqrt(lu) sin^2(pi / 2n), a sum with no
    O(1/h^2) cancellation, and phi_j ~ (l/u)^(j/2) sin(j pi / n), the nodes
    of u(x) = C e^(kappa x) sin(pi x / L), kappa = ln(l/u) / 2h, x from the
    left end, formed in log space and sup-normalized; both ends are 0 and
    `derivatives(m, ...)` gives u^(m) at the nodes, several orders from one
    evaluation of sin, cos and the scale. iterations is 0 and
    [cw_lower, cw_upper] = lam -+ 16 eps (|c| + t_1 + t_2), a bound on the
    rounding of the formula, not a Collatz-Wielandt bracket. `weights` are
    (l, diag, u) from `stencil_weights`; r = L phi + lam phi, with that
    diag, on the interior (`row_residual`) gives `residual`."""

    def __init__(self, grid: DomainGrid, weights, c):
        lower, diag, upper = self._weights = weights
        n, h = grid.n[0], grid.h[0]
        t1 = (lower - upper) ** 2 / (np.sqrt(lower) + np.sqrt(upper)) ** 2
        t2 = 4 * np.sqrt(lower * upper) * np.sin(np.pi / (2 * n)) ** 2
        lam, width = -c + t1 + t2, 16 * np.finfo(float).eps * (abs(c) + t1 + t2)
        self._half_log = 0.5 * np.log1p((lower - upper) / upper)  # ln(l/u) / 2
        self._kappa, self._omega = self._half_log / h, np.pi / (n * h)
        phi, = self._profiles(n, (0,))
        self._norm = phi.max()
        phi /= self._norm
        super().__init__(lam=float(lam), phi=GridFunction(grid, phi), residual=0.0,
                         cw_lower=float(lam - width), cw_upper=float(lam + width),
                         iterations=0)
        self.residual = float(np.max(np.abs(self.row_residual())))

    def _profiles(self, n, orders):
        """e^(kappa x) Im((kappa + i omega)^m e^(i omega x)) at the n + 1
        nodes for each m of `orders`, scaled in log space so that max phi is
        about 1, from one evaluation of sin, cos and the scale."""
        j = np.arange(n + 1)
        k = np.minimum(j, n - j) * (np.pi / n)  # sin(j pi / n) exact at the ends
        sin, cos = np.sin(k), np.where(2 * j <= n, 1, -1) * np.cos(k)
        scale = np.exp(j * self._half_log - np.max(
            j[1:-1] * self._half_log + np.log(sin[1:-1])))
        return [scale * (p.real * sin + p.imag * cos) for p in
                (complex(self._kappa, self._omega) ** m for m in orders)]

    def derivatives(self, *orders):
        """u^(m) at the nodes for each m of `orders`, omega = pi / L;
        derivatives(0) is [phi], bit for bit. Formed when called, all from
        one evaluation of sin, cos and the scale: the pair keeps phi alone."""
        profiles = self._profiles(self.phi.grid.n[0], orders)
        for p in profiles:
            p /= self._norm
        return [GridFunction(self.phi.grid, p) for p in profiles]

    def row_residual(self):
        """L phi + lam phi on the interior, with the row's own diagonal."""
        lower, diag, upper = self._weights
        phi = self.phi.values
        v = phi[1:-1]
        return lower * phi[:-2] + diag * v + upper * phi[2:] + self.lam * v


def effective_eigenpair(eff: EffectiveLinear, grid: DomainGrid, tol=1e-9):
    """The principal pair of L_bar on `grid`: a `ToeplitzPair` in 1D, and a
    `KroneckerPair` of one per axis for a diagonal a_bar in 2D (c_bar on
    axis 0, as `axis_samples`). An a_bar with a cross term goes to
    `linear_eigenpair` at `tol`, the one effective eigensolve left."""
    if eff.a_bar.shape != (grid.dim,) * 2 or np.shape(eff.b_bar) != (grid.dim,):
        raise InputError(f"a_bar of shape {eff.a_bar.shape} and b_bar of shape "
                         f"{np.shape(eff.b_bar)} on a {grid.dim}D grid")
    if grid.dim == 2 and (eff.a_bar[0, 1] or eff.a_bar[1, 0]):
        samples, at = effective_samples(eff, grid)
        return linear_eigenpair(grid, *samples, tol=tol, at=at)[0]
    pairs = []
    for k in range(grid.dim):
        axis = grid if grid.dim == 1 else \
            DomainGrid(1, (grid.bounds[k],), (grid.n[k],))
        c = eff.c_bar if k == 0 else 0.0
        nb, diag = stencil_weights(np.full((1, 1, 1), eff.a_bar[k, k]),
                                   np.full((1, 1), eff.b_bar[k]), np.array([c]),
                                   axis.h, axis.shape, [1], wrap=False)
        pairs.append(ToeplitzPair(axis, (nb[(-1,)][0], diag[0], nb[(1,)][0]), c))
    return pairs[0] if grid.dim == 1 else \
        KroneckerPair(grid, [(p, p.row_residual()) for p in pairs])


def axis_samples(grid: DomainGrid, avals, bvals, cvals, at=None):
    """The 1D samples (a, b, c) of each axis of 2D samples at the distinct
    rows that `at` (from `domain.fast_coordinates`; None: every node is its
    own row) gathers to the nodes, or None unless the rows pass
    `stencils.separable_by_axis` (b1 and c with a11, b2 with a22).

    The rows form a product grid, at[i0, i1] = j0 R1 + j1: at[0, :] is the
    axis-1 index and at[:, 0] // R1 the axis-0 one, read off the axis pair
    of `fast_coordinates` without forming at. The verdict is taken on the
    (R0, R1) rows, which is the nodes' verdict since every row is some
    node's row, and each axis is gathered by a 1D index of n + 1 entries.
    """
    if isinstance(at, tuple):
        first_col, cols = at[0] + at[1][0], at[0][0] + at[1]
    else:
        index = (np.arange(np.prod(grid.shape)) if at is None
                 else np.asarray(at)).reshape(grid.shape)
        first_col, cols = index[:, 0], index[0]
    width = int(cols.max()) + 1
    rows = first_col // width
    a = np.asarray(avals, dtype=float).reshape(-1, width, 2, 2)
    b = np.asarray(bvals, dtype=float).reshape(-1, width, 2)
    c = np.reshape(cvals, (-1, width))
    if not separable_by_axis(a, (b[..., 0], c), (b[..., 1],)):
        return None
    return ((a[rows, 0, 0, 0], b[rows, 0, 0], c[rows, 0]),
            (a[0, cols, 1, 1], b[0, cols, 1], np.zeros(len(cols))))


def linear_eigenpair(grid: DomainGrid, avals, bvals, cvals, tol=1e-9,
                     x0=None, at=None):
    """(pair, op): the principal eigenpair of `assemble_linear(grid, avals,
    bvals, cvals, at)` and that operator, or None. The samples are taken at
    the distinct rows that `at` gathers to the nodes, or at every node.

    2D samples whose `axis_samples` separate give L_1 (x) I + I (x) L_2:
    each axis is solved with tol/2, op is None and the pair a
    `KroneckerPair`. Two axes with the same bounds, n and samples (an
    isotropic field: c sits on axis 0, so c != 0 keeps them apart) are one
    problem, solved once and used twice. Anything else is assembled and
    solved from the start vector `x0` (see `principal_eigenpair`), which
    may be a function that returns it: only this path calls it. The axis
    solves ignore x0 and start from ones: seeding them with the rank-one
    factors of the homogenized eigenfunction raised the sep-2d sweep's
    iterations from 104 to 110.
    """
    axes = axis_samples(grid, avals, bvals, cvals, at) if grid.dim == 2 \
        else None
    if axes is None:
        op = assemble_linear(grid, avals, bvals, cvals, at)
        x0 = x0() if callable(x0) else x0
        return principal_eigenpair(op, tol=tol, x0=x0), op
    solved = []
    for k, samples in enumerate(axes):
        if k and grid.bounds[1] == grid.bounds[0] and grid.n[1] == grid.n[0] \
                and all(map(np.array_equal, samples, axes[0])):
            solved.append(solved[0])  # the same axis problem, bit for bit
            break
        op = assemble_linear(DomainGrid(1, (grid.bounds[k],), (grid.n[k],)),
                             *samples)
        pair = principal_eigenpair(op, tol=tol / 2)
        v = pair.phi.values[1:-1]
        solved.append((pair, op @ v + pair.lam * v))
    return KroneckerPair(grid, solved), None


def principal_eigenpair_bellman(spec: BellmanSpec, eps, grid: DomainGrid,
                                tol=1e-9, ops=None, x0=None):
    """Principal eigenpair of the sup-form Bellman operator, plus its policy.

    Howard outer loop: solve the frozen-policy eigenpair, re-select the
    nodewise argmax control against the current eigenfunction, repeat until
    the policy is stationary (at most MAX_HOWARD_OUTER sweeps). Eigenvalues
    never rise (the optimal one is the minimum over frozen policies). The
    first policy is control 0, improved once by `improve_policy` against
    the start vector `x0` when one is given (see `principal_eigenpair`; the
    homogenized eigenfunction is a good one). The first eigensolve starts
    from x0 (or ones), each later one from the previous eigenfunction. The
    pair's `iterations` add up the inverse-power iterations of all of them.
    """
    if ops is None:
        ops = bellman_operators(spec, eps, grid)
    interior = grid.interior_index()
    n = len(interior)
    start = None if x0 is None else _start_vector(x0, grid, n)
    prev = None

    def values(vec):
        return np.array([op @ vec for op in ops])

    def evaluate(policy):
        nonlocal prev, start
        pair = principal_eigenpair(_freeze_policy(ops, policy, grid), tol=tol,
                                   x0=start)
        if prev is not None and pair.lam > prev.lam + 10 * tol:
            raise IterationError(
                f"policy oscillation: eigenvalue rose from {prev.lam:.12g} to "
                f"{pair.lam:.12g} at eps={eps:g}"
            )
        pair.iterations += 0 if prev is None else prev.iterations
        prev, start = pair, pair.phi.flat[interior]
        return pair, values(start)

    policy = np.zeros(n, dtype=int)
    if start is not None:
        policy = improve_policy(values(start), policy)[1]
    return policy_iteration(evaluate, policy, MAX_HOWARD_OUTER)


def _freeze_policy(ops, policy, grid):
    """The operator whose row i is row i of ops[policy[i]]
    (`stencils.select_weights`), with the c_max of the controls in use."""
    c_max = max(ops[beta].c_max for beta in np.flatnonzero(np.bincount(policy)))
    return DiscreteOperator(*select_weights(ops, policy), grid, c_max)
