"""Homogenization of a convex Bellman (sup-form) eigenvalue problem.

Two controls: an oscillatory diffusion a_1 = 1 + 0.5 sin(2 pi y) and a
constant one a_2 = 1.2. The effective operator F_bar is convex and
positively 1-homogeneous, so in 1D it is pinned down by the two values
m_plus = F_bar(1) and kappa = -F_bar(-1). The principal eigenfunction is
concave, so the effective operator is kappa D^2, kappa the harmonic mean of
min(a_1, a_2), and the effective eigenvalue is about kappa * pi^2 -- the
homogenized problem picks the *minimal* frozen-policy eigenvalue.
"""

import numpy as np

import ergodica as eg

bs = eg.BellmanSpec([
    eg.LinearOperatorSpec(eg.sin_field_1d(delta=0.5), 0.5, 1.5),
    eg.LinearOperatorSpec(eg.constant_field(1, 1.2), 0.5, 1.5),
])
tg = eg.PeriodicGrid(1, 512)

# the sign cells at M = +1 and M = -1 give F_bar; M = -1 alone gives the
# effective operator
cells = {s: eg.solve_nonlinear_cell(bs, [[s]], tg)[0] for s in (1.0, -1.0)}
m_plus = cells[1.0].gamma
kappa = -cells[-1.0].gamma
print(f"F_bar(+1) = {m_plus:.9f}   (upper envelope: >= max(sqrt(3)/2, 1.2))")
print(f"F_bar(-1) = {-kappa:.9f}   -> kappa = {kappa:.9f}")
f3 = eg.solve_nonlinear_cell(bs, [[2.5]], tg)[0].gamma
print(f"1-homogeneity: F_bar(2.5) = {f3:.9f} vs 2.5 F_bar(1) = "
      f"{2.5 * m_plus:.9f}")

# the effective eigenpair of kappa D^2, in closed form
grid = eg.DomainGrid.unit(1, 2048)
eff_pair = eg.effective_eigenpair(
    eg.EffectiveLinear(np.array([[kappa]]), np.zeros(1), 0.0), grid)
print(f"\nlambda_bar = {eff_pair.lam:.9f}   (kappa pi^2 = "
      f"{kappa * np.pi ** 2:.9f})")

# the eps-independent part of the expansion, built once for all eps; the
# traces read chi off the M = -1 cell on the coarsest torus grid that holds
# every x/eps of the rows (256 points here)
ms = (8, 16, 32)
trace_cell = eg.solve_nonlinear_cell(
    bs, [[-1.0]], eg.trace_grid(grid, [1 / m for m in ms]))[0]
prepared = eg.prepare_expansion(eff_pair, cells[-1.0], trace_cell)
print(f"\n{'eps':>8} {'lambda_eps':>14} {'|err|':>10} {'residual':>10}")
for m in ms:
    eps = 1 / m
    pair, _ = eg.principal_eigenpair_bellman(bs, eps, grid)
    _, rep = eg.nonlinear_expansion(eff_pair, eps, prepared,
                                    eg.bellman_operators(bs, eps, grid))
    print(f"{eps:8.5f} {pair.lam:14.9f} "
          f"{abs(pair.lam - eff_pair.lam):10.2e} "
          f"{rep['expansion_residual_interior']:10.2e}")

print("\nthe expansion residual F(x/eps, D^2(u + eps^2 w2)) + lambda_bar u "
      "decays like eps,")
print("matching the second-order expansion built from the nonlinear cell "
      "problem; in 1D its first-order term w1 is zero.")
