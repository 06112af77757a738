"""The corrector hierarchy: how far can u + v_eps push the residual?

Builds the full expansion v_eps = eps psi_1 + eps^2 w_2 + eps^3 w_3 around
the effective eigenfunction and measures (i) the corrector size
||v_eps|| ~ eps and (ii) the interior residual of L_eps (u + v_eps)
+ lambda_bar u, which decays superlinearly away from the boundary layer.
The boundary correctors z_k would carry the boundary values of -w_k; at
eps = 1/m those are exactly 0 (the |w_2| column), so z_k = 0.

lambda_bar comes from the n_torus cell; the correctors are solved on the
coarsest torus grid that holds every x/eps of the rows (`trace_grid`), so
each trace reads them at torus nodes.
"""

import numpy as np

import ergodica as eg

spec = eg.LinearOperatorSpec(
    eg.sin_field_1d(delta=0.5, b_amp=1.0, c0=0.2, c_amp=0.4),
    0.5, 1.5, c1=1.0)
eff = eg.first_order_effective(spec, eg.PeriodicGrid(1, 512))

grid = eg.DomainGrid.unit(1, 64 * 32)
pair = eg.effective_eigenpair(eff, grid)  # closed form, exact derivatives
print(f"effective eigenvalue lambda_bar = {pair.lam:.9f}")

ms = (8, 16, 32)
tg = eg.trace_grid(grid, [1 / m for m in ms])
correctors = eg.build_corrector_set(spec, tg)
print(f"correctors on {tg.n} torus points")
eff = eg.effective_linear(spec, correctors)
slow = eg.slow_corrector(eff, correctors, pair, eg.assemble_effective(eff, grid))
_, psi1, _, _ = slow
print(f"slow corrector psi_1: sup = {np.max(np.abs(psi1.values)):.4e}")

print(f"\n{'eps':>8} {'||v_eps||':>11} {'||v||/eps':>10} {'bdry |w2|':>10} "
      f"{'residual':>10}")
for m in ms:
    eps = 1 / m
    op = eg.assemble_oscillatory(spec, eps, grid)
    exp, res = eg.linear_expansion(pair, slow, eps, op)
    x = grid.interior_points()[:, 0]
    interior = np.abs(res)[(x >= 0.1) & (x <= 0.9)]
    print(f"{eps:8.5f} {exp.sup_norm_v:11.4e} "
          f"{exp.sup_norm_v / eps:10.4f} "
          f"{np.max(np.abs(exp.w2_trace.flat[grid.boundary_index()])):10.2e} "
          f"{interior.max():10.2e}")

print("\nboundary exactness: the anchored correctors vanish at y = 0, so "
      "w_k(x, x/eps) does at x = 0 and 1;")
print("||v_eps||/eps stays bounded -- the O(eps) corrector bound in action.")
