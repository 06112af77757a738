"""The corrector hierarchy: how far can u + v_eps push the residual?

Builds the full expansion v_eps = eps psi_1 + eps^2 (w_2 + z_2)
+ eps^3 (w_3 + z_3) around the effective eigenfunction and measures
(i) the corrector size ||v_eps|| ~ eps and (ii) the interior residual of
L_eps (u + v_eps) + lambda_bar u, which decays superlinearly away from the
boundary layer.
"""

import numpy as np

import ergodica as eg

spec = eg.LinearOperatorSpec(
    eg.sin_field_1d(delta=0.5, b_amp=1.0, c0=0.2, c_amp=0.4),
    0.5, 1.5, c1=1.0)
tg = eg.PeriodicGrid(1, 512)
correctors = eg.build_corrector_set(spec, tg)
eff = eg.effective_linear(spec, correctors)

grid = eg.DomainGrid.unit(1, 64 * 32)
eff_op = eg.assemble_effective(eff, grid)
pair = eg.principal_eigenpair(eff_op, tol=1e-10)
print(f"effective eigenvalue lambda_bar = {pair.lam:.9f}")

slow = eg.slow_corrector(eff, correctors, pair.phi, eff_op)
_, psi1, _, _ = slow
print(f"slow corrector psi_1: sup = {np.max(np.abs(psi1.values)):.4e}")

print(f"\n{'eps':>8} {'||v_eps||':>11} {'||v||/eps':>10} {'||z2||':>10} "
      f"{'residual':>10}")
for m in (8, 16, 32):
    eps = 1 / m
    op = eg.assemble_oscillatory(spec, eps, grid)
    exp, res = eg.linear_expansion(spec, pair, slow, eps, op)
    x = grid.interior_points()[:, 0]
    interior = np.abs(res)[(x >= 0.1) & (x <= 0.9)]
    print(f"{eps:8.5f} {exp.sup_norm_v:11.4e} "
          f"{exp.sup_norm_v / eps:10.4f} "
          f"{np.max(np.abs(exp.z2.values)):10.2e} {interior.max():10.2e}")

print("\nboundary exactness: w_k(x, x/eps) + z_k vanishes on the boundary "
      "ring by construction;")
print("||v_eps||/eps stays bounded -- the O(eps) corrector bound in action.")
