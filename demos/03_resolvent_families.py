"""Resolvent tables: construction, the two resolvent equations, growth bounds.

The table builder marches the second resolvent equation; its residual is
machine zero by construction.  The first resolvent equation is discretized
independently, so its residual is an honest consistency check that shrinks
at first order.  For exactly symmetric A the builder marches A's eigenchannels
and rotates back; that table must agree with the full d x d march to rounding.
"""

import numpy as np

from stochvolterra import (
    ConstantKernel,
    ExponentialKernel,
    NonscalarKernel,
    ScalarTypeKernel,
    TimeGrid,
    compute_resolvent,
    exponential_bound_fit,
    resolvent_residuals,
)
from stochvolterra import grids

grid = TimeGrid(1.0, 512)

print("scalar type: a = 1, A = -1 (the table is exp(-t))")
table = compute_resolvent(ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]]), grid)
res = resolvent_residuals(table)
print(f"  S(1) = {table.S[-1][0, 0]:.8f}   exact {np.exp(-1):.8f}")
print(f"  second-equation residual: {res.res_second:.2e} (defining scheme)")
print(f"  first-equation residual : {res.res_first:.2e} (first order in h)")
fit = exponential_bound_fit(table)
print(f"  fitted growth bound: |S(t)| <= {fit.M:.4f} exp({fit.w:+.4f} t)")

print("\nfirst-equation residual under refinement:")
for n in (128, 256, 512):
    r = resolvent_residuals(
        compute_resolvent(ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]]), TimeGrid(1.0, n))
    )
    print(f"  N = {n:4d}   res_first = {r.res_first:.3e}")

print("\neigenchannels vs the d x d march on a random symmetric dissipative 4x4:")
rng = np.random.default_rng(0)
M = rng.standard_normal((4, 4))
A = -(M @ M.T) / 4.0
A = 0.5 * (A + A.T)  # exactly symmetric, so compute_resolvent takes the channels
a = ExponentialKernel()
kernel = ScalarTypeKernel(a, A)
channels = compute_resolvent(kernel, grid)
direct = grids.march(kernel.cell_weights(grid), "product")
print(f"  worst Frobenius gap over all nodes: "
      f"{max(np.linalg.norm(d) for d in direct - channels.S):.2e}")

print("\nnonscalar kernel A(t) = exp(-t) A0 equals its scalar-type twin:")
A0 = rng.standard_normal((2, 2))
t_scalar = compute_resolvent(ScalarTypeKernel(a, A0), grid)
t_nonscalar = compute_resolvent(NonscalarKernel(lambda t: np.exp(-t) * A0), grid)
print(f"  max entry difference: {np.max(np.abs(t_scalar.S - t_nonscalar.S)):.2e}")
