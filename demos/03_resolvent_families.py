"""Resolvent tables: construction, the two resolvent equations, growth bounds.

The table builder marches the second resolvent equation; its residual is
machine zero by construction.  The first resolvent equation is discretized
independently, so its residual is an honest consistency check that shrinks
at first order.  For exactly symmetric A the builder marches A's eigenchannels
and rotates back; that table must agree with the full d x d march to rounding.

The last table is the nonscalar model that motivates the theory, isotropic
viscoelasticity: a shear and a dilatation modulus, each a Prony sum of decaying
exponentials, acting on two operators that do not commute.  The kernel is the
exact sum of its scalar-type terms, so its cell weights are exact.
"""

import numpy as np

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    ExponentialKernel,
    NoiseSpec,
    NonscalarKernel,
    ScalarTypeKernel,
    TimeGrid,
    compute_resolvent,
    exponential_bound_fit,
    resolvent_residuals,
    sample_wiener,
    stochastic_convolution,
    verify_volterra_identity,
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

print("\nviscoelastic kernel A(t) = mu(t) G + kappa(t) D, two Prony-sum moduli:")
G = -np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])  # shear: a Laplacian
v = np.array([1.0, 0.5, -0.5])
D = -np.outer(v, v)  # dilatation: a rank-one grad-div
print(f"  commutator |GD - DG| = {np.linalg.norm(G @ D - D @ G, 2):.3f}")
moduli = [(ExponentialKernel(1.0, 1.0), G), (ExponentialKernel(0.5, 4.0), G),
          (ExponentialKernel(2.0, 0.5), D)]  # mu = e^-t + 0.5 e^-4t, kappa = 2 e^-t/2
visco = NonscalarKernel([ScalarTypeKernel(a_j, A_j) for a_j, A_j in moduli])
grid = TimeGrid(1.0, 128)
for scheme in ("product", "conv"):
    table = compute_resolvent(visco, grid, scheme=scheme)
    print(f"  {scheme:7s}: res_second = {resolvent_residuals(table).res_second:.2e}")
spec = NoiseSpec(cov=CovOperator(np.ones(3)), truncation=3, seed=3)
psi = ConstantDiffusion(np.eye(3))
inc = sample_wiener(spec, grid, path_id=0)
path = stochastic_convolution(table, psi, inc)  # on the conv table, the last one built
sup = verify_volterra_identity(path, visco, psi, inc).sup_residual
print(f"  conv Volterra identity, one path: sup residual = {sup:.2e}")
