"""The discrete identities behind mild solutions, verified per path.

Built on the left-rectangle convolution-quadrature tables, the stochastic
convolution satisfies the convolution identity

    W(t) = (kernel * W)(t) + plain Ito integral(t)

exactly: the discrete Dirichlet/Fubini rearrangement telescopes for finite
sums.  On the default second-order tables the same verifier reports an O(h)
defect instead.  The weak-form pairing follows the same pattern.  The
integration-by-parts identity is exact only in the flat case below; otherwise
its residual shrinks with the step, and its mean is O(h) on convolution-
quadrature tables but O(h^2) on the default ones.
"""

import math

import numpy as np

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    ExponentialKernel,
    ItoTestFunction,
    LinearKernel,
    NoiseSpec,
    NonscalarKernel,
    ScalarTypeKernel,
    TimeGrid,
    compute_resolvent,
    ito_identity_statistics,
    mild_solution,
    sample_wiener,
    stochastic_convolution,
    verify_ito_identity,
    verify_volterra_identity,
    verify_weak_solution,
)

grid = TimeGrid(1.0, 256)
spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=11)
psi = ConstantDiffusion(np.array([[1.0, 0.0], [0.3, 0.7]]))

R = np.array([[0.0, 1.0], [-1.0, 0.0]])
M = np.array([[-1.0, 0.0], [0.5, -2.0]])
kern = NonscalarKernel([ScalarTypeKernel(ConstantKernel(), R), ScalarTypeKernel(LinearKernel(), M)])
inc = sample_wiener(spec, grid, path_id=0)

print("convolution identity, noncommuting nonscalar kernel A(t) = R + tM:")
for scheme in ("conv", "product"):
    table = compute_resolvent(kern, grid, scheme=scheme)
    path = stochastic_convolution(table, psi, inc)
    rep = verify_volterra_identity(path, kern, psi, inc)
    tag = "exact regime" if rep.exact_regime else "first-order regime"
    print(f"  scheme {scheme:8s}: sup residual = {rep.sup_residual:.2e}   ({tag})")

print("\nweak-form identity (scalar type, random functional):")
rng = np.random.default_rng(1)
A = -(lambda Mx: Mx @ Mx.T)(rng.standard_normal((2, 2))) / 2.0
a = ExponentialKernel()
weak_kernel = ScalarTypeKernel(a, A)
table = compute_resolvent(weak_kernel, grid, scheme="conv")
path = stochastic_convolution(table, psi, inc)
xi = rng.standard_normal(2)
print(f"  sup residual = {verify_weak_solution(path, weak_kernel, xi, psi, inc).sup_residual:.2e}")

print("\nintegration-by-parts identity:")
kern0 = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
table0 = compute_resolvent(kern0, grid)
B = np.array([[1.0, 0.2], [0.0, 0.7]])
x_path = mild_solution(table0, np.array([1.0, -0.5]), ConstantDiffusion(B), inc)
flat = verify_ito_identity(x_path, kern0, B, ItoTestFunction.constant(np.ones(2)), inc)
print(f"  zero kernel, constant test function: sup residual = {flat.sup_abs_residual:.2e}")

kern_s = ScalarTypeKernel(a, np.array([[-1.0, 0.4], [0.0, -2.0]]))
xi_fun = ItoTestFunction(np.array([1.0, 0.5]),
                         phi=lambda t: math.exp(t), phi_dot=lambda t: math.exp(t))
print("  smooth kernel, 500 paths per step size:")
for n in (128, 256, 512):
    tab = compute_resolvent(kern_s, TimeGrid(1.0, n))
    stats = ito_identity_statistics(tab, B, xi_fun, np.array([1.0, -1.0]), spec, 500)
    print(f"    N = {n:4d}   rms residual = {stats.rms:.3e}"
          f"   mean = {stats.mean:+.2e} (se {stats.std_error:.1e})")
