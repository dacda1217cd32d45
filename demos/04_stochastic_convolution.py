"""Stochastic convolution of reproducible Q-Wiener noise.

The benchmark is the classical mean-reverting process: kernel a = 1 with
A = -1 makes the resolvent exp(-t) and the driven convolution an
Ornstein-Uhlenbeck path whose variance is (1 - exp(-2t))/2.  The sample
covariance over many reproducible paths is compared against the covariance
quadrature, and the standardized endpoint passes a Gaussian moment check.
"""

import numpy as np

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    HSOperator,
    NoiseSpec,
    ScalarTypeKernel,
    TimeGrid,
    compute_resolvent,
    covariance_monte_carlo,
    covariance_quadrature,
    sample_wiener,
    sample_wiener_batch,
    stochastic_convolution,
)
from stochvolterra.convolution import _convolve_at, _node_weights

grid = TimeGrid(1.0, 256)
table = compute_resolvent(ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]]), grid)
Q = CovOperator(np.ones(1))
spec = NoiseSpec(cov=Q, truncation=1, seed=20240)
psi = ConstantDiffusion(np.eye(1))

inc = sample_wiener(spec, grid, path_id=0)
path = stochastic_convolution(table, psi, inc)
again = stochastic_convolution(table, psi, sample_wiener(spec, grid, path_id=0))
print("one path, regenerated from the same (seed, path_id):")
print(f"  W(1) = {path.values[-1, 0]:+.6f}, bit-identical rerun: "
      f"{np.array_equal(path.values, again.values)}")
print(f"  isometry prediction of E|W(1)|^2: {path.mean_square_at_T:.6f}"
      f"   (continuum value {(1 - np.exp(-2)) / 2:.6f})")

B = HSOperator(np.eye(1))
quad = covariance_quadrature(table, B, Q, grid.N)
est = covariance_monte_carlo(table, B, Q, spec, 20000, grid.N)
print("\ncovariance at t = 1 over 20000 paths:")
print(f"  quadrature: {quad[0, 0]:.6f}")
print(f"  sample    : {est.sample_cov[0, 0]:.6f} +- {est.std_error[0, 0]:.6f}")

dw = sample_wiener_batch(spec, grid, range(10000))
X = _convolve_at(_node_weights(table.S, psi.B, grid.N), dw, grid.N)[:, 0]
Z = (X - X.mean()) / X.std(ddof=1)
print("\nGaussianity of the endpoint over 10000 paths:")
print(f"  skewness {np.mean(Z**3):+.4f}   excess kurtosis {np.mean(Z**4) - 3:+.4f}")
