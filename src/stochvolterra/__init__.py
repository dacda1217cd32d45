"""Stochastic linear Volterra equations at desk scale.

Finite-dimensional resolvent families for operator-valued memory kernels,
product integration robust to weakly singular kernels, reproducible Q-Wiener
sampling, stochastic convolution and mild solutions, and numerical verifiers
for the identities the theory asserts (resolvent equations, covariance
formula, the integration-by-parts identity, the convolution identity,
complete positivity, and regularized-operator convergence).
"""

__version__ = "0.1.0"

from . import convolution, errors, grids, kernels, noise, resolvent, spaces, yosida
from .convolution import *
from .errors import *
from .grids import *
from .kernels import *
from .noise import *
from .resolvent import *
from .spaces import *
from .yosida import *

__all__ = ["__version__"] + [
    name
    for module in (grids, spaces, kernels, resolvent, noise, convolution, yosida, errors)
    for name in module.__all__
]
