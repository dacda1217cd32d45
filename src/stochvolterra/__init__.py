"""Stochastic linear Volterra equations at desk scale.

Finite-dimensional resolvent families for operator-valued memory kernels,
product integration robust to weakly singular kernels, reproducible Q-Wiener
sampling, stochastic convolution and mild solutions, and numerical verifiers
for the identities the theory asserts (resolvent equations, covariance
formula, the integration-by-parts identity, the convolution identity,
complete positivity, and regularized-operator convergence).
"""

__version__ = "0.1.0"

from .convolution import (
    ConvolutionPath,
    CovarianceEstimate,
    IdentityReport,
    ItoIdentityReport,
    ItoStatistics,
    ItoTestFunction,
    MildSolutionPath,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    mild_solution,
    stochastic_convolution,
    verify_ito_identity,
    verify_volterra_identity,
    verify_weak_solution,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    KernelDomainError,
    NumericalFailure,
    SmoothnessError,
    StochVolterraError,
)
from .grids import TimeGrid
from .kernels import (
    CompletePositivityReport,
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    LinearKernel,
    MonotonicityReport,
    ScalarKernel,
    ScalarResolventPath,
    TabulatedKernel,
    check_complete_positivity,
    check_nonneg_nonincreasing,
    mittag_leffler,
    solve_scalar_resolvent,
)
from .noise import (
    ConstantDiffusion,
    DiffusionProcess,
    NoiseSpec,
    RuleDiffusion,
    StepDiffusion,
    WienerIncrements,
    sample_wiener,
    sample_wiener_batch,
    stochastic_integral,
)
from .resolvent import (
    ExponentialBound,
    NonscalarKernel,
    OperatorKernel,
    ResolventResiduals,
    ResolventTable,
    ScalarTypeKernel,
    compute_resolvent,
    exponential_bound_fit,
    operator_2norm,
    resolvent_residuals,
    spectral_resolvent,
)
from .spaces import CovOperator, HSOperator, hs_norm
from .yosida import (
    AccretivityReport,
    YosidaFamily,
    YosidaStudy,
    accretivity_check,
    make_yosida,
    yosida_convergence_study,
)

__all__ = [
    "__version__",
    # grids / spaces
    "TimeGrid",
    "CovOperator",
    "HSOperator",
    "hs_norm",
    # kernels
    "ScalarKernel",
    "FractionalKernel",
    "ExponentialKernel",
    "ConstantKernel",
    "LinearKernel",
    "TabulatedKernel",
    "ScalarResolventPath",
    "solve_scalar_resolvent",
    "MonotonicityReport",
    "check_nonneg_nonincreasing",
    "CompletePositivityReport",
    "check_complete_positivity",
    "mittag_leffler",
    # resolvent families
    "OperatorKernel",
    "ScalarTypeKernel",
    "NonscalarKernel",
    "ResolventTable",
    "compute_resolvent",
    "ResolventResiduals",
    "resolvent_residuals",
    "spectral_resolvent",
    "ExponentialBound",
    "exponential_bound_fit",
    "operator_2norm",
    # noise
    "NoiseSpec",
    "WienerIncrements",
    "sample_wiener",
    "sample_wiener_batch",
    "DiffusionProcess",
    "ConstantDiffusion",
    "StepDiffusion",
    "RuleDiffusion",
    "stochastic_integral",
    # convolution and identities
    "ConvolutionPath",
    "MildSolutionPath",
    "stochastic_convolution",
    "mild_solution",
    "covariance_quadrature",
    "CovarianceEstimate",
    "covariance_monte_carlo",
    "IdentityReport",
    "verify_volterra_identity",
    "verify_weak_solution",
    "ItoTestFunction",
    "ItoIdentityReport",
    "verify_ito_identity",
    "ItoStatistics",
    "ito_identity_statistics",
    # regularized operators
    "AccretivityReport",
    "accretivity_check",
    "YosidaFamily",
    "make_yosida",
    "YosidaStudy",
    "yosida_convergence_study",
    # errors
    "StochVolterraError",
    "DimensionMismatch",
    "GridMismatch",
    "KernelDomainError",
    "SmoothnessError",
    "NumericalFailure",
    "ConfigError",
]
