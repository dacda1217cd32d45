"""Bounded approximations of the state operator and their resolvent families.

For a matrix A whose symmetric part is negative semidefinite, the regularized
operators

    J_lam = (I - lam A)^{-1},     A_lam = A J_lam = (J_lam - I) / lam

are contractive resolvents and bounded surrogates converging to A at first
order in lam.  The convergence study rebuilds the resolvent family for each
A_lam on the same grid and weights as the base family, so the reported gaps
isolate the regularization error, and couples all stochastic columns through
common noise per path (independent noise would swamp the signal and must not
be used).
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .convolution import _check_integrand, _convolve_paths, _path_blocks
from .errors import NumericalFailure
from .kernels import check_complete_positivity
from .noise import _left_point_products
from .resolvent import ScalarTypeKernel, compute_resolvent, exponential_bound_fit, operator_2norm
from .spaces import _integer_in, _readonly_fields, _square

__all__ = [
    "AccretivityReport",
    "accretivity_check",
    "YosidaFamily",
    "make_yosida",
    "YosidaStudy",
    "yosida_convergence_study",
]


@dataclass(frozen=True)
class AccretivityReport:
    """Outcome of the contraction-generator criterion.

    In finite dimensions the dissipative (contraction semigroup) condition is
    that the symmetric part has no positive eigenvalue.
    """

    dissipative: bool
    max_symmetric_eigenvalue: float


def accretivity_check(A):
    """Report whether A is dissipative: its symmetric part's top eigenvalue is <= 1e-12."""
    A = _square(A, "A")
    top = float(np.max(np.linalg.eigvalsh(0.5 * (A + A.T))))
    return AccretivityReport(dissipative=top <= 1e-12, max_symmetric_eigenvalue=top)


@dataclass(frozen=True, eq=False)
class YosidaFamily:
    """Resolvents J_lam and bounded approximations A_lam for a ladder of lam."""

    A: np.ndarray
    lambdas: np.ndarray
    J: np.ndarray
    A_lam: np.ndarray

    def __post_init__(self):
        _readonly_fields(self, "A", "lambdas", "J", "A_lam")

    def identity_defect(self):
        """max over lam of |A_lam - (J_lam - I)/lam|, an exact identity."""
        eye = np.eye(self.A.shape[0])
        return float(np.max(np.abs(self.A_lam - (self.J - eye) / self.lambdas[:, None, None])))

    def resolvent_norms(self):
        """Operator norms of the J_lam (at most one for a dissipative A)."""
        return operator_2norm(self.J)


def make_yosida(A, lambdas, force=False):
    """Build the family by one linear solve per lam.

    Requires a dissipative A unless `force` is given; lam values must be
    positive and strictly decreasing.  Fails naming the offending lam if a
    regularized matrix is singular (impossible in the dissipative case).
    """
    A = _square(A, "A")
    lambdas = np.asarray([float(l) for l in lambdas])
    if lambdas.size == 0 or not (np.all(lambdas > 0) and np.all(np.diff(lambdas) < 0)):
        raise ValueError("lambdas must be positive and strictly decreasing")
    report = accretivity_check(A)
    if not report.dissipative and not force:
        raise ValueError(
            f"A is not dissipative (max symmetric eigenvalue "
            f"{report.max_symmetric_eigenvalue:g}); pass force=True to proceed"
        )
    d = A.shape[0]
    eye = np.eye(d)
    J = np.empty((lambdas.size, d, d))
    A_lam = np.empty_like(J)
    for i, lam in enumerate(lambdas):
        try:
            J[i] = np.linalg.solve(eye - lam * A, eye)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"I - lam*A is singular at lam={lam:g}") from exc
        A_lam[i] = A @ J[i]
    family = YosidaFamily(A=A, lambdas=lambdas, J=J, A_lam=A_lam)
    # (J - I)/lam loses lam^{-1} * eps to cancellation, so the check scales
    defect = family.identity_defect()
    tol = (1.0 + float(np.max(np.abs(A)))) * (1e-12 + 16 * np.finfo(float).eps / lambdas[-1])
    if not defect <= tol:  # also true for nan
        raise NumericalFailure(f"resolvent identity defect {defect} out of tolerance")
    return family


@dataclass(frozen=True, eq=False)
class YosidaStudy:
    """Convergence table of the regularized families toward the base family.

    Per lam: the sup-norm gap of the resolvent tables, and Monte Carlo
    estimates (common noise across lam) of the worst mean-square gaps of the
    stochastic convolutions and of the operator-applied convolutions.
    `bound_M`/`bound_w` are uniform exponential-bound constants fitted across
    the whole family including the base table.
    """

    lambdas: np.ndarray
    e_S: np.ndarray
    e_W: np.ndarray
    e_AW: np.ndarray
    bound_M: float
    bound_w: float
    n_paths: int
    cp_consistent: bool


def _node_sums(diff):
    """Sum over paths of |diff|^2 at every node of a (P, N+1, d) array, squared in place."""
    diff **= 2
    return np.sum(diff, axis=2).sum(axis=0)


def yosida_convergence_study(
    a, A, psi, spec, lambdas, grid, n_paths, scheme="product", threads=1
):
    """Measure how the regularized solutions approach the base solution.

    Hypothesis checks (complete positivity of the kernel on the study grid,
    dissipativity of A) are advisory: violations warn rather than fail, since
    the point of the study is to watch the limits the theory promises under
    those hypotheses.

    Paths stream through `convolution._path_blocks` and every table convolves
    the same block (common noise).  Per lam and node the study sums
    |W_lam - W_base|^2 and |A_lam W_lam - A W_base|^2 over paths, and e = max
    over nodes of sum / P; only one block is alive, so memory does not grow with P.
    """
    A = _square(A, "A")
    _check_integrand(psi, A.shape[0], spec.cov)
    n_paths = _integer_in(n_paths, "n_paths", 1)
    cp = check_complete_positivity(a, T=grid.T, N=max(grid.N, 256))
    if not cp.consistent:
        warnings.warn(f"kernel hypothesis violated: {cp.verdict}", stacklevel=2)
    acc = accretivity_check(A)
    if not acc.dissipative:
        warnings.warn(
            f"A is not dissipative (max symmetric eigenvalue "
            f"{acc.max_symmetric_eigenvalue:g})",
            stacklevel=2,
        )
    family = make_yosida(A, lambdas, force=True)
    base = compute_resolvent(ScalarTypeKernel(a, A), grid, scheme=scheme)
    tables = [
        compute_resolvent(ScalarTypeKernel(a, Al), grid, scheme=scheme)
        for Al in family.A_lam
    ]

    e_S = np.array([np.max(operator_2norm(tb.S - base.S)) for tb in tables])

    # common noise: each block of increments is reused for the base and every lam
    sums = np.zeros((2, family.lambdas.size, grid.N + 1))
    blocks = _path_blocks(spec, grid, n_paths, threads)
    for c in map(partial(_left_point_products, psi, grid), blocks):
        W_base = _convolve_paths(base.S, c)
        AW_base = W_base @ A.T
        for i, tb in enumerate(tables):
            W_lam = _convolve_paths(tb.S, c)
            sums[1, i] += _node_sums(W_lam @ family.A_lam[i].T - AW_base)
            W_lam -= W_base
            sums[0, i] += _node_sums(W_lam)
            del W_lam  # free before the next table's convolution allocates its own
    e_W, e_AW = np.max(sums / n_paths, axis=2)

    fits = [exponential_bound_fit(tb) for tb in tables + [base]]
    return YosidaStudy(
        lambdas=family.lambdas,
        e_S=e_S,
        e_W=e_W,
        e_AW=e_AW,
        bound_M=max(f.M for f in fits),
        bound_w=max(f.w for f in fits),
        n_paths=n_paths,
        cp_consistent=cp.consistent,
    )
