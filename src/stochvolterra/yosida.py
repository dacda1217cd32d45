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

The study takes one of two routes, with the same checks and the same results up to
roundoff.  An exactly symmetric A (`resolvent._symmetric_eigh`, no tolerance) runs in its
eigenchannels: A and every A_lam share A's eigenvectors, so one `march_channels` call
solves every table and norms are the channels' own.  A path gap is a linear map of the
path's increments, so its square summed over paths is a quadratic form in their Gram
matrix (the sample Ito isometry): each block is rotated into the channels by one product
per run of equal psi values and adds about d P N^2 / 2 multiply-adds into one N x N Gram
matrix per channel, shared by every lam and both gaps; one end step of about
2 d L N^3 / 3 multiply-adds, whatever P is, reads every lam's sums from the Grams' causal
triangles.  Live memory is d N^2 doubles.  Strip products per block would take
2 d L P N^2, so the Gram pays once P exceeds about N / 3, as in every study the package
runs (1000 paths on 128 cells in the benchmark); below it the end step dominates.  Any
other A convolves each block with L + 1 full d x d tables, about P N^2 d^2 / 2
multiply-adds per table, then applies A and A_lam and subtracts.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .convolution import _check_integrand, _convolve_paths, _path_blocks
from .errors import NumericalFailure
from .grids import _TILE, _toeplitz_strip, march_channels
from .kernels import check_complete_positivity
from .noise import _left_point_products
from .resolvent import ScalarTypeKernel, _bound_fit, _check_fit_cells, _symmetric_eigh
from .resolvent import compute_resolvent, exponential_bound_fit, operator_2norm
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
    An exactly symmetric A takes the channel route, any other A the matrix route.
    """
    A = _square(A, "A")
    _check_integrand(psi, A.shape[0], spec.cov)
    n_paths = _integer_in(n_paths, "n_paths", 1)
    _check_fit_cells(grid.N)  # the growth fit's ValueError, before any path is sampled
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
    blocks = _path_blocks(spec, grid, n_paths, threads)
    eig = _symmetric_eigh(family.A)
    route = _matrix_route if eig is None else partial(_channel_route, eig)
    e_S, sums, fits = route(a, family, grid, scheme, psi, blocks)
    e_W, e_AW = np.max(sums / n_paths, axis=2)
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


def _matrix_route(a, family, grid, scheme, psi, blocks):
    """e_S, the (2, L, N+1) path sums of |W_lam - W|^2 and |A_lam W_lam - A W|^2, and
    the bound fits of the L + 1 tables, each a d x d `compute_resolvent` table
    convolved with psi's left-point products of every (P, K, N) increment block:
    about P N^2 d^2 / 2 multiply-adds a table."""
    base = compute_resolvent(ScalarTypeKernel(a, family.A), grid, scheme=scheme)
    tables = [
        compute_resolvent(ScalarTypeKernel(a, Al), grid, scheme=scheme)
        for Al in family.A_lam
    ]
    e_S = np.array([np.max(operator_2norm(tb.S - base.S)) for tb in tables])
    sums = np.zeros((2, family.lambdas.size, grid.N + 1))
    for c in map(partial(_left_point_products, psi, grid), blocks):
        W_base = _convolve_paths(base.S, c)
        AW_base = W_base @ family.A.T
        for i, tb in enumerate(tables):
            W_lam = _convolve_paths(tb.S, c)
            sums[1, i] += _node_sums(W_lam @ family.A_lam[i].T - AW_base)
            W_lam -= W_base
            sums[0, i] += _node_sums(W_lam)
            del W_lam  # free before the next table's convolution allocates its own
    return e_S, sums, [exponential_bound_fit(tb) for tb in tables + [base]]


def _channel_route(eig, a, family, grid, scheme, psi, blocks):
    """`_matrix_route` for a symmetric A = V diag(mu) V', eig = (mu, V), in A's eigenchannels.

    Every A_lam is V diag(mu / (1 - lam mu)) V', so every table is V diag(s) V' and one
    `march_channels` call gives all channels s on the cell moments the tables use.  V
    is orthogonal, so the norms are the channels' own: |S_lam - S| = max_k |s_lam,k -
    s_k|, and per path and node |W_lam - W|^2 sums over k the squared lag sums of the
    gap s_lam,k - s_k against channel k of the rotated increments y_m = V' psi(t_m) dW_m
    (|A_lam W_lam - A W|^2 likewise, with the gap mu_lam s_lam - mu s); V' psi(t_m) is
    taken once per call, and a block once per run of equal values.  With G the (N L, N)
    block-Toeplitz strip of a channel's L gaps and y_p its increments, sum_p (G y_p)^2
    is the rowwise dot of G Y'Y and G: the blocks add into the channel's Gram matrix
    Y'Y (a symmetric product, about P N^2 / 2 multiply-adds), and after the last block
    each channel multiplies its Gram by two strips, one for e_W and one for e_AW.  Row
    block n - 1 of G is zero from column n on, so _TILE nodes at a time read only the
    Gram's leading block: about 2 d L N^3 / 3 multiply-adds in all, whatever P is.  The
    d Gram matrices and one strip are alive.
    """
    mu, V = eig
    N, L = grid.N, family.lambdas.size
    mus = np.vstack([mu, mu / (1.0 - family.lambdas[:, None] * mu)])  # (L + 1, d)
    w = a.cell_moments(grid.h, N)
    s = march_channels(w, -mus.ravel(), scheme).reshape((N + 1,) + mus.shape)
    gaps = np.stack([s[:, 1:] - s[:, :1], mus[1:] * s[:, 1:] - mus[0] * s[:, :1]])
    e_S = np.max(np.abs(gaps[0]), axis=(0, 2))
    lags = np.moveaxis(gaps[:, 1:], -1, 1)[..., None]  # (2, d, N, L, 1): lags 1..N
    R = V.T @ psi.values_on_grid(grid)  # y[:, :, m] = R[m, :, :K] dW[:, :, m], K modes
    cuts = [0, *(np.flatnonzero(np.any(R[1:] != R[:-1], axis=(1, 2))) + 1), N]
    gram = np.zeros((len(mu), N, N))
    for dw in blocks:
        y = np.empty((dw.shape[0], len(mu), N))  # (P, d, N)
        for lo, hi in zip(cuts, cuts[1:]):
            np.matmul(R[lo, :, : dw.shape[1]], dw[:, :, lo:hi], out=y[:, :, lo:hi])
        for k in range(len(mu)):
            gram[k] += y[:, k].T @ y[:, k]
        del y  # free before the next block is sampled
    sums = np.zeros((2, N, L))
    for j, k in np.ndindex(lags.shape[:2]):
        # (N L, N), one strip alive at a time: row block n - 1 holds lag n - m at column m
        G = _toeplitz_strip(lags[j, k], N, N)
        for lo in range(0, N, _TILE):
            hi = min(lo + _TILE, N)  # nodes lo + 1 .. hi: columns m < hi
            rows = G[lo * L : hi * L, :hi]
            sums[j, lo:hi] += np.einsum("ij,ij->i", rows @ gram[k, :hi, :hi], rows).reshape(-1, L)
    t, eta = grid.nodes(), np.max(np.abs(s), axis=2)
    return e_S, sums.swapaxes(1, 2), [_bound_fit(t, eta[:, i]) for i in range(mus.shape[0])]
