"""Bounded approximations of the state operator and their resolvent families.

For a matrix A whose symmetric part is negative semidefinite, the regularized
operators

    J_lam = (I - lam A)^{-1},     A_lam = A J_lam = (J_lam - I) / lam

are contractive resolvents and bounded surrogates converging to A at first
order in lam.  The convergence study marches the base family and every A_lam
family once, together, on the same grid and weights, so the reported gaps
isolate the regularization error, and couples all stochastic columns through
common noise per path (independent noise would swamp the signal and must not
be used).

The study's two routes differ only in their path sums, with the same results up to
roundoff.  An exactly symmetric A (`resolvent._symmetric_eigh`, no tolerance) is marched
in its eigenchannels, which every A_lam shares, and sums the paths' gaps as quadratic
forms in their increments' Gram matrix (the sample Ito isometry): d P N^2 / 2
multiply-adds into the Grams, then about 2 d L N^3 / 3 whatever P is.  Against
per-channel `grids.lag_convolve` sums of the same gaps, the route alone took 7.6 against
63 ms at N = 128, P = 1000 (the benchmark study's size), 130 against 58 ms at N = 512,
P = 200 and 843 against 74 ms at N = 1024, P = 100 (diag5, L = 4, best of 3 on a 2-vCPU
x86 with one BLAS thread).  Any other A convolves each block with the L + 1 d x d tables.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .convolution import _check_finite, _convolve_paths, _path_blocks
from .errors import NumericalFailure
from .grids import _TILE, _check_steps, _toeplitz_strip, march, march_channels
from .kernels import check_complete_positivity
from .noise import _check_integrand, _left_point_products
from .resolvent import _bound_fit, _check_fit_cells, _symmetric_eigh, _table_norm, operator_2norm
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

    Requires a dissipative A unless `force` is given (then unchecked); lam values must be
    positive, finite and strictly decreasing.  Fails naming the offending lam if a
    regularized matrix is singular (impossible in the dissipative case).
    """
    A = _square(A, "A")
    lambdas = _check_lambdas(lambdas)
    if not force and not (report := accretivity_check(A)).dissipative:
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


def _check_lambdas(lambdas):
    """lambdas as a float array; ValueError unless positive, finite and strictly decreasing."""
    lambdas = np.asarray([float(l) for l in lambdas])
    decreasing = lambdas.size and np.all(np.diff(lambdas) < 0)
    if not (decreasing and 0 < lambdas[-1] and lambdas[0] < np.inf):  # false for any nan
        raise ValueError("lambdas must be positive, finite and strictly decreasing")
    return lambdas


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


def yosida_convergence_study(
    a, A, psi, spec, lambdas, grid, n_paths, scheme="product", threads=1
):
    """Measure how the regularized solutions approach the base solution.

    Hypothesis checks (complete positivity of the kernel on the study grid, dissipativity
    of A) are advisory: violations, and a positivity probe that refuses, warn rather than
    fail (`cp_consistent` is then False), since the point of the study is to watch the
    limits the theory promises under those hypotheses.

    One march solves the base and every A_lam table on the cell moments w of a:
    `march_channels` on the (L + 1, d) channel values of a symmetric A, otherwise one
    batched `grids.march` on the weights w (x) [A, A_lam1, ...], refusing a real eigenvalue
    with a nonpositive step as `compute_resolvent` does.  e_S and the growth fits read
    `resolvent._table_norm`, and e = max over nodes of the route's path sums / P; paths
    stream through `convolution._path_blocks`, one block (common noise) alive at a time.
    """
    A = _square(A, "A")
    _check_integrand(psi, A.shape[0], spec.cov)
    n_paths = _integer_in(n_paths, "n_paths", 1)
    _check_fit_cells(grid.N)  # the growth fit's ValueError, before any path is sampled
    try:
        cp = check_complete_positivity(a, T=grid.T, N=max(grid.N, 256))
        cp_consistent, cp_msg = cp.consistent, f"kernel hypothesis violated: {cp.verdict}"
    except NumericalFailure as exc:  # a refused probe is as advisory as a witness
        cp_consistent, cp_msg = False, f"complete-positivity probe refused: {exc}"
    acc = accretivity_check(A)
    acc_msg = f"A is not dissipative (max symmetric eigenvalue {acc.max_symmetric_eigenvalue:g})"
    for ok, msg in ((cp_consistent, cp_msg), (acc.dissipative, acc_msg)):
        if not ok:
            warnings.warn(msg, stacklevel=2)
    family = make_yosida(A, lambdas, force=True)
    eig, w = _symmetric_eigh(family.A), a.cell_moments(grid.h, grid.N)
    if eig is None:  # (N + 1, L + 1, d, d) tables of [A, A_lam1, ...]
        ops = np.concatenate([family.A[None], family.A_lam])
        _check_steps(w[0], np.linalg.eigvals(ops), scheme)
        tables = march(w[:, None, None, None] * ops, scheme)
        route = partial(_matrix_route, tables, ops)
    else:  # (N + 1, L + 1, d) channels of [A, A_lam1, ...] = V diag(ops[i]) V'
        mu, V = eig
        ops = np.vstack([mu, mu / (1.0 - family.lambdas[:, None] * mu)])
        tables = march_channels(w, -ops.ravel(), scheme).reshape((grid.N + 1,) + ops.shape)
        route = partial(_channel_route, tables, ops, V)
    with np.errstate(over="ignore", invalid="ignore"):  # nonfinite gaps raise below
        with _path_blocks(spec, grid, n_paths, threads) as blocks:
            sums = route(psi.values_on_grid(grid), blocks)  # psi evaluated once per stream
        e_S = np.max(_table_norm(tables[:, 1:] - tables[:, :1], eig is not None), axis=0)
    _check_finite("Yosida study gaps", sums, e_S)
    fits = [_bound_fit(grid.nodes(), eta) for eta in _table_norm(tables, eig is not None).T]
    e_W, e_AW = np.max(sums / n_paths, axis=2)
    return YosidaStudy(
        lambdas=family.lambdas,
        e_S=e_S,
        e_W=e_W,
        e_AW=e_AW,
        bound_M=max(f.M for f in fits),
        bound_w=max(f.w for f in fits),
        n_paths=n_paths,
        cp_consistent=cp_consistent,
    )


def _matrix_route(S, ops, vals, blocks):
    """(2, L, N+1) path sums of |W_lam - W|^2 and |A_lam W_lam - A W|^2 over the (N+1,
    L+1, d, d) tables S of the operators ops = [A, A_lam1, ...]: each table convolved with
    the left-point products of psi's grid values vals and every (P, K, N) increment block,
    about P N^2 d^2 / 2 multiply-adds a table."""
    sums = np.zeros((2, ops.shape[0] - 1, S.shape[0]))
    for dw in blocks:
        c = _left_point_products(vals, dw).swapaxes(1, 2)
        W = _convolve_paths(S[:, 0], c)
        AW = W @ ops[0].T
        for i in range(1, ops.shape[0]):
            W_lam = _convolve_paths(S[:, i], c)
            AW_gap = W_lam @ ops[i].T - AW
            W_lam -= W
            for j, gap in enumerate((W_lam, AW_gap)):
                gap **= 2
                sums[j, i - 1] += np.sum(gap, axis=2).sum(axis=0)
            del W_lam, AW_gap  # free before the next table's convolution allocates its own
    return sums


def _channel_route(s, mus, V, vals, blocks):
    """`_matrix_route` on the (N+1, L+1, d) channels s of the tables V diag(s) V' of the
    operators V diag(mus[i]) V', for a symmetric A = V diag(mus[0]) V'.

    Per path and node |W_lam - W|^2 sums over k the squared lag sums of the gap s_lam,k -
    s_k against channel k of the rotated increments y_m = V' psi(t_m) dW_m (|A_lam W_lam -
    A W|^2 likewise, with the gap mu_lam s_lam - mu s): `_left_point_products` of each block
    with V' vals, psi's rotated grid values.  With G the (N L, N) block-Toeplitz strip of
    a channel's L gaps and y_p its increments, sum_p (G y_p)^2 is the rowwise dot of G Y'Y
    and G: the blocks add into the channel's Gram matrix Y'Y (a symmetric product, about
    P N^2 / 2 multiply-adds), and after the last block each channel multiplies its Gram by
    two strips, one for e_W and one for e_AW.  Row block n - 1 of G is zero from column n
    on, so _TILE nodes at a time read only the Gram's leading block: about 2 d L N^3 / 3
    multiply-adds in all, whatever P is, where strip products per block would take
    2 d L P N^2.  The d Gram matrices and one strip are alive.
    """
    (N, L), d = (s.shape[0] - 1, mus.shape[0] - 1), mus.shape[1]
    gaps = np.stack([s[:, 1:] - s[:, :1], mus[1:] * s[:, 1:] - mus[0] * s[:, :1]])
    lags = np.moveaxis(gaps[:, 1:], -1, 1)[..., None]  # (2, d, N, L, 1): lags 1..N
    R = V.T @ vals  # V' psi(t_m)
    gram = np.zeros((d, N, N))
    for dw in blocks:
        y = _left_point_products(R, dw)  # (P, d, N)
        for k in range(d):
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
    return sums.swapaxes(1, 2)
