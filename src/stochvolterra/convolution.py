"""Stochastic convolution, mild solutions, covariance, and identity checks.

The discrete stochastic convolution is the left-point Ito sum

    W(t_n) = sum_{m<n} S(t_n - t_m) Psi(t_m) dW_m,

which is adapted by construction.  On tables built with the ``conv`` scheme
the discrete Dirichlet/Fubini rearrangement is exact for finite sums, so the
Volterra and weak-form identities hold per path to machine precision; on
``product`` tables the same verifiers report a residual that decreases at
first order in the step.  Both read `_volterra_defect`, the node defect of a batch
of paths: the Volterra check its norm, the weak form its pairing with the functional.

Every history sum of P paths (path convolution, the defect's kernel convolution,
Ito drift) is one `grids.lag_convolve` call, about P N^2 d^2 / 2 multiply-adds.  A
single path is summed in ascending source node, so node 0 is exactly zero and the
identity table reduces to the elementary Ito sum bit for bit.  The Monte Carlo
consumers fold `_path_blocks` of about `_MC_BLOCK` = 2^17 increments (1 MiB, so a block
and its consumer's arrays stay near a 2 MiB L2 cache) into running results one block at
a time; a threaded stream samples all its blocks on one worker pool.  The covariance and
the Ito statistics read one linear functional of each path's increments, built once per
call (node weights; the final residual's adjoint, two FFT lag sums), so a block
costs one product, P K N d or P K N multiply-adds; the Yosida study and the CLI's
Volterra check (`_volterra_sups`) convolve each block's left-point products (psi's grid
values taken once per stream), `grids._TILE` nodes per product (roundoff-level reordering).
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, SmoothnessError
from .grids import TimeGrid, _add_lag_sum_fft, cell_values, lag_convolve
from .noise import ConstantDiffusion, _check_integrand, _increments, _left_point_products
from .noise import _pool, _workers, sample_wiener_batch
from .spaces import _integer_in, _readonly_fields, _vector, as_matrix

__all__ = [
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
]


_MC_BLOCK = 1 << 17  # doubles of increments a block of Monte Carlo paths: 1 MiB, half a 2 MiB L2

MIN_COVARIANCE_PATHS = 100
MIN_ITO_PATHS = 2  # a standard error needs two residuals


@contextmanager
def _path_blocks(spec, grid, n_paths, threads):
    """Increments of paths 0, ..., n_paths - 1 as an iterator of consecutive (b, K, N)
    blocks, b = max(1, _MC_BLOCK // (K N)) whatever `threads` is, so sums taken block by
    block do not depend on it.  Consumers map a function over the blocks inside the
    context, so one block, about _MC_BLOCK doubles, is alive at a time whatever n_paths
    is.  On more than one worker every block is filled on one pool, shut down when the
    context exits, also on an error; one worker samples each block through
    `sample_wiener_batch`, the call perfbench's layer trace times."""
    b = max(1, _MC_BLOCK // (spec.truncation * grid.N))
    ids = (range(p, min(p + b, n_paths)) for p in range(0, n_paths, b))
    workers = _workers(threads, min(b, n_paths))
    with _pool(workers) as pool:
        if pool is None:
            yield map(partial(sample_wiener_batch, spec, grid), ids)
        else:
            yield (_increments(spec, grid, i, pool, workers) for i in ids)


def _per_path(block_fn, spec, grid, n_paths, threads):
    """block_fn's rows, one per path of a block of `_path_blocks` (doubles, or arrays of one
    shape), in one array of n_paths rows: small per-block copies would sit between blocks
    on the heap and keep it from shrinking, and concatenating them would copy every row."""
    out, p = None, 0
    with _path_blocks(spec, grid, n_paths, threads) as blocks:
        for part in map(block_fn, blocks):
            if out is None:
                out = np.empty((n_paths,) + part.shape[1:])
            out[p : p + len(part)] = part
            p += len(part)
    return out


def _convolve_paths(S, c_batch):
    """Running sums sum_{m<n} S[n-m] c[m] of each path; a nonfinite one raises NumericalFailure."""
    P, N, d = c_batch.shape
    out = np.zeros((P, N + 1, d))
    with np.errstate(invalid="ignore", over="ignore"):  # a nonfinite path raises below
        lag_convolve(S[1:], c_batch, out[:, 1:])
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("convolution path contains nonfinite values")
    return out


def _node_weights(S, B, n):
    """(K n, d) weights G whose row k n + m is column k of S[n - m] B, for m < n."""
    d, K = B.shape
    return np.ascontiguousarray((S[n:0:-1] @ B).transpose(2, 0, 1)).reshape(K * n, d)


def _convolve_at(G, dw_batch, n):
    """sum_{m<n} S[n-m] B dW_m for each path of a (P, K, N) batch, as one product
    with the weights G = _node_weights(S, B, n) (zero at node 0); a (K n,) G, in
    the same layout, gives one linear functional of each path's increments."""
    P, K, _ = dw_batch.shape
    return dw_batch[:, :, :n].reshape(P, K * n) @ G


@dataclass(frozen=True, eq=False)
class ConvolutionPath:
    """One sampled path of the stochastic convolution.

    `mean_square_at_T` is the isometry prediction of E|W(T)|^2 for this
    integrand, the discrete finiteness condition of the mild-solution
    definition; construction fails if it is not finite.
    """

    grid: TimeGrid
    values: np.ndarray
    scheme: str
    mean_square_at_T: float

    def __post_init__(self):
        _readonly_fields(self, "values")
        if not np.all(np.isfinite(self.values)):
            raise NumericalFailure("convolution path contains nonfinite values")
        if not np.isfinite(self.mean_square_at_T):
            raise NumericalFailure("mean-square finiteness condition failed")

    def discrete_square_integral(self):
        """h * sum_n |W(t_n)|^2, the square-integrable-trajectory functional."""
        return float(self.grid.h * np.sum(self.values**2))


@dataclass(frozen=True, eq=False)
class MildSolutionPath:
    """X(t_n) = S(t_n) X0 + W(t_n) for one noise path."""

    grid: TimeGrid
    values: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        _readonly_fields(self, "values", "X0")


def stochastic_convolution(table, psi, inc):
    """Convolve one increment path against the resolvent table.

    With the identity table (zero kernel) this reduces exactly to the
    elementary Ito integral of the integrand.
    """
    _check_integrand(psi, table.dim, inc.spec.cov, table.grid, inc.grid)
    vals = psi.values_on_grid(table.grid)
    values = _convolve_paths(table.S, _left_point_products(vals, inc.dW[None]).swapaxes(1, 2))[0]
    # the isometry sum h sum_{m<N} |S(T - t_m) Psi(t_m)|_HS^2 under the sampled modes
    M = table.S[:0:-1] @ vals[:, :, : inc.modes]
    ms = table.grid.h * float(np.sum(inc.spec.cov.q[: inc.modes] * np.sum(M * M, axis=(0, 1))))
    return ConvolutionPath(table.grid, values, table.scheme, ms)


def mild_solution(table, X0, psi, inc):
    """Mild solution path: the resolvent applied to the start plus the convolution."""
    X0 = _vector(X0, "X0", table.dim)
    conv = stochastic_convolution(table, psi, inc)
    values = np.einsum("nij,j->ni", table.S, X0) + conv.values
    return MildSolutionPath(grid=table.grid, values=values, X0=X0)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def covariance_quadrature(table, B, Q, t_index):
    """Trapezoid value of the covariance integral of the driven convolution.

    Integrand S(tau) B Q B' S(tau)' over [0, t_index * h]; the result is
    symmetrized exactly.  With the identity table the rule is exact and gives
    t * B Q B'.
    """
    t_index = _integer_in(t_index, "t_index", 0, table.grid.N)
    Bm = _check_integrand(as_matrix(B), table.dim, Q)
    BQBt = (Bm * Q.q) @ Bm.T
    if t_index == 0:
        return np.zeros((table.dim, table.dim))
    S = table.S[: t_index + 1]
    weights = np.full(t_index + 1, table.grid.h)
    weights[[0, -1]] *= 0.5
    # sum_j weights[j] S_j BQB' S_j', summed over (j, column) in one product
    out = np.tensordot(weights[:, None, None] * (S @ BQBt), S, axes=([0, 2], [0, 2]))
    return 0.5 * (out + out.T)


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    sample_cov: np.ndarray
    std_error: np.ndarray
    n_paths: int


def covariance_monte_carlo(table, B, Q, spec, n_paths, t_index, threads=1):
    """Sample covariance of the driven convolution at one node.

    `Q` must equal the covariance inside `spec`; the argument is kept so the
    caller states explicitly which operator the estimate targets.  The
    estimator subtracts the sample mean, divides by n-1, and is symmetrized
    exactly; per-entry standard errors use the Gaussian formula
    sqrt((C_ii C_jj + C_ij^2)/n).

    Paths stream through `_path_blocks` (b = 2^17 / (K N) paths a block), and
    each block is folded into X(t_n) by one GEMM, the (b, K n) increments times
    the (K n, d) weights of `_node_weights`: P K n d multiply-adds in all.
    Scratch is about 2^17 doubles (twice that when n < N) whatever P is, plus X
    itself, P d doubles (`_per_path`), centred in place.
    """
    n_paths = _integer_in(n_paths, "n_paths", MIN_COVARIANCE_PATHS)
    if not np.array_equal(Q.q, spec.cov.q):
        raise ValueError("Q disagrees with the covariance in the noise spec")
    t_index = _integer_in(t_index, "t_index", 0, table.grid.N)
    Bm = _check_integrand(as_matrix(B), table.dim, spec.cov)
    G = _node_weights(table.S, Bm[:, : spec.truncation], t_index)
    X = _per_path(partial(_convolve_at, G, n=t_index), spec, table.grid, n_paths, threads)
    X -= X.mean(axis=0)
    C = (X.T @ X) / (n_paths - 1)
    C = 0.5 * (C + C.T)
    var = np.diag(C)
    se = np.sqrt((np.outer(var, var) + C**2) / n_paths)
    return CovarianceEstimate(sample_cov=C, std_error=se, n_paths=n_paths)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Node-wise identity residuals of one path.

    `exact_regime` is the path's scheme being ``conv``, and nothing more.  The
    discrete rearrangement is exact, and the sup residual at machine level, only
    when the verifier's kernel is also the one the path's table was marched with.
    """

    residuals: np.ndarray
    sup_residual: float
    exact_regime: bool

    @classmethod
    def of(cls, res, scheme):
        return cls(residuals=res, sup_residual=float(np.max(res)), exact_regime=scheme == "conv")


def _volterra_defect(X, W, c, scheme):
    """(P, N+1, d) defect X_n - sum_{m<n} W[n-1-m] x_m - sum_{m<n} c_m of a batch of paths X,
    x their cell values under the scheme and c (P, N, d) their `_left_point_products` (the
    Ito sum's terms); for P = 1, `lag_convolve` sums in ascending m."""
    conv = np.zeros_like(X)
    lag_convolve(W, cell_values(X.swapaxes(0, 1), scheme).swapaxes(0, 1), conv[:, 1:])
    defect = X - conv
    defect[:, 1:] -= np.cumsum(c, axis=1)
    return defect


def _path_defect(path, kernel, psi, inc):
    """`_volterra_defect` of one path with the kernel's cell weights, recomputed here."""
    _check_integrand(psi, path.values.shape[1], inc.spec.cov, path.grid, inc.grid)
    c = _left_point_products(psi.values_on_grid(path.grid), inc.dW[None]).swapaxes(1, 2)
    return _volterra_defect(path.values[None], kernel.cell_weights(path.grid), c, path.scheme)[0]


def _volterra_sups(table, vals, dw_batch):
    """max_n |Volterra defect at t_n| of each path of a (b, K, N) block of increments driving
    psi's grid values vals (taken once per stream), with the table's cell weights: b doubles.
    A path that is not finite is refused by `_convolve_paths`."""
    c = _left_point_products(vals, dw_batch).swapaxes(1, 2)
    X = _convolve_paths(table.S, c)
    defect = _volterra_defect(X, table.cell_weights, c, table.scheme)
    return np.max(np.linalg.norm(defect, axis=2), axis=1)


def verify_volterra_identity(path, kernel, psi, inc):
    """Norm of the Volterra defect at every node: path minus kernel-convolution
    minus the plain Ito integral.

    The kernel's cell weights are recomputed here; when they coincide with
    the ones the path's table used and the table scheme is ``conv``, the
    residual is machine zero.  A ``product`` table of the same kernel leaves a
    first-order defect; another kernel's weights leave one that does not shrink
    with h.
    """
    defect = _path_defect(path, kernel, psi, inc)
    return IdentityReport.of(np.linalg.norm(defect, axis=1), path.scheme)


def verify_weak_solution(path, kernel, xi, psi, inc):
    """Residual of the weak-form identity for the operator kernel.

    Tests the path against a functional: |<defect, xi>| at every node, the
    Volterra defect paired with xi (A' xi paired with the kernel convolution).
    Any state vector is admissible in finite dimensions.
    """
    xi = _vector(xi, "xi", path.values.shape[1])
    return IdentityReport.of(np.abs(_path_defect(path, kernel, psi, inc) @ xi), path.scheme)


# ---------------------------------------------------------------------------
# the Ito-formula identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ItoTestFunction:
    """Product test function: a fixed vector times a smooth scalar profile.

    This is the dense subclass sufficient for the identity; `phi_dot` must be
    the derivative of `phi`, and the pair is finite-difference-checked before
    use.
    """

    xi0: np.ndarray
    phi: callable
    phi_dot: callable

    def __post_init__(self):
        object.__setattr__(self, "xi0", _vector(self.xi0, "xi0"))

    @classmethod
    def constant(cls, xi0):
        return cls(xi0=xi0, phi=lambda t: 1.0, phi_dot=lambda t: 0.0)

    def check_consistency(self, T):
        """Compare phi_dot with a forward difference of phi at five times in [0, T) to 1e-4;
        the difference errs by about |phi''| delta / 2, so 1e-4 is relative past |phi_dot| = 1."""
        delta = 1e-6
        for t in np.linspace(0.0, T - delta, 5):
            fd, dot = (self.phi(t + delta) - self.phi(t)) / delta, self.phi_dot(t)
            if not abs(fd - dot) <= 1e-4 * max(1.0, abs(dot)):  # also true for nan
                raise ValueError(
                    f"phi_dot is inconsistent with phi at t={t:g}: "
                    f"finite difference {fd:g} vs {dot:g}"
                )


@dataclass(frozen=True, eq=False)
class ItoIdentityReport:
    """Signed node residuals of the integration-by-parts identity for one path."""

    residuals: np.ndarray
    final_residual: float
    sup_abs_residual: float


def _check_ito_inputs(kernel, xi, d):
    """Raise unless the kernel is W11 and both it and xi.xi0 have the state dimension d."""
    if kernel.smoothness != "W11":
        raise SmoothnessError(
            "the Ito identity needs the kernel's time derivative; construct the "
            "kernel with a derivative rule and a value at zero (W11 smoothness)"
        )
    if kernel.dim != d:
        raise DimensionMismatch("kernel vs state dimension", kernel.dim, d)
    _vector(xi.xi0, "xi0", d)


def _ito_profile(kernel, xi, grid):
    """Drift lag weights u[l] = h dA/dt(t_l)' xi0 (halved at lag 0) and the profile
    phi, phi_dot on the grid's nodes; raise unless phi and phi_dot are finite there."""
    t = grid.nodes()
    phi = np.array([float(xi.phi(s)) for s in t])
    phi_dot = np.array([float(xi.phi_dot(s)) for s in t])
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(phi_dot))):
        raise ValueError("phi and phi_dot must be finite on the grid")
    u = grid.h * np.einsum("nab,a->nb", kernel.derivative(t), xi.xi0)
    u[0] *= 0.5
    return u, phi, phi_dot


def _ito_residual_batch(kernel, xi, grid, X, bdw):
    """(P, N+1) signed residuals; X is (P, N+1, d), bdw is (P, d, N) (`_left_point_products`)."""
    h = grid.h
    u, phi, phi_dot = _ito_profile(kernel, xi, grid)
    u = u[:, None, :]

    # inner convolution (dA/dt * X) by the trapezoid rule at every node, paired
    # with xi0 first: lag weights u, halved on X[:, 0]
    rate = np.zeros((X.shape[0], grid.N + 1))
    rate[:, 1:] = X[:, 0] @ (0.5 * u[1:, 0].T)
    lag_convolve(u, X[:, 1:], rate[:, 1:, None])
    rate += X @ (kernel.value_at_zero().T @ xi.xi0)

    # deterministic rate of <X, xi>: drift * phi + <X, xi0> * phi_dot, updated
    # in place so that only a few (P, N+1) arrays are alive at once
    x_xi = X @ xi.xi0
    rate *= phi
    rate += x_xi * phi_dot
    rate = 0.5 * h * (rate[:, :-1] + rate[:, 1:])
    res = x_xi * phi
    res -= res[:, :1]
    res[:, 1:] -= np.cumsum(rate, axis=1)
    res[:, 1:] -= np.cumsum((xi.xi0 @ bdw) * phi[:-1], axis=1)
    return res


def _ito_final_weights(table, B, xi, X0):
    """(K N,) weights g, in `_convolve_at`'s layout, and a scalar c0 with which the
    final residual of `_ito_residual_batch` on the mild solution X = S X0 + sum_{m<n}
    S[n-m] B dW_m is c0 + <g, dW> for every path: the residual's adjoint.

    r[n] is the coefficient vector of X_n in the final residual and y[m] =
    sum_{n>m} S[n-m]' r[n] that of B dW_m through X; both anti-causal lag sums
    are `grids._add_lag_sum_fft` products on time-reversed arrays, O(N log N d^2)
    work once per call, whatever the number of paths.
    """
    grid, S, xi0 = table.grid, table.S, xi.xi0
    N, d = grid.N, table.dim
    u, phi, phi_dot = _ito_profile(table.kernel, xi, grid)
    w = np.full(N + 1, grid.h)  # trapezoid weights
    w[[0, -1]] *= 0.5
    wphi = w * phi
    r = -np.outer(wphi, table.kernel.value_at_zero().T @ xi0) - np.outer(w * phi_dot, xi0)
    r[-1] += phi[-1] * xi0
    r[0] -= phi[0] * xi0
    # the drift's inner convolution: X_n (n >= 1) meets lag j - n of every node j >= n,
    # X_0 half of lag j >= 1
    drift = np.zeros((N, d, 1))
    _add_lag_sum_fft(u[:N, :, None], wphi[:0:-1, None, None], drift, 0)
    r[:0:-1] -= drift[..., 0]
    r[0] -= 0.5 * (wphi[1:] @ u[1:])
    y = np.zeros((N, d, 1))
    _add_lag_sum_fft(S[1:].swapaxes(1, 2), r[:0:-1, :, None], y, 0)
    g = (y[::-1, :, 0] - np.outer(phi[:-1], xi0)) @ B
    return g.T.ravel(), float(np.vdot(r, S @ X0))


def verify_ito_identity(x_path, kernel, B, xi, inc):
    """Residual of the integration-by-parts identity along one solution path.

    Requires a kernel of W11 smoothness and a constant integrand (the
    identity's hypothesis); deterministic integrals use the trapezoid rule
    and the stochastic one the left-point sum.
    """
    d = x_path.values.shape[1]
    _check_ito_inputs(kernel, xi, d)
    Bm = _check_integrand(as_matrix(B), d, inc.spec.cov, x_path.grid, inc.grid)
    xi.check_consistency(x_path.grid.T)
    bdw = _left_point_products(ConstantDiffusion(Bm).values_on_grid(x_path.grid), inc.dW[None])
    res = _ito_residual_batch(kernel, xi, x_path.grid, x_path.values[None], bdw)[0]
    return ItoIdentityReport(
        residuals=res,
        final_residual=float(res[-1]),
        sup_abs_residual=float(np.max(np.abs(res))),
    )


@dataclass(frozen=True, eq=False)
class ItoStatistics:
    """Monte Carlo summary of the identity residual at the final time."""

    mean: float
    std_error: float
    rms: float
    n_paths: int
    final_residuals: np.ndarray


def ito_identity_statistics(table, B, xi, X0, spec, n_paths, threads=1):
    """Run the identity over many mild-solution paths and summarize.

    All paths share the table, and the root mean square shrinks with the grid step.
    The mean estimates the residual's deterministic part c0: O(h^2) on `product`
    tables (-4.4e-6 at N = 128 on the `ito_mc` benchmark config), so the mean is
    indistinguishable from zero; O(h) on `conv` tables (+3.8e-4 there, 2.8 standard
    errors at P = 1000), where c0 / SE grows as sqrt(P) and does not fall with N.

    The final residual of the path driven by increments dW is c0 + <g, dW>, g and
    c0 taken once by `_ito_final_weights` (two FFT lag sums, none per path).  Paths
    stream through `_path_blocks`, and each block is one product with g, P K N
    multiply-adds in all.  Scratch is one block of about 2^17 increments whatever P
    is, and the final residuals go into one array of P doubles (`_per_path`).  Every
    input check raises before the first path is drawn.
    """
    n_paths = _integer_in(n_paths, "n_paths", MIN_ITO_PATHS)
    _check_ito_inputs(table.kernel, xi, table.dim)
    Bm = _check_integrand(as_matrix(B), table.dim, spec.cov)
    xi.check_consistency(table.grid.T)
    X0 = _vector(X0, "X0", table.dim)
    g, c0 = _ito_final_weights(table, Bm[:, : spec.truncation], xi, X0)
    final = _per_path(partial(_convolve_at, g, n=table.grid.N), spec, table.grid, n_paths, threads)
    final += c0
    mean = float(np.mean(final))
    se = float(np.std(final, ddof=1) / np.sqrt(n_paths))
    rms = float(np.sqrt(np.mean(final**2)))
    return ItoStatistics(
        mean=mean, std_error=se, rms=rms, n_paths=n_paths, final_residuals=final
    )
