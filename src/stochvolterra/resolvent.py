"""Resolvent families for linear Volterra equations with operator kernels.

The central object is a table of the family S(t_n) solving the second
resolvent equation

    S(t) = I + integral_0^t of the kernel applied to S,

together with its running integral U(t_n).  Tables are built by marching a
discrete convolution; the kernel enters through one weight matrix per grid
cell, which is exact: cell moments of a times the operator for a scalar-type
kernel, and the sum of its terms' weights for a nonscalar kernel.  Kernels answer
for arrays of times, t.shape + (d, d).

Schemes
-------
``product``
    Exact kernel mass per cell against the endpoint average of the unknown.
    Empirically second order on smooth kernels; the default.  A mode z = w0 lam with
    Re z < 0 and |z| > 2 rings, and `compute_resolvent` refuses it (`_check_ring`).
``conv``
    Left-rectangle convolution quadrature: lag-j weight applied to S(t_{k-j}),
    j < k.  First order, but the stochastic convolution built on such a table
    satisfies the discrete Volterra identity to machine precision, which is
    what the identity verifiers exploit.

Tables are solved by `grids.march`, recursive halving with FFT products for the
far history and one product with a precomputed inverse per leaf of 4 to 16 nodes, 32
for scalar channels (`grids._leaf_nodes`): O(N log^2 N) for a d x d table.
`resolvent_residuals` sums both equations' histories as one FFT lag sum
(`grids.lag_convolve` on batched weights), in another order than the solver, so the
second residual reads 1e-16 to 1e-14, not zero.  On a channel table it checks the
channel march by `kernels._channel_defects`, the relaxation paths' check; the rotation
to S adds roundoff that the residuals do not see.

`compute_resolvent` is the one constructor.  A scalar-type kernel a(t) A with exactly
symmetric A (`_symmetric_eigh`: `np.array_equal(A, A.T)`, no tolerance) splits along
A's eigenvectors into d scalar channels on the same cell moments, all marched by one
`grids.march_channels` call and rotated back in N d^3 multiply-adds, one (N+1, d) x
(d, d^2) product (`_rotate`; the d x d march spends about N 256 d^3 / 2 in its zones);
the two tables agree at roundoff.  An A symmetric only to roundoff takes the matrix
march: pass (A + A') / 2 to take the channels.  Any other kernel marches the full d x d
table.  A channel table keeps lam, V and s: its norms and U-Lipschitz estimate cost
O(N d) instead of N SVDs, and its residuals d FFT columns an equation instead of d^2,
plus an N d^3 rotation of each.
One rule, `_table_norm`, gives the operator 2-norm of a table's entries: max_k |s_k| on
channel values, exact singular values (one batched call per stack) on d x d stacks.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, SmoothnessError
from .grids import OVERFLOW_LIMIT, SCHEMES, TimeGrid, cell_values, lag_convolve
from .grids import _check_steps, march, march_channels, trapezoid
from .kernels import ScalarKernel, _channel_defects
from .spaces import _readonly_fields, _square

__all__ = [
    "OperatorKernel",
    "ScalarTypeKernel",
    "NonscalarKernel",
    "ResolventTable",
    "compute_resolvent",
    "ResolventResiduals",
    "resolvent_residuals",
    "ExponentialBound",
    "exponential_bound_fit",
    "operator_2norm",
    "SCHEMES",
]

MIN_RESOLVENT_CELLS = 2  # fewest grid cells compute_resolvent accepts
MIN_BOUND_FIT_CELLS = 8  # fewest grid cells exponential_bound_fit accepts


class OperatorKernel(ABC):
    """Matrix-valued memory kernel A(t) of the state dimension."""

    @property
    @abstractmethod
    def dim(self):
        """State dimension."""

    @abstractmethod
    def cell_weights(self, grid):
        """(N, d, d) stack of exact cell integrals of A."""

    @abstractmethod
    def value(self, t):
        """A(t) as a t.shape + (d, d) array, as is `derivative`; t = 0 only where A is regular."""

    @property
    def smoothness(self):
        """'W11' when a time derivative and the value at zero are available."""
        return "L1loc"

    def derivative(self, t):
        raise SmoothnessError(f"{self.label()} provides no time derivative")

    def value_at_zero(self):
        raise SmoothnessError(f"{self.label()} provides no value at t = 0")

    def label(self):
        return type(self).__name__


class ScalarTypeKernel(OperatorKernel):
    """A(t) = a(t) * A for a scalar kernel a and a fixed matrix A."""

    def __init__(self, a: ScalarKernel, A):
        self.a = a
        self.A = _square(A, "A")

    @property
    def dim(self):
        return self.A.shape[0]

    def cell_weights(self, grid):
        w = self.a.cell_moments(grid.h, grid.N)
        return w[:, None, None] * self.A

    def value(self, t):
        return np.multiply.outer(self.a(t), self.A)

    @property
    def smoothness(self):
        return "W11" if self.a.differentiable else "L1loc"

    def derivative(self, t):
        return np.multiply.outer(self.a.deriv(t), self.A)

    def value_at_zero(self):
        if self.a.singular_at_zero:
            raise SmoothnessError(f"{self.a.label()} is singular at t = 0")
        return float(self.a(0.0)) * self.A


class NonscalarKernel(OperatorKernel):
    """A(t) = sum_j a_j(t) A_j, a nonempty sum of operator kernels of one dimension: in
    practice `ScalarTypeKernel`s on non-commuting A_j (Pruss 1993), so the weights are exact.
    Each method adds the terms' answers left to right from the first, so one term gives its
    bytes; it is W11 when every term is, and a term without a derivative or a value at zero
    raises its SmoothnessError.  A continuous matrix kernel enters entrywise, as terms
    `ScalarTypeKernel(TabulatedKernel(...), E_ij)` on the matrix units E_ij."""

    def __init__(self, terms):
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("a nonscalar kernel needs at least one term")
        if dims := [term.dim for term in self.terms if term.dim != self.dim]:
            raise DimensionMismatch("kernel term vs first term", dims[0], self.dim)

    @property
    def dim(self):
        return self.terms[0].dim

    def _fold(self, method, *args):
        return reduce(np.add, (getattr(term, method)(*args) for term in self.terms))

    def cell_weights(self, grid):
        return self._fold("cell_weights", grid)

    def value(self, t):
        return self._fold("value", t)

    @property
    def smoothness(self):
        return "W11" if all(term.smoothness == "W11" for term in self.terms) else "L1loc"

    def derivative(self, t):
        return self._fold("derivative", t)

    def value_at_zero(self):
        return self._fold("value_at_zero")


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResolventTable:
    """Grid values S(t_n) with the running integral U(t_n) and quadrature data.

    S[0] is the identity and U is the trapezoid integral of S (`grids.trapezoid`);
    `cell_weights` are the exact weight matrices the marching used, kept so
    identity verifiers can share them.  A table marched in eigenchannels also holds
    A's eigenvalues `lam`, its orthonormal eigenvectors `V` (columns) and the (N+1, d)
    channels `s`, S(t_n) = V diag(s[n]) V'; its norms, U-Lipschitz estimate and
    residuals are read from them.  A table from `grids.march` holds None in all three.
    """

    grid: TimeGrid
    S: np.ndarray
    U: np.ndarray
    kernel: OperatorKernel
    scheme: str
    cell_weights: np.ndarray
    lam: np.ndarray | None = None
    V: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        channels = [name for name in ("lam", "V", "s") if getattr(self, name) is not None]
        if len(channels) not in (0, 3):
            raise ValueError(f"lam, V and s come together, got only {channels}")
        _readonly_fields(self, "S", "U", "cell_weights", *channels)
        d = self.dim
        if not np.array_equal(self.S[0], np.eye(d)):
            raise NumericalFailure("table does not start at the identity")
        if not np.array_equal(self.U[0], np.zeros((d, d))):
            raise NumericalFailure("integrated family does not start at zero")
        sup = float(np.max(np.abs(self.S)))
        if not np.isfinite(sup) or sup > OVERFLOW_LIMIT:
            raise NumericalFailure(f"resolvent table overflowed: sup entry {sup}")

    @property
    def dim(self):
        return self.S.shape[1]

    def norms(self):
        """Operator 2-norms of S(t_n), one per node (`_table_norm`)."""
        return _table_norm(self.S if self.s is None else self.s, self.s is not None)

    def sup_norm(self):
        """max_n of the operator 2-norm of S(t_n)."""
        return float(np.max(self.norms()))

    def u_lipschitz(self):
        """Discrete Lipschitz estimate of U, max_n |U(t_{n+1}) - U(t_n)| / h: U is the
        trapezoid integral of S, so this is max_n |S(t_{n+1}) + S(t_n)| / 2."""
        x = self.S if self.s is None else self.s
        return 0.5 * float(np.max(_table_norm(x[1:] + x[:-1], self.s is not None)))


def _symmetric_eigh(A):
    """eigh(A), ascending eigenvalues and orthonormal eigenvectors, when A is exactly
    symmetric (no tolerance); None otherwise."""
    return np.linalg.eigh(A) if np.array_equal(A, A.T) else None


def _rotate(V, x):
    """V diag(x[n]) V' for each row n of the (n, d) channel values x, as one (n, d) x (d, d^2)
    product with the outer products of V's columns: row k holds V[i, k] V[j, k] at i d + j."""
    d = V.shape[0]
    return (x @ (V.T[:, :, None] * V.T[:, None, :]).reshape(d, d * d)).reshape(-1, d, d)


def compute_resolvent(kernel, grid, scheme="product"):
    """Build the resolvent table of the kernel on the grid.

    A scalar-type kernel with exactly symmetric A = V diag(lam) V' is marched in its
    eigenchannels (`march_channels` with mu = -lam on the cell moments of a) and
    rotated back as V diag(s_n) V' (`_rotate`), its U as V diag(u_n) V' with u the
    channels' trapezoid sums, and the table keeps lam, V and s.  Any other kernel goes
    through `grids.march`.  A scalar-type kernel raises NumericalFailure for a real
    eigenvalue of A with a nonpositive step (`grids._check_steps`), and every kernel under
    `product` for a mode that rings (`_check_ring` on z = w0 lam, or on the eigenvalues of
    a sum's first cell weight).  With the zero kernel the table is identically the identity
    under either scheme.
    """
    if grid.N < MIN_RESOLVENT_CELLS:
        raise ValueError(f"need at least {MIN_RESOLVENT_CELLS} cells, got {grid.N}")
    W = kernel.cell_weights(grid)
    eig = _symmetric_eigh(kernel.A) if isinstance(kernel, ScalarTypeKernel) else None
    if eig is None:
        if isinstance(kernel, ScalarTypeKernel):  # march_channels checks the channels' steps
            w0, lam = kernel.a.cell_moments(grid.h, 1)[0], np.linalg.eigvals(kernel.A)
            _check_steps(w0, lam, scheme)
            _check_ring(w0 * lam, scheme)
        elif np.all(np.isfinite(W[0])):  # an overflowed weight is the march's to refuse
            _check_ring(np.linalg.eigvals(W[0]), scheme)
        S = march(W, scheme)
        U, channels = trapezoid(S, grid.h), ()
    else:
        lam, V = eig
        w = kernel.a.cell_moments(grid.h, grid.N)
        _check_ring(w[0] * lam, scheme)
        s = march_channels(w, -lam, scheme)
        S, U = (_rotate(V, x) for x in (s, trapezoid(s, grid.h)))
        S[0], U[0] = np.eye(kernel.dim), 0.0  # V V' is I, and V 0 V' is 0, only to roundoff
        channels = (lam, V, s)
    return ResolventTable(grid, S, U, kernel, scheme, W, *channels)


def _check_ring(z, scheme):
    """Raise NumericalFailure under `product` for a mode z = w0 lam (w0 the first cell weight,
    lam an eigenvalue of the operator; z a 1-D array) with Re z < 0 and |z| > 2: its first
    step (1 + z/2) / (1 - z/2) has a negative real part, so the table rings where the
    solution decays.  `conv` takes every Re z < 0 without ringing."""
    size = np.abs(z[z.real < 0.0])
    if scheme == "product" and np.any(size > 2.0):
        raise NumericalFailure(
            f"the product scheme rings on a mode z = w0 lam with |z| = {size.max():.4g} > 2 and"
            " Re z < 0; refine the grid or use scheme 'conv'"
        )


@dataclass(frozen=True)
class ResolventResiduals:
    """Max-node residuals of the two resolvent equations.

    The second equation is the defining discretization, summed again in another
    order, so its residual is machine level.  The first equation is discretized
    independently (kernel at t_n - t_j against S(t_j) h, the left-point
    Stieltjes sum through U' = S) and its residual decreases under grid
    refinement: at first order on diag5 with the exponential kernel, at about
    h^0.37 with the fractional kernel at alpha = 1/2 (README).
    """

    res_first: float
    res_second: float


def resolvent_residuals(table):
    """`ResolventResiduals` of the table.  Both equations' history sums are one FFT lag sum,
    O(N log N) per column of S, so the second residual checks the march by an independent
    summation: up to about 1e-14 max|S|, growing with N (not zero).  A channel table is d
    scalar equations, each equation's channels the columns of one `kernels._channel_defects`
    call on the lags of a, scaled by lam_k after the sum; its (N, d) defects r are rotated
    back as V diag(r) V', one equation at a time."""
    grid, N = table.grid, table.grid.N
    nodes = grid.nodes()[1:]  # lag k of the first equation's sum is A(t_{k+1}) h
    if table.s is None:  # each column of S is one sum's: sums[e][n-1] is equation e's at node n
        S, sums = table.S, np.zeros((2, N) + table.S.shape[1:])
        lags = np.stack([table.cell_weights, table.kernel.value(nodes)])
        lag_convolve(lags, np.stack([cell_values(S, table.scheme), S[:N]]), sums)
        gap = S[1:] - np.eye(table.dim)
        res = (gap - sums[0], gap - grid.h * sums[1])
    else:
        s, lam, a = table.s, table.lam, table.kernel.a
        w, cells = a.cell_moments(grid.h, N), cell_values(s, table.scheme)
        eqs = ((w, cells, -lam), (a(nodes), s[:N], -grid.h * lam))
        res = (_rotate(table.V, _channel_defects(s, *eq)) for eq in eqs)
    res2, res1 = (float(np.max(np.abs(r))) for r in res)
    return ResolventResiduals(res_first=res1, res_second=res2)


# ---------------------------------------------------------------------------
# norms and growth bounds
# ---------------------------------------------------------------------------


def operator_2norm(M):
    """Largest singular value of the matrix M (a float), or of each matrix in
    the stack M (an array over its leading axes)."""
    out = np.linalg.norm(M, 2, axis=(-2, -1))
    return out if out.ndim else float(out)


def _table_norm(x, channels):
    """Operator 2-norm of each entry of a table: max_k |x_k| over the last axis of channel
    values x (the norm of V diag(x) V'), `operator_2norm` of a d x d stack x otherwise."""
    return np.max(np.abs(x), axis=-1) if channels else operator_2norm(x)


@dataclass(frozen=True)
class ExponentialBound:
    """Constants of a bound |S(t_n)| <= M exp(w t_n) verified, as evaluated, at every node."""

    M: float
    w: float


def exponential_bound_fit(table):
    """Fit growth constants from the table's operator norms.

    Least squares of log |S(t_n)| against t_n over the tail half of the grid
    gives the rate; the prefactor is then inflated minimally so the bound
    holds at every node as evaluated, eta_n <= M * exp(w t_n) in floating point
    on the norms eta = `table.norms()`, and never below one, which S(0) = I
    forces anyway; NumericalFailure when a few ulps of M do not suffice (exp(w t)
    underflowing).
    """
    return _bound_fit(table.grid.nodes(), table.norms())


def _check_fit_cells(cells):
    """Raise ValueError unless a growth-bound fit gets at least MIN_BOUND_FIT_CELLS cells."""
    if cells < MIN_BOUND_FIT_CELLS:
        raise ValueError(f"need at least {MIN_BOUND_FIT_CELLS} cells for a meaningful fit")


def _bound_fit(t, eta):
    """`exponential_bound_fit` of the norms eta at the grid nodes t."""
    _check_fit_cells(t.size - 1)
    log_eta = np.log(np.maximum(eta, 1e-300))
    half = (t.size - 1) // 2
    design = np.vstack([t[half:], np.ones(t.size - half)]).T
    (w, log_M), *_ = np.linalg.lstsq(design, log_eta[half:], rcond=None)
    eta = np.asarray(eta, dtype=float)
    pos = eta > 0  # a zero norm needs no M, and 0 exp(-w t) is nan where exp overflows
    M = float(max(np.exp(log_M), np.max(eta[pos] * np.exp(-w * t[pos]), initial=1.0)))
    for _ in range(8):  # eta exp(-w t) exp(w t) may round an ulp or two below eta
        if np.all(eta <= M * np.exp(w * t)):
            return ExponentialBound(M=M, w=float(w))
        M = float(np.nextafter(M, np.inf))
    raise NumericalFailure(f"no M near {M:g} bounds the table at rate w={float(w):g}")
