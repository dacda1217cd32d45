"""Scalar convolution kernels and the scalar relaxation equation.

The kernels here are the memory functions a(t) of the linear Volterra
equation.  Each kernel knows its pointwise values and the exact integrals
over grid cells; the latter are what the product-integration solver for

    s(t) + mu * (a * s)(t) = 1

consumes, so weakly singular kernels (the fractional family with exponent
below one) need no special casing anywhere downstream.

A subclass of `ScalarKernel` gives `_value` (a), `_primitive` (its integral
from 0) and, when `differentiable` is true, `_deriv` (a'), each on a float
array of times.  `ScalarKernel` checks the domain (KernelDomainError at
negative times, and at t <= 0 for the value of a kernel `singular_at_zero`)
and returns a float for a scalar time, an array otherwise; `deriv` of a kernel
that is not `differentiable` raises SmoothnessError.

Two marching schemes are provided.  ``product`` approximates the unknown on
each cell by the average of its endpoint values against the exact kernel
moments (empirically second order on smooth kernels); ``conv`` is the
left-rectangle convolution quadrature whose lag weights never touch s(0),
the form under which the discrete stochastic identities hold exactly.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import KernelDomainError, NumericalFailure, SmoothnessError
from .grids import TimeGrid, _add_lag_sum_fft, cell_values, march_channels
from .spaces import _readonly, _readonly_fields

__all__ = [
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
    "MuProbe",
    "CompletePositivityReport",
    "check_complete_positivity",
    "mittag_leffler",
    "DEFAULT_MU_GRID",
    "default_cp_tolerance",
]

DEFAULT_MU_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)


def default_cp_tolerance(h):
    """`check_complete_positivity`'s tolerance: 1e-8 plus an O(h) allowance."""
    return 1e-8 + 10.0 * h


class ScalarKernel(ABC):
    """A locally integrable kernel a(t) on the half line."""

    #: True when a(t) diverges as t -> 0+ (evaluation at 0 is then rejected).
    singular_at_zero = False
    #: True when `deriv` gives a'(t); otherwise it raises SmoothnessError.
    differentiable = False

    def __call__(self, t):
        """Pointwise values a(t); t > 0 required when the kernel is singular at zero."""
        return self._evaluate(self._value, t, self.singular_at_zero)

    def primitive(self, t):
        """The running integral of a from 0 to t."""
        return self._evaluate(self._primitive, t)

    def deriv(self, t):
        """Time derivative a'(t); only differentiable kernels provide one."""
        return self._evaluate(self._deriv, t)

    def _evaluate(self, rule, t, open_at_zero=False):
        """rule(t) on t as a float array, a float for a scalar t; KernelDomainError at
        negative times, and at t = 0 too when `open_at_zero`."""
        t = np.asarray(t, dtype=float)
        if open_at_zero and np.any(t <= 0.0):
            raise KernelDomainError(f"{self.label()} is singular at t <= 0")
        if np.any(t < 0.0):
            raise KernelDomainError(f"{self.label()} evaluated at negative time")
        out = rule(t)
        return out if out.ndim else float(out)

    @abstractmethod
    def _value(self, t):
        """a(t) on a float array."""

    @abstractmethod
    def _primitive(self, t):
        """The integral of a from 0 to t on a float array."""

    def _deriv(self, t):
        """a'(t) on a float array, for a `differentiable` kernel."""
        raise SmoothnessError(f"{self.label()} has no usable time derivative")

    def cell_moments(self, h, n):
        """Exact integrals of a over the n cells [ih, (i+1)h], i = 0..n-1."""
        t = np.arange(n + 1) * h
        return np.diff(self.primitive(t))

    def label(self):
        return type(self).__name__


class FractionalKernel(ScalarKernel):
    """a(t) = t^(alpha-1) / Gamma(alpha) with alpha in (0, 2).

    Integrable at the origin for the whole range; singular there for
    alpha < 1, identically one for alpha = 1.
    """

    def __init__(self, alpha):
        alpha = float(alpha)
        if not (0.0 < alpha < 2.0):
            raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
        self.alpha = alpha
        self.singular_at_zero = alpha < 1.0
        self.differentiable = alpha == 1.0
        self._gamma = math.gamma(alpha)
        self._gamma1 = math.gamma(alpha + 1.0)

    def _value(self, t):
        return np.power(t, self.alpha - 1.0) / self._gamma

    def _primitive(self, t):
        return np.power(t, self.alpha) / self._gamma1

    def _deriv(self, t):
        if self.differentiable:
            return np.zeros_like(t)
        raise SmoothnessError(
            "fractional kernel derivative is unbounded near t = 0; "
            "no W^{1,1} evaluation is provided"
        )

    def label(self):
        return f"fractional(alpha={self.alpha})"


class ExponentialKernel(ScalarKernel):
    """a(t) = c * exp(-b t), c > 0, b >= 0, both finite."""

    differentiable = True

    def __init__(self, c=1.0, b=1.0):
        c, b = float(c), float(b)
        if not 0.0 < c < math.inf:  # false for nan
            raise ValueError(f"c must be positive and finite, got {c}")
        if not 0.0 <= b < math.inf:
            raise ValueError(f"b must be >= 0 and finite, got {b}")
        self.c, self.b = c, b

    def _value(self, t):
        return self.c * np.exp(-self.b * t)

    def _primitive(self, t):
        if self.b == 0.0:
            return self.c * t
        return (self.c / self.b) * (1.0 - np.exp(-self.b * t))

    def _deriv(self, t):
        return -self.b * self.c * np.exp(-self.b * t)

    def label(self):
        return f"exponential(c={self.c}, b={self.b})"


class ConstantKernel(ScalarKernel):
    """a(t) = c >= 0, finite."""

    differentiable = True

    def __init__(self, c=1.0):
        c = float(c)
        if not 0.0 <= c < math.inf:  # false for nan
            raise ValueError(f"c must be >= 0 and finite, got {c}")
        self.c = c

    def _value(self, t):
        return np.full_like(t, self.c)

    def _primitive(self, t):
        return self.c * t

    def _deriv(self, t):
        return np.zeros_like(t)

    def label(self):
        return f"constant({self.c})"


class LinearKernel(ScalarKernel):
    """a(t) = t."""

    differentiable = True

    def _value(self, t):
        return t

    def _primitive(self, t):
        return 0.5 * t * t

    def _deriv(self, t):
        return np.ones_like(t)

    def label(self):
        return "linear"


class TabulatedKernel(ScalarKernel):
    """Piecewise-linear interpolation of tabulated values.

    The table must start at t = 0 with strictly increasing abscissae; beyond
    the last point the kernel is held constant at the last value.
    """

    def __init__(self, times, values):
        times, values = _readonly(times), _readonly(values)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("need matching 1-d tables with at least two entries")
        if times[0] != 0.0 or not np.all(np.diff(times) > 0.0):  # false for nan
            raise ValueError("abscissae must start at 0 and increase strictly")
        if not np.all(np.isfinite(values)):
            raise ValueError("tabulated values must be finite")
        self.times, self.values = times, values

    def _value(self, t):
        return np.interp(t, self.times, self.values)

    def _primitive(self, t):
        # exact integral of the interpolant: accumulate full table cells, then
        # the partial cell that t lands in (past the table, the last cell,
        # where np.interp holds the last value)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(self.times) * (self.values[1:] + self.values[:-1]))]
        )
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 1)
        head = 0.5 * (self.values[idx] + np.interp(t, self.times, self.values))
        return cum[idx] + head * (t - self.times[idx])

    def label(self):
        return f"tabulated({self.times.size} points)"


# ---------------------------------------------------------------------------
# scalar relaxation equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarResolventPath:
    """Grid solution of s + mu * (a * s) = 1 together with its provenance."""

    grid: TimeGrid
    mu: float
    s: np.ndarray
    kernel: ScalarKernel
    scheme: str = "product"

    def __post_init__(self):
        _readonly_fields(self, "s")

    def residual(self):
        """Max node residual of the discrete equation (machine level by construction)."""
        w, s = self.kernel.cell_moments(self.grid.h, self.grid.N), self.s[:, None]
        return float(np.max(np.abs(_channel_defects(s, w, cell_values(s, self.scheme), self.mu))))


def _channel_defects(s, lags, x, mu):
    """(N, C) defects s[n] + mu[c] sum_{m<n} lags[n-1-m] x[m, c] - 1, n = 1..N, of the (N+1,
    C) channel table s: the scalar lags against every channel as a column of one FFT lag sum
    (`_add_lag_sum_fft`), scaled by mu after the sum.  With lags the cell moments of a and x
    the cell values of s, the relaxation equation s + mu (a * s) = 1."""
    conv = np.zeros((lags.size, 1, s.shape[1]))
    _add_lag_sum_fft(lags[:, None, None], x[:, None, :], conv, 0)
    return s[1:] + mu * conv[:, 0] - 1.0


def solve_scalar_resolvent(kernel, mu, grid, scheme="product"):
    """Solve s(t) + mu * (a * s)(t) = 1 on the grid by product integration.

    The kernel enters only through its exact cell integrals, so weak
    singularities at the origin are handled without special treatment.
    For mu = 0 the solution is identically one.  mu >= 0 is the regime
    the complete-positivity theory speaks about, but negative values are
    accepted (they arise as eigenchannels of operators with spectrum of
    either sign).
    """
    return _relaxation_paths(kernel, [mu], grid, scheme)[0]


def _relaxation_paths(kernel, mus, grid, scheme):
    """One ScalarResolventPath per mu, all marched as channels, all residuals checked at
    once against 1e-12 (1 + |mu|) max|s|: a growing path's roundoff scales with max|s|."""
    w, mus = kernel.cell_moments(grid.h, grid.N), np.array(mus, dtype=float)
    if not np.all(np.isfinite(mus)):
        raise ValueError(f"mu must be finite, got {mus[~np.isfinite(mus)][0]}")
    s = march_channels(w, mus, scheme)
    sups = np.max(np.abs(_channel_defects(s, w, cell_values(s, scheme), mus)), axis=0)
    tols = 1e-12 * (1.0 + np.abs(mus)) * np.max(np.abs(s), axis=0)
    for mu, res, tol in zip(mus, sups, tols):
        if not res <= tol:  # also true for nan
            raise NumericalFailure(f"residual {res} at mu={mu} exceeds construction tolerance")
    return [
        ScalarResolventPath(grid, mu, s[:, c], kernel, scheme) for c, mu in enumerate(mus.tolist())
    ]


# ---------------------------------------------------------------------------
# kernel classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    nonnegative: bool
    nonincreasing: bool
    first_violation_t: float | None

    @property
    def ok(self):
        return self.nonnegative and self.nonincreasing


def check_nonneg_nonincreasing(kernel, grid):
    """Sampled check that the kernel is nonnegative and nonincreasing, to within 1e-12.

    Samples on (0, T] (the origin is skipped, where singular kernels have no
    value); the sufficient criterion for complete positivity.  Reports the
    first violating node, if any.
    """
    t = grid.nodes()[1:]
    vals = np.asarray(kernel(t), dtype=float)
    neg = vals < -1e-12
    inc = np.diff(vals) > 1e-12
    nonnegative = not bool(np.any(neg))
    nonincreasing = not bool(np.any(inc))
    first = None
    if not nonnegative:
        first = float(t[np.argmax(neg)])
    if not nonincreasing:
        t_inc = float(t[1:][np.argmax(inc)])
        first = t_inc if first is None else min(first, t_inc)
    return MonotonicityReport(nonnegative, nonincreasing, first)


@dataclass(frozen=True, eq=False)
class MuProbe:
    """Outcome of one relaxation solve inside the complete-positivity check."""

    mu: float
    min_s: float
    t_at_min: float
    first_violation_t: float | None
    path: ScalarResolventPath


@dataclass(frozen=True, eq=False)
class CompletePositivityReport:
    """Falsification-only classification over a finite set of mu values.

    A negative excursion below -tol is a witness against complete positivity;
    its absence is only consistency on the tested grid, never a proof (the
    definition quantifies over every mu >= 0).
    """

    grid: TimeGrid
    tol: float
    probes: tuple

    @property
    def consistent(self):
        return self.witness is None

    @property
    def witness(self):
        for p in self.probes:
            if p.first_violation_t is not None:
                return (p.mu, p.first_violation_t)
        return None

    @property
    def verdict(self):
        if self.consistent:
            return "consistent with complete positivity on tested grid"
        mu, t = self.witness
        return f"not completely positive (witness mu={mu:g}, t={t:g})"


def check_complete_positivity(kernel, mu_list=None, T=1.0, N=1024, tol=None):
    """Probe the sign of the relaxation solution for each mu >= 0 given, all in
    one channel march.  tol defaults to `default_cp_tolerance(h)`, h = T/N.  The march is
    `product`, whose first step s[1] = (1 - mu w0 / 2) / (1 + mu w0 / 2) rings whatever the
    kernel: below -tol it raises NumericalFailure, as a witness there would be the scheme's.
    """
    grid = TimeGrid(float(T), N)
    mu_list, tol = _probe_settings(mu_list, tol, grid.h)
    probes = []
    t_nodes = grid.nodes()
    for path in _relaxation_paths(kernel, mu_list, grid, "product"):
        if path.s[1] < -tol:  # a witness there would come from the scheme, not from the kernel
            msg = f"product's first step {path.s[1]:.3g} at mu={path.mu:g} < -tol = {-tol:.3g}"
            raise NumericalFailure(f"{msg}: the scheme rings; probe on conv or N > {grid.N}")
        i_min, below = int(np.argmin(path.s)), path.s < -tol
        first = float(t_nodes[np.argmax(below)]) if np.any(below) else None
        probes.append(MuProbe(path.mu, float(path.s[i_min]), float(t_nodes[i_min]), first, path))
    return CompletePositivityReport(grid=grid, tol=float(tol), probes=tuple(probes))


def _probe_settings(mu_list, tol, h):
    """`check_complete_positivity`'s mu_list and tol as floats, None giving DEFAULT_MU_GRID
    and `default_cp_tolerance(h)`; ValueError unless mu_list is nonempty, finite and >= 0
    and tol is finite and >= 0."""
    mu_list = [float(m) for m in (DEFAULT_MU_GRID if mu_list is None else mu_list)]
    if not mu_list:
        raise ValueError("mu_list must be nonempty")
    if not all(0.0 <= m < np.inf for m in mu_list):  # false for nan
        raise ValueError(f"complete positivity is defined over finite mu >= 0, got {mu_list}")
    tol = default_cp_tolerance(h) if tol is None else float(tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return mu_list, tol


# ---------------------------------------------------------------------------
# series oracle
# ---------------------------------------------------------------------------


def mittag_leffler(alpha, z):
    """One-parameter Mittag-Leffler function by its Taylor series.

    Restricted to |z| <= 2; larger arguments would need asymptotic branches
    that are deliberately not implemented.  Raises NumericalFailure when the
    terms have not become negligible within 200 terms (small alpha: the
    terms grow like |z|^k / Gamma(alpha k + 1) for many k, and cancellation
    leaves nothing of the sum) or when the sum is not finite; raises ValueError
    for alpha <= 0 or nan.
    """
    if not alpha > 0:  # true for nan
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if abs(z) > 2.0:
        raise ValueError("series evaluation is restricted to |z| <= 2")
    total = 0.0
    for k in range(200):
        term = z**k / math.gamma(alpha * k + 1.0)
        total += term
        if k > 10 and abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    else:
        raise NumericalFailure(
            f"Mittag-Leffler series E_{alpha:g}({z:g}) did not converge in 200 terms"
        )
    if not math.isfinite(total):
        raise NumericalFailure(f"Mittag-Leffler series E_{alpha:g}({z:g}) is not finite")
    return total
