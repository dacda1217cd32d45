"""Reproducible truncated Q-Wiener increments and elementary Ito integrals.

Streams are derived counter-based: the Philox generator is keyed with the
pair (master seed, path index), so every path is an independent stream that
can be regenerated bit-identically in any order.  A batch reuses one Philox
generator per worker thread and re-keys it before each path by assigning the
state a fresh Philox with that key starts in, held in lists: 0.65 us a path
(1.8 us with the state's arrays; 2-vCPU x86, numpy 2.4) instead of building a
new generator.  Each worker fills its own contiguous range of paths, so a
batch is the same bit for bit on any number of threads.
`sample_wiener_batch` builds a pool for its call; `_increments` fills on a pool its
caller holds, so a stream of batches (`convolution._path_blocks`) builds one in all.
"""

import os
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, NumericalFailure
from .grids import TimeGrid
from .spaces import CovOperator, _integer_in, _readonly, _readonly_fields, as_matrix

__all__ = [
    "NoiseSpec",
    "WienerIncrements",
    "sample_wiener",
    "sample_wiener_batch",
    "DiffusionProcess",
    "ConstantDiffusion",
    "StepDiffusion",
    "RuleDiffusion",
    "stochastic_integral",
]


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Covariance, mode truncation and master seed of the driving noise.

    Identical (cov, truncation, seed) and grid reproduce increments exactly;
    modes beyond the truncation contribute nothing.
    """

    cov: CovOperator
    truncation: int
    seed: int

    def __post_init__(self):
        truncation = _integer_in(self.truncation, "truncation", 1, self.cov.dim)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "seed", _integer_in(self.seed, "seed", 0, 2**64 - 1))


@dataclass(frozen=True, eq=False)
class WienerIncrements:
    """K x N array of increments over the grid cells for one path.

    Entry (k, m) is Gaussian with variance h * q_k, independent across modes
    and cells.  dW is finite, with grid.N columns and at most spec.cov.dim rows.
    """

    grid: TimeGrid
    dW: np.ndarray
    spec: NoiseSpec

    def __post_init__(self):
        _readonly_fields(self, "dW")
        K, N = self.spec.cov.dim, self.grid.N
        if self.dW.ndim != 2 or self.dW.shape[0] > K or self.dW.shape[1] != N:
            raise DimensionMismatch("increments vs (modes, cells)", self.dW.shape, (K, N))
        if not np.all(np.isfinite(self.dW)):
            raise ValueError("increments must be finite")

    @property
    def modes(self):
        return self.dW.shape[0]

    def cumulative(self):
        """The sampled Wiener path: (K, N+1) with a zero first column."""
        K = self.modes
        out = np.zeros((K, self.grid.N + 1))
        out[:, 1:] = np.cumsum(self.dW, axis=1)
        return out


def _fill_normals(out, seed, path_ids):
    """Write the standard normals of path path_ids[i] into out[i], for every i.

    One generator serves every path: before each path its Philox state is reset
    to the one Philox(key=(seed, path_id)) starts in (counter 0, empty buffer).
    The state holds lists, which the setter reads faster than arrays.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    for row, pid in zip(out, path_ids):
        key[1] = pid
        bitgen.state = fresh
        gen.standard_normal(out=row)


def sample_wiener(spec, grid, path_id=0):
    """Draw the truncated increments of one path.

    Distinct path ids give statistically independent streams; the same
    (seed, path_id, grid) reproduces the array bit for bit.
    """
    dW = sample_wiener_batch(spec, grid, [path_id])[0]
    return WienerIncrements(grid=grid, dW=dW, spec=spec)


def ThreadPoolExecutor(max_workers):
    """`concurrent.futures.ThreadPoolExecutor`, imported on the first threaded batch: the
    import costs about 6 ms that a run on one thread never needs."""
    from concurrent.futures import ThreadPoolExecutor as pool

    return pool(max_workers=max_workers)


def _workers(threads, n):
    """Workers that fill n paths: min(threads, n, os.cpu_count()), at least one."""
    return max(1, min(_integer_in(threads, "threads", 1), n, os.cpu_count() or 1))


def _pool(workers):
    """A context giving a pool of `workers` threads, shut down on exit, or None for one."""
    return ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _increments(spec, grid, path_ids, pool, workers):
    """(P, K, N) increments of path_ids: the normals of `workers` contiguous ranges of paths,
    filled on the pool, or here for one worker (pool None), so the bytes do not depend on
    the split; then each mode is scaled by sqrt(h q_k), NumericalFailure naming the first
    mode where that is past the float range (a finite scale keeps every increment finite)."""
    q = spec.cov.q[: spec.truncation]
    with np.errstate(over="ignore"):
        scale = np.sqrt(grid.h * q)
    if not np.all(np.isfinite(scale)):
        k = int(np.argmin(np.isfinite(scale)))
        raise NumericalFailure(f"sqrt(h q_k) overflows at mode {k}: h={grid.h:g}, q_k={q[k]:g}")
    out = np.empty((len(path_ids), spec.truncation, grid.N))
    if pool is None:
        _fill_normals(out, spec.seed, path_ids)
    else:
        cuts = [len(path_ids) * w // workers for w in range(workers + 1)]
        jobs = [(out[a:b], spec.seed, path_ids[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]
        list(pool.map(lambda job: _fill_normals(*job), jobs))
    out *= scale[:, None]
    return out


def sample_wiener_batch(spec, grid, path_ids, threads=1):
    """Increments for many paths as a (P, K, N) array.

    Path i is the stream of path_ids[i], written into its own slot; each of
    min(threads, os.cpu_count()) workers of a pool built for this call fills one
    contiguous range of slots, so the result is the same bit for bit for any thread
    count.  Ids and the positive thread count are Python or numpy integers (not bools);
    the ids are checked in bulk.
    """
    path_ids = list(path_ids)
    if not all(type(p) is int or isinstance(p, np.integer) for p in path_ids):
        raise ValueError("path ids must be Python or numpy integers")
    if path_ids and not 0 <= min(path_ids) <= max(path_ids) < 2**64:
        raise ValueError(
            f"path ids must lie in [0, 2**64), got {min(path_ids)} to {max(path_ids)}"
        )
    workers = _workers(threads, len(path_ids))
    with _pool(workers) as pool:
        return _increments(spec, grid, path_ids, pool, workers)


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------


class DiffusionProcess(ABC):
    """A deterministic operator-valued integrand for the Ito integral.

    Integrators evaluate it at the left endpoint of every grid cell, the
    discrete stand-in for predictability.
    """

    @abstractmethod
    def value(self, t):
        """Matrix value at time t."""

    @property
    @abstractmethod
    def shape(self):
        """(dim_H, dim_U) of the values."""

    def values_on_grid(self, grid):
        """(N, dim_H, dim_U) stack of left-endpoint values."""
        return np.array([self.value(t) for t in grid.nodes()[:-1]], dtype=float)

    def integrated_hs_norm_sq(self, grid, cov, modes=None):
        """Squared time-integrated Hilbert-Schmidt norm, sum_m h |value(t_m)|^2.

        `modes` restricts the covariance to its first K eigenvalues, matching
        a truncated simulation; it is an integer in [1, cov.dim].
        """
        q = cov.q if modes is None else cov.q[: _integer_in(modes, "modes", 1, cov.dim)]
        vals = self.values_on_grid(grid)[:, :, : q.size]
        return float(grid.h * np.sum(q * np.sum(vals * vals, axis=1)))


class ConstantDiffusion(DiffusionProcess):
    """Constant integrand."""

    def __init__(self, B):
        self.B = as_matrix(B)

    def value(self, t):
        return self.B

    @property
    def shape(self):
        return self.B.shape

    def values_on_grid(self, grid):
        return np.broadcast_to(self.B, (grid.N,) + self.B.shape)


class StepDiffusion(DiffusionProcess):
    """Piecewise-constant integrand switching at given breakpoints.

    The value on a cell is the one in force at the cell's left endpoint:
    breakpoint b_i starts the value v_i, which holds up to (and excluding)
    the next breakpoint.
    """

    def __init__(self, breakpoints, values):
        bp = _readonly([float(b) for b in breakpoints])
        if bp.size == 0 or bp[0] != 0.0 or not np.all(np.diff(bp) > 0):  # false for nan
            raise ValueError("breakpoints must start at 0 and increase strictly")
        mats = [as_matrix(v) for v in values]
        if len(mats) != bp.size:
            raise ValueError("need one value per breakpoint")
        if any(m.shape != mats[0].shape for m in mats):
            raise DimensionMismatch("step values", *(m.shape for m in mats))
        self.breakpoints = bp
        self.values = tuple(mats)

    def value(self, t):
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return self.values[max(i, 0)]

    @property
    def shape(self):
        return self.values[0].shape


class RuleDiffusion(DiffusionProcess):
    """Integrand given by an arbitrary deterministic evaluation rule."""

    def __init__(self, fn, shape):
        self.fn = fn
        rows, cols = shape
        self._shape = (_integer_in(rows, "rows", 1), _integer_in(cols, "columns", 1))

    def value(self, t):
        v = np.asarray(self.fn(t), dtype=float)
        if v.shape != self._shape:
            raise DimensionMismatch("rule value shape", v.shape, self._shape)
        return as_matrix(v)

    @property
    def shape(self):
        return self._shape


# ---------------------------------------------------------------------------
# elementary Ito integral
# ---------------------------------------------------------------------------


def _check_integrand(psi, d, cov, *grids):
    """psi (integrand or matrix) if the grids agree and its shape is (d, cov.dim); else raise."""
    if any(g != grids[0] for g in grids):
        raise GridMismatch(f"incompatible grids: {' vs '.join(map(str, grids))}")
    if tuple(psi.shape) != (d, cov.dim):
        raise DimensionMismatch("integrand vs (state, noise) dimensions", psi.shape, (d, cov.dim))
    return psi


def _left_point_products(vals, dw_batch):
    """(P, dim_H, N) products Psi(t_m) dW_m of a (P, K, N) batch of increments, one per run
    of equal grid values vals (`values_on_grid`, taken once per call or stream; K columns).
    Increments are finite (`WienerIncrements` and `_increments` refuse others), but a product
    past the float range is inf, unwarned: `convolution._convolve_paths` refuses such a path."""
    P, K, N = dw_batch.shape
    cuts = [0, *(np.flatnonzero(np.any(vals[1:] != vals[:-1], axis=(1, 2))) + 1), N]
    out = np.empty((P, vals.shape[1], N))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in zip(cuts, cuts[1:]):
            np.matmul(vals[lo, :, :K], dw_batch[:, :, lo:hi], out=out[:, :, lo:hi])
    return out


def stochastic_integral(psi, inc):
    """Left-point Ito sums of the integrand against the increments.

    Returns the (N+1, dim_H) running integral, zero at the origin.  The
    left-point evaluation keeps the sum adapted by construction, and the Ito
    isometry holds in expectation against the integrand's time-integrated
    Hilbert-Schmidt norm.
    """
    _check_integrand(psi, psi.shape[0], inc.spec.cov)
    out = np.zeros((inc.grid.N + 1, psi.shape[0]))
    out[1:] = np.cumsum(_left_point_products(psi.values_on_grid(inc.grid), inc.dW[None])[0].T, 0)
    return out
