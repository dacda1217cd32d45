"""Uniform time grids, the trapezoid rule and causal lag sum on them, and the resolvent solver.

`lag_convolve` is the one lag sum of known inputs; the array shapes alone pick its route
(`_STRIPS`).  A causal sum of many rows and few nodes takes BLAS products with strips of
the lags (`_toeplitz_strip`), about rows n_out^2 a b / 2 multiply-adds; any other sum, a
single path's too, one zero-padded FFT product, O(n log n) a row and column, whose error
scales with the norms of its inputs, not with each entry.  `march` solves the discrete
resolvent equation by recursive halving: `lag_convolve` for the far history, strip
products in zones of _ZONE nodes and one product with each leaf's precomputed inverse.
A leaf holds 4 to 16 nodes of d x d blocks and 32 of 1 x 1 blocks (`_leaf_nodes`): on
scalar channels each leaf's products are small and its Python steps dominate, so fewer,
larger leaves are faster, up to where the leaf's own products grow (64 nodes was slower).
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NumericalFailure
from .spaces import _integer_in

__all__ = ["TimeGrid"]

_TILE = 16  # input nodes per strip product
# strips for start 0, unbatched weights, >= _STRIPS[0] rows (batch times columns) and
# n_out (max(a, b) + 1) <= _STRIPS[1], else FFT: measured on blocks of 2^17 doubles
_STRIPS = (32, 1920)

_ZONE = 256  # nodes per block that `march` sums leaf by leaf; longer blocks halve by FFT
_LEAF_COND = 1e3  # above it a product with the leaf inverse loses cond * eps: substitute

OVERFLOW_LIMIT = 1e100  # largest |entry| a marched table may reach

SCHEMES = ("product", "conv")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T with step h = T/N."""

    T: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "N", _integer_in(self.N, "N", 1))
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T!r}")

    @property
    def h(self):
        return self.T / self.N

    def nodes(self):
        """All N+1 grid nodes as an array."""
        return np.linspace(0.0, self.T, self.N + 1)


def lag_convolve(k, x, out, start=0):
    """Add  sum_m k[..., start + i - m] @ x[..., m]  into out[..., i] for every i < n_out.

    k is (..., L, a, b) (scalar weights enter as 1x1 matrices), x (..., M, b, c) and out
    (..., n_out, a, c) with start + n_out <= L; x and out share their leading axes, which
    k has or lacks, so a batch of paths enters as x[..., None] and out[..., None].  The
    shapes alone pick the route (`_STRIPS`).  The strips read the first n_out nodes of x,
    _TILE a product; the FFT transforms all M on n >= max(L + M - 1 - start, start + n_out)
    points, the least power of two, so its circular product does not wrap.
    """
    L, a, b = k.shape[-3:]
    n_out, c, batch = out.shape[-3], out.shape[-1], out.shape[:-3]
    if (x.shape[:-3] != batch or k.shape[:-3] not in ((), batch) or x.shape[-2:] != (b, c)
            or out.shape[-2] != a or start + n_out > L):
        raise DimensionMismatch("lag weights, input and output", k.shape, x.shape, out.shape)
    M, rows, size = x.shape[-3], math.prod(batch) * c, n_out * (max(a, b) + 1)
    if start == 0 and k.ndim == 3 and rows >= _STRIPS[0] and 0 < size <= _STRIPS[1]:
        tile = min(_TILE, n_out)
        # row t b + j, column i a + l: entry (l, j) of k[i - t], the lags shifted by t nodes
        flat = np.ascontiguousarray(_toeplitz_strip(k, n_out, tile).swapaxes(-1, -2))
        src = np.ascontiguousarray(np.moveaxis(x[..., :n_out, :, :], -1, -3)).reshape(rows, -1)
        dst = np.moveaxis(out, -1, -3).reshape(rows, n_out * a)
        block = max(1, (1 << 16) // (n_out * a))  # rows whose out fits 0.5 MiB: a block in L2
        for p in range(0, rows, block):
            for m in range(0, min(M, n_out), tile):
                x_m = src[p : p + block, m * b : (m + tile) * b]
                dst[p : p + block, m * a :] += x_m @ flat[: x_m.shape[1], : (n_out - m) * a]
        if not np.may_share_memory(dst, out):
            np.moveaxis(out, -1, -3)[...] = dst.reshape(np.moveaxis(out, -1, -3).shape)
        return
    n = 1 << (max(L + M - 1 - start, start + n_out) - 1).bit_length()
    y = np.einsum("...fab,...fbc->...fac", np.fft.rfft(k, n, axis=-3), np.fft.rfft(x, n, axis=-3))
    out += np.fft.irfft(y, n, axis=-3)[..., start : start + n_out, :, :]


def march(W, scheme):
    """Solve S[n] = I + sum_{j<n} W[j] c[n-j] for the (N+1, *batch, d, d) table S, S[0] = I.

    W is (N, *batch, d, d); c[m] = theta S[m] + (1 - theta) S[m-1] is what cell m's
    weight multiplies (`cell_values`, theta = `implicit_share`).  `_solve` pushes cell
    values through W, as a per-step march does, and solves each leaf's nodes from the
    block Toeplitz system S[n] - sum_{m<=n} K[n-m] S[m] = known terms, K[j] = theta W[j]
    + (1 - theta) W[j-1].  A leaf block with condition number past _LEAF_COND is solved a
    node at a time instead; in a batch one such block sends every member node by node
    (`np.max`), moving the others at roundoff, and otherwise each member is bit for bit its
    own march.  Raises ValueError for a scheme not in SCHEMES, NumericalFailure for a
    singular step matrix I - theta W[0] or a node past OVERFLOW_LIMIT (naming the first).
    """
    implicit = implicit_share(scheme)
    W = np.moveaxis(np.asarray(W, dtype=float), 0, -3)  # (*batch, N, d, d)
    N, d = W.shape[-3], W.shape[-1]
    b = _leaf_nodes(N, d)
    K = implicit * W[..., :b, :, :]  # the leaf block's lags
    K[..., 1:, :, :] += (1.0 - implicit) * W[..., : b - 1, :, :]
    block = np.eye(b * d) - _toeplitz_strip(K, b, b)
    try:
        step_inv, leaf_inv = np.linalg.inv(np.eye(d) - K[..., 0, :, :]), np.linalg.inv(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular step matrix at step 1: {exc}") from exc
    with np.errstate(over="ignore"):  # np.linalg.cond(block, np.inf); inf past the float range
        cond = np.linalg.norm(block, np.inf, (-2, -1)) * np.linalg.norm(leaf_inv, np.inf, (-2, -1))
    if not np.max(cond) <= _LEAF_COND:
        leaf_inv = step_inv  # one node per leaf: forward substitution
    S = np.empty(W.shape[:-3] + (N + 1, d, d))
    S[...] = np.eye(d)  # S[0] and every right-hand side, solved in place
    _solve(W, S, leaf_inv, implicit, 1, _ZONE << ((N - 1) // _ZONE).bit_length())
    return np.moveaxis(S, -3, 0)


def _leaf_nodes(N, d):
    """Nodes per leaf of a d x d `march` on N cells: about 64 rows of the leaf block, from
    4 to 16 nodes, and 32 for 1 x 1 blocks (every `march_channels` call), so small problems
    take fewer, larger products.  Five fractional channels at N = 1024 took 4.3-4.7 ms on
    16-node leaves, 3.4-3.6 ms on 32 and 3.5-3.7 ms on 64 (medians of 25 calls in three
    rounds, 2 vCPUs, one OpenBLAS thread)."""
    return min(N, 32 if d == 1 else 16, max(4, 64 // d))


def _toeplitz_strip(K, rows, cols):
    """(*batch, rows a, cols b) block matrix whose block (j, t) is K[j - t] (zero for j < t)."""
    a, b = K.shape[-2:]
    pad = np.zeros(K.shape[:-3] + (cols - 1, a, b))
    # windows[..., j, :, :, w] is K[j + w - cols + 1]: lag j - t at w = cols - 1 - t
    windows = sliding_window_view(np.concatenate([pad, K[..., :rows, :, :]], axis=-3), cols, -3)
    return windows[..., ::-1].swapaxes(-1, -2).reshape(K.shape[:-3] + (rows * a, cols * b))


def _cells(rows, p, q, d, implicit):
    """Cell values c[p..q-1] of the node-major rows (d a node), as `cell_values` gives them."""
    c = rows[..., p * d : q * d, :]
    if implicit == 1.0:
        return c
    return implicit * c + (1.0 - implicit) * rows[..., (p - 1) * d : (q - 1) * d, :]


def _solve(W, S, leaf_inv, implicit, lo, size):
    """Solve nodes lo..lo+size-1 of S in place, their right-hand sides holding the terms
    of every cell before lo (Hairer, Lubich & Schlichte 1985).  A block past _ZONE nodes
    solves its first half, adds that half's cell values to the second by one FFT product
    and solves the second half; a zone goes leaf by leaf, one product with the leaf inverse
    and one pushing the leaf's cell values into the rest of the zone.  About N _ZONE d^3 / 2
    multiply-adds in zones; each halving level adds O(N log N d^2 + N d^3)."""
    N, d = W.shape[-3], W.shape[-1]
    hi = min(lo + size, N + 1)
    rows = S.reshape(S.shape[:-3] + ((N + 1) * d, d))  # node-major: a view
    if size > _ZONE:
        mid = lo + size // 2
        _solve(W, S, leaf_inv, implicit, lo, size // 2)
        if mid <= N:
            c = _cells(rows, lo, mid, d, implicit).reshape(S.shape[:-3] + (mid - lo, d, d))
            lag_convolve(W[..., 1 : hi - lo, :, :], c, S[..., mid:hi, :, :], mid - lo - 1)
            _solve(W, S, leaf_inv, implicit, mid, size // 2)
        return
    step = leaf_inv.shape[-1] // d
    strip = _toeplitz_strip(W, hi - lo, step)  # built per zone, so FFT products never meet it
    for p in range(lo, hi, step):
        q = min(p + step, hi)
        leaf = rows[..., p * d : q * d, :]
        if implicit < 1.0:  # the share of cell p on node p - 1
            leaf += (1.0 - implicit) * (strip[..., : leaf.shape[-2], :d] @ S[..., p - 1, :, :])
        leaf[...] = leaf_inv[..., : leaf.shape[-2], : leaf.shape[-2]] @ leaf
        _guard_overflow(p, S[..., p:q, :, :])
        if q < hi:
            push = strip[..., (q - p) * d : (hi - p) * d, :] @ _cells(rows, p, q, d, implicit)
            rows[..., q * d : hi * d, :] += push


def march_channels(w, mu, scheme):
    """(N+1, C) table of `march` on the 1x1 weights -mu[c] w (w is (N,), mu is (C,)).

    One batched `march` call, each channel bit for bit its own 1x1 march as `march` says
    of batches; raises as `march` does, and as `_check_steps` on the eigenvalues -mu.
    """
    _check_steps(w[0], -mu, scheme)
    return march(-np.multiply.outer(w, mu)[:, :, None, None], scheme)[:, :, 0, 0]


def _check_steps(w0, eigenvalues, scheme):
    """Raise NumericalFailure naming mu = -lam for a real lam in eigenvalues (any shape) with
    step coefficient 1 - implicit_share lam w0 <= 0, whose eigenvector carries a
    sign-alternating scalar channel; complex eigenvalues pass unchecked."""
    lam = np.ravel(eigenvalues)
    lam = lam.real[lam.imag == 0.0]
    denom = 1.0 - implicit_share(scheme) * w0 * lam
    if np.any(denom <= 0.0):
        i = int(np.argmax(denom <= 0.0))
        raise NumericalFailure(f"nonpositive diagonal coefficient {denom[i]} at mu={-lam[i]}")


def _guard_overflow(k, values):
    """Raise naming the first of the nodes k, k+1, ... (axis -3 of values) past OVERFLOW_LIMIT."""
    if not np.abs(values).max() <= OVERFLOW_LIMIT:  # also true for nan
        sup = np.abs(np.moveaxis(values, -3, 0)).reshape(values.shape[-3], -1).max(axis=1)
        i = int(np.argmin(sup <= OVERFLOW_LIMIT))
        raise NumericalFailure(f"overflow at step {k + i}: sup entry {sup[i]}")


def implicit_share(scheme):
    """Share of a cell's weight on its right endpoint: 1/2 (product) or 1 (conv)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return 0.5 if scheme == "product" else 1.0


def cell_values(values, scheme):
    """What each cell weight multiplies: right endpoints (conv) or endpoint averages."""
    return values[1:] if scheme == "conv" else 0.5 * (values[1:] + values[:-1])


def trapezoid(x, dx):
    """Running trapezoid integrals of x along axis 0, 0 at node 0; dx a step or cell widths.
    A cell adds dx (x[i+1] / 2 + x[i] / 2), which overflows only where the integral does."""
    out = np.zeros_like(x)
    out[1:] = np.cumsum(dx * (0.5 * x[1:] + 0.5 * x[:-1]), axis=0)
    return out


def trapezoid_weights(n, h):
    """The n + 1 node weights of `trapezoid`'s integral over n cells of step h."""
    w = np.full(n + 1, h)
    w[[0, -1]] *= 0.5
    return w
