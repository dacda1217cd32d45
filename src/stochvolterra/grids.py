"""Uniform time grids, the causal lag sum evaluated on them, and the resolvent solver.

Both share one block-Toeplitz strip of the lag weights (`_toeplitz_strip`), so a
product with it applies every lag to a tile of nodes.  `lag_convolve` adds the lag
sum of known inputs, _TILE nodes per BLAS product for a batch of paths and one node
(ascending order) for a single path; `_add_lag_sum_fft` adds it whole by FFT.  `march`
solves the discrete resolvent equation by recursive halving, pushing cell values through
the lag weights: FFT products for the far history, strip products inside zones of
_ZONE nodes and one product with a precomputed inverse per leaf of `_leaf_nodes` nodes.
An FFT product's error scales with its block's norm, not with each entry.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NumericalFailure
from .spaces import _integer_in

__all__ = ["TimeGrid"]

_LAG_BLOCK = 1 << 16  # doubles (0.5 MiB) in lag_convolve's product of one block of paths
_TILE = 16  # input nodes per lag_convolve product on a batch of paths (a single path: 1)

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


def lag_convolve(w, x, out):
    """Add the causal lag sum  sum_{m<=n} w[n-m] @ x[:, m]  into out[:, n] for every n.

    w is (L, a, b) (scalar weights enter as 1x1 matrices), x is (P, M, b) and
    out is (P, n_out, a) with n_out <= L; x may be shorter than out.  Each block of paths
    pushes `tile` input nodes per product through the transposed strip: _TILE for a batch,
    1 for a single path, whose out[0, n] then gains its terms in ascending m, so identity
    weights reproduce np.cumsum bit for bit.  Cost: about P min(M, n_out) (n_out + tile)
    a b / 2 multiply-adds; temporaries hold about (1 + b / a) max(2**16, n_out a)
    doubles and the strip.  `_add_lag_sum_fft` takes the whole sum by FFT instead.
    """
    L, a, b = w.shape
    P, n_out, _ = out.shape
    if x.shape[0] != P or x.shape[2] != b or out.shape[2] != a or n_out > L:
        raise DimensionMismatch("lag weights, input and output", w.shape, x.shape, out.shape)
    M = min(n_out, x.shape[1])
    if not M:
        return
    tile = min(1 if P == 1 else _TILE, n_out)
    # row t b + k, column j a + i: entry (i, k) of w[j - t], the lag columns shifted by t nodes
    flat = np.ascontiguousarray(_toeplitz_strip(w, n_out, tile).swapaxes(-1, -2))
    block = max(1, _LAG_BLOCK // max(1, n_out * a))
    for p in range(0, P, block):
        dst = out[p : p + block]
        src = np.ascontiguousarray(x[p : p + block, :n_out]).reshape(len(dst), -1)
        for m in range(0, M, tile):
            x_m = src[:, m * b : (m + tile) * b]
            dst[:, m:] += (x_m @ flat[: x_m.shape[1], : (n_out - m) * a]).reshape(len(dst), -1, a)


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
    4 to 16 nodes (16 for channels), so small problems take fewer, larger products."""
    return min(N, 16, max(4, 64 // d))


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
            _add_lag_sum_fft(W[..., 1 : hi - lo, :, :], c, S[..., mid:hi, :, :], mid - lo - 1)
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


def _add_lag_sum_fft(k, x, out, start):
    """out[..., i, :, c] += sum_m k[start + i - m] @ x[..., m, :, c] for every i < len(out)
    and column c, the lags running over k, by zero-padded rfft/irfft.

    A transform of length n >= max(len(k) + len(x) - 1 - start, start + len(out)), the
    least power of two, does not wrap; taking one column of x at a time keeps the
    temporaries at about one transform of k.  The error scales with the norms of k and
    of the column, not with each entry.
    """
    n = 1 << (max(k.shape[-3] + x.shape[-3] - 1 - start, start + out.shape[-3]) - 1).bit_length()
    k_hat = np.fft.rfft(k, n, axis=-3)
    for c in range(x.shape[-1]):
        x_hat = np.fft.rfft(x[..., c], n, axis=-2)
        y = np.fft.irfft(np.einsum("...fab,...fb->...fa", k_hat, x_hat), n, axis=-2)
        out[..., c] += y[..., start : start + out.shape[-3], :]


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
