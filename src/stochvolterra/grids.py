"""Uniform time grids, the causal lag sum evaluated on them, and the marcher.

Both history sums share one layout: the lag weights flattened to a (b, n a)
matrix whose column j a + i holds row i of w[j], so one matrix product applies
every lag to one node's value (or, stacked block-Toeplitz, to a tile of nodes).
`lag_convolve` pulls the history of known inputs through it; `march` pushes each
solved cell value through it into the histories of all later nodes.  Both sum a
node's history in ascending cell order (`lag_convolve` at tile 1 only); the
marcher spends N^2 d^3 / 2 multiply-adds in N BLAS products, `march_channels`
N^2 C / 2 on C scalar channels.  `lag_convolve` at tile=None takes all nodes by
FFT in O(N log N) a path, its error scaling with a path's norm, not each entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure

_LAG_BLOCK = 1 << 16  # doubles (0.5 MiB) in lag_convolve's product of one block of paths

OVERFLOW_LIMIT = 1e100  # largest |entry| a marched table may reach

SCHEMES = ("product", "conv")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T with step h = T/N."""

    T: float
    N: int

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T!r}")

    @property
    def h(self):
        return self.T / self.N

    def nodes(self):
        """All N+1 grid nodes as an array."""
        return np.linspace(0.0, self.T, self.N + 1)


def lag_convolve(w, x, out, tile=1):
    """Add the causal lag sum  sum_{m<=n} w[n-m] @ x[:, m]  into out[:, n] for every n.

    w is (L, a, b) (scalar weights enter as 1x1 matrices), x is (P, M, b) and
    out is (P, n_out, a) with n_out <= L; x may be shorter than out.  Each block
    of paths pushes `tile` input nodes per product, through a block-Toeplitz
    matrix whose block (t, j) is w[j-t]' for j >= t.  At tile 1 each out[:, n]
    gains its terms in ascending m, so identity weights reproduce np.cumsum bit
    for bit; a larger tile leaves the order within a tile to BLAS.  Cost: about
    P min(M, n_out) (n_out + tile) a b / 2 multiply-adds; temporaries hold about
    (1 + b / a) max(2**16, n_out a) doubles (0.5 MiB at 2**16) and that matrix.
    tile=None takes the whole product, path by path, by rfft/irfft of a power of
    two n >= n_out + M - 1: O(n log n a b) a path, a few (n, a b) complex arrays,
    and an error that scales with the norms of w and of the path, not each entry.
    """
    L, a, b = w.shape
    P, n_out, _ = out.shape
    if x.shape[0] != P or x.shape[2] != b or out.shape[2] != a or n_out > L:
        raise DimensionMismatch("lag weights, input and output", w.shape, x.shape, out.shape)
    M = min(n_out, x.shape[1])
    if tile is None:  # n >= n_out + M - 1, so the circular convolution does not wrap
        n = 1 << max(n_out + M - 2, 0).bit_length()
        w_hat = np.fft.rfft(w[:n_out], n, axis=0)
        for p in range(P if M else 0):
            x_hat = np.fft.rfft(x[p, :M], n, axis=0)
            out[p] += np.fft.irfft(np.einsum("fab,fb->fa", w_hat, x_hat), n, axis=0)[:n_out]
        return
    flat = _lag_columns(w, n_out)
    tile = max(1, min(tile, n_out))
    if tile > 1:  # rows t b to (t + 1) b: the lag columns shifted right by t nodes
        pad = [np.pad(flat[:, : (n_out - t) * a], ((0, 0), (t * a, 0))) for t in range(tile)]
        flat = np.concatenate(pad)
    block = max(1, _LAG_BLOCK // max(1, n_out * a))
    for p in range(0, P, block):
        dst = out[p : p + block]
        src = np.ascontiguousarray(x[p : p + block, :n_out]).reshape(len(dst), -1)
        for m in range(0, M, tile):
            _add_lagged(dst[:, m:], src[:, m * b : (m + tile) * b], flat)


def _lag_columns(w, n):
    """(b, n a) matrix whose column j a + i holds row i of w[j], for lags j < n."""
    L, a, b = w.shape
    return np.ascontiguousarray(w[:n].transpose(2, 0, 1)).reshape(b, n * a)


def _add_lagged(dst, x, flat):
    """dst[p, j] += x[p] @ flat[: len(x[p]), j a : (j + 1) a] for j < k = dst.shape[1]."""
    P, k, a = dst.shape
    dst += (x @ flat[: x.shape[1], : k * a]).reshape(P, k, a)


def march(W, scheme):
    """Solve S[n] = I + sum_{j<n} W[j] c[n-j] for the (N+1, d, d) table S, S[0] = I.

    c[m] is what cell m's weight multiplies (`cell_values`): the endpoint
    average of S under ``product``, the right endpoint S[m] under ``conv``; the
    lag-0 term holds the unknown, so each step is one product with the inverted
    step matrix I - W[0]/2 (or I - W[0]).  Once S[m] is known, c[m] goes through
    the lag columns of W[1:] into the history of every later node, one BLAS
    product of d x d by d x (N-m) d.  Raises ValueError for a scheme not in
    SCHEMES, NumericalFailure for a singular step matrix or an entry past
    OVERFLOW_LIMIT.
    """
    N, d, _ = W.shape
    eye = np.eye(d)
    S = np.empty((N + 1, d, d))
    S[0] = eye
    implicit = implicit_share(scheme)
    try:
        M_inv = np.linalg.inv(eye - implicit * W[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular step matrix at step 1: {exc}") from exc
    known = (1.0 - implicit) * W[0]  # product: the half of cell n's average at S[n-1]
    flat = _lag_columns(W[1:], N - 1)
    # history[c, n, r] is entry (r, c) of sum_{1<=j<n} W[j] c[n-j]: lag_convolve's layout
    history = np.zeros((d, N + 1, d))
    for k in range(1, N + 1):
        S[k] = M_inv @ (eye + known @ S[k - 1] + history[:, k].T)
        _guard_overflow(k, S[k])
        if k < N:
            _add_lagged(history[:, k + 1 :], cell_values(S[k - 1 : k + 1], scheme)[0].T, flat)
    return S


def march_channels(w, mu, scheme):
    """(N+1, C) table of `march` on the 1x1 weights -mu[c] w (w is (N,), mu is (C,)).

    Elementwise steps over the channels give each bit for bit; raises as `march` does,
    naming the mu of a nonpositive diagonal coefficient 1 + implicit_share mu w[0].
    """
    W = -np.multiply.outer(mu, w)  # (C, N): each channel's history is a contiguous row
    implicit = implicit_share(scheme)
    denom = 1.0 - implicit * W[:, 0]
    if np.any(denom <= 0.0):
        i = int(np.argmax(denom <= 0.0))
        raise NumericalFailure(f"nonpositive diagonal coefficient {denom[i]} at mu={mu[i]}")
    m_inv, known = 1.0 / denom, (1.0 - implicit) * W[:, 0]
    C, N = W.shape
    s, history = np.ones((C, N + 1)), np.zeros((C, N + 1))
    for k in range(1, N + 1):
        s[:, k] = m_inv * (1.0 + known * s[:, k - 1] + history[:, k])
        _guard_overflow(k, s[:, k])
        if k < N:
            c = cell_values(s[:, k - 1 : k + 1].T, scheme)[0]
            history[:, k + 1 :] += c[:, None] * W[:, 1 : N - k + 1]
    return s.T


def _guard_overflow(k, values):
    if not (sup := np.abs(values).max()) <= OVERFLOW_LIMIT:  # also true for nan
        raise NumericalFailure(f"overflow at step {k}: sup entry {sup}")


def implicit_share(scheme):
    """Share of a cell's weight on its right endpoint: 1/2 (product) or 1 (conv)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return 0.5 if scheme == "product" else 1.0


def cell_values(values, scheme):
    """What each cell weight multiplies: right endpoints (conv) or endpoint averages."""
    return values[1:] if scheme == "conv" else 0.5 * (values[1:] + values[:-1])
