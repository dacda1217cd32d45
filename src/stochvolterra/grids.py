"""Uniform time grids and the causal lag sum evaluated on them."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

_LAG_BLOCK = 1 << 16  # doubles in lag_convolve's product of one block of paths


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

    def refined(self, factor=2):
        """Same horizon with `factor` times as many cells."""
        return TimeGrid(self.T, self.N * factor)


def lag_convolve(w, x, out):
    """Add the causal lag sum  sum_{m<=n} w[n-m] @ x[:, m]  into out[:, n] for every n.

    w is (L, a, b) (scalar weights enter as 1x1 matrices), x is (P, M, b) and
    out is (P, n_out, a) with n_out <= L; x may be shorter than out.  Each
    out[:, n] gains its terms in ascending m, so identity weights reproduce
    np.cumsum bit for bit.  Cost: about P n_out min(M, n_out) a b / 2
    multiply-adds, one matrix product per input node and block of paths;
    temporaries hold about (1 + b / a) max(2**16, n_out a) doubles.
    """
    L, a, b = w.shape
    P, n_out, _ = out.shape
    if x.shape[0] != P or x.shape[2] != b or out.shape[2] != a or n_out > L:
        raise DimensionMismatch("lag weights, input and output", w.shape, x.shape, out.shape)
    # column j*a + i holds row i of w[j]: x[:, m] @ flat[:, :k*a] gives lags j < k at once
    flat = np.ascontiguousarray(w[:n_out].transpose(2, 0, 1)).reshape(b, n_out * a)
    block = max(1, _LAG_BLOCK // max(1, n_out * a))
    for p in range(0, P, block):
        dst = out[p : p + block]
        src = np.ascontiguousarray(x[p : p + block, :n_out])
        for m in range(src.shape[1]):
            k = n_out - m
            dst[:, m:] += (src[:, m] @ flat[:, : k * a]).reshape(-1, k, a)


def cell_values(values, scheme):
    """What each cell weight multiplies: right endpoints (conv) or endpoint averages."""
    return values[1:] if scheme == "conv" else 0.5 * (values[1:] + values[:-1])
