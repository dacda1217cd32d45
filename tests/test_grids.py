import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochvolterra import DimensionMismatch
from stochvolterra import grids
from stochvolterra.grids import lag_convolve


def double_loop(w, x, out):
    """out[:, n] + sum_{m <= n, m < M} w[n-m] @ x[:, m], one term at a time."""
    expected = out.copy()
    for p in range(out.shape[0]):
        for n in range(out.shape[1]):
            for m in range(min(n + 1, x.shape[1])):
                expected[p, n] += w[n - m] @ x[p, m]
    return expected


def with_block(block, fn):
    """Run fn with lag_convolve's path block budget set to `block` doubles."""
    saved = grids._LAG_BLOCK
    grids._LAG_BLOCK = block
    try:
        fn()
    finally:
        grids._LAG_BLOCK = saved


blocks = st.sampled_from([1, 7, 1 << 16])


@settings(max_examples=80, deadline=None)
@given(
    P=st.integers(1, 6),
    n_out=st.integers(0, 12),
    short=st.integers(0, 4),
    extra_lags=st.integers(0, 3),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    scalar=st.booleans(),
    block=blocks,
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_matches_double_loop(P, n_out, short, extra_lags, a, b, scalar, block, seed):
    if scalar:
        a = b = 1
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_out + extra_lags, a, b))
    x = rng.normal(size=(P, max(n_out - short, 0), b))
    out = rng.normal(size=(P, n_out, a))
    expected = double_loop(w, x, out)
    with_block(block, lambda: lag_convolve(w, x, out))
    # at most 12 * 3 products of unit normals per entry: a few hundred eps
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(1, 5),
    n_out=st.integers(1, 20),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    block=blocks,
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_zero_input_gives_exact_zeros(P, n_out, a, b, block, seed):
    w = np.random.default_rng(seed).normal(size=(n_out, a, b))
    out = np.zeros((P, n_out, a))
    with_block(block, lambda: lag_convolve(w, np.zeros((P, n_out, b)), out))
    assert np.all(out == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(1, 5),
    n_out=st.integers(1, 40),
    d=st.integers(1, 4),
    block=blocks,
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_identity_weights_reproduce_cumsum_bit_for_bit(P, n_out, d, block, seed):
    x = np.random.default_rng(seed).normal(size=(P, n_out, d))
    w = np.broadcast_to(np.eye(d), (n_out, d, d))
    out = np.zeros((P, n_out, d))
    with_block(block, lambda: lag_convolve(w, x, out))
    np.testing.assert_array_equal(out, np.cumsum(x, axis=1))


def test_lag_convolve_rejects_too_few_lags():
    with pytest.raises(DimensionMismatch):
        lag_convolve(np.ones((3, 1, 1)), np.ones((2, 4, 1)), np.zeros((2, 4, 1)))
