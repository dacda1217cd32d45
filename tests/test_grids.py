import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochvolterra import DimensionMismatch, ExponentialKernel, FractionalKernel, NumericalFailure
from stochvolterra import grids
from stochvolterra.grids import OVERFLOW_LIMIT, _add_lag_sum_fft, lag_convolve, march
from stochvolterra.grids import march_channels


def double_loop(w, x, out):
    """out[:, n] + sum_{m <= n, m < M} w[n-m] @ x[:, m], one term at a time."""
    expected = out.copy()
    for p in range(out.shape[0]):
        for n in range(out.shape[1]):
            for m in range(min(n + 1, x.shape[1])):
                expected[p, n] += w[n - m] @ x[p, m]
    return expected


def lag_sum(w, x, out, tile):
    """lag_convolve with a batch tile of `tile` nodes, or at tile None the whole sum by
    `_add_lag_sum_fft`, each path a column of the node-first layout."""
    M = min(out.shape[1], x.shape[1])
    if tile is not None:
        with_tile(tile, lambda: lag_convolve(w, x, out))
    elif M:
        _add_lag_sum_fft(w[: out.shape[1]], x[:, :M].transpose(1, 2, 0), out.transpose(1, 2, 0), 0)


def with_block(block, fn):
    """Run fn with lag_convolve's path block budget set to `block` doubles."""
    saved = grids._LAG_BLOCK
    grids._LAG_BLOCK = block
    try:
        fn()
    finally:
        grids._LAG_BLOCK = saved


def with_tile(tile, fn):
    """Run fn with lag_convolve's batch tile set to `tile` input nodes a product."""
    saved = grids._TILE
    grids._TILE = tile
    try:
        fn()
    finally:
        grids._TILE = saved


blocks = st.sampled_from([1, 7, 1 << 16])
# 2 and 3 leave ragged last tiles; 16 may exceed n_out; None is the whole product by FFT
tiles = st.sampled_from([1, 2, 3, 16, None])


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
    tile=tiles,
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_matches_double_loop(
    P, n_out, short, extra_lags, a, b, scalar, block, tile, seed
):
    if scalar:
        a = b = 1
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_out + extra_lags, a, b))
    x = rng.normal(size=(P, max(n_out - short, 0), b))
    out = rng.normal(size=(P, n_out, a))
    expected = double_loop(w, x, out)
    with_block(block, lambda: lag_sum(w, x, out, tile))
    # at most 12 * 3 products of unit normals per entry: a few hundred eps
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n_out, M, L", [(1, 1, 1), (2, 1, 4), (50, 50, 50), (64, 37, 70)])
def test_lag_convolve_fft_matches_tile_one(a, b, n_out, M, L):
    # general (non-symmetric, non-square) weights, x shorter than out, extra lags
    rng = np.random.default_rng(a * 1000 + b * 100 + n_out)
    w, x = rng.normal(size=(L, a, b)), rng.normal(size=(3, M, b))
    direct, fft = np.zeros((3, n_out, a)), np.zeros((3, n_out, a))
    with_tile(1, lambda: lag_convolve(w, x, direct))
    _add_lag_sum_fft(w, x.transpose(1, 2, 0), fft.transpose(1, 2, 0), 0)  # each path a column
    np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(1, 5),
    n_out=st.integers(1, 20),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    block=blocks,
    tile=tiles,
    short=st.integers(0, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_zero_input_gives_exact_zeros(P, n_out, a, b, block, tile, short, seed):
    w = np.random.default_rng(seed).normal(size=(n_out, a, b))
    out = np.zeros((P, n_out, a))
    x = np.zeros((P, max(n_out - short, 0), b))
    with_block(block, lambda: lag_sum(w, x, out, tile))
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
    with_block(block, lambda: with_tile(1, lambda: lag_convolve(w, x, out)))
    np.testing.assert_array_equal(out, np.cumsum(x, axis=1))
    # a single path takes one node a product at the default tile: the order callers rely on
    single = np.zeros((1, n_out, d))
    with_block(block, lambda: lag_convolve(w, x[:1], single))
    np.testing.assert_array_equal(single, np.cumsum(x[:1], axis=1))


def test_lag_convolve_rejects_too_few_lags():
    with pytest.raises(DimensionMismatch):
        lag_convolve(np.ones((3, 1, 1)), np.ones((2, 4, 1)), np.zeros((2, 4, 1)))


# --- the marcher -------------------------------------------------------------


def einsum_march(W, scheme):
    """The per-step marcher: each node's whole history summed by one einsum."""
    n_cells, d = W.shape[0], W.shape[1]
    eye = np.eye(d)
    S = np.empty((n_cells + 1, d, d))
    S[0] = eye
    M_inv = np.linalg.inv(eye - (0.5 * W[0] if scheme == "product" else W[0]))
    for k in range(1, n_cells + 1):
        if scheme == "product":
            rhs = eye + 0.5 * (W[0] @ S[k - 1])
            if k > 1:
                avg = 0.5 * (S[k - 1 : 0 : -1] + S[k - 2 :: -1])
                rhs = rhs + np.einsum("jab,jbc->ac", W[1:k], avg)
        else:
            rhs = eye.copy()
            if k > 1:
                rhs = rhs + np.einsum("jab,jbc->ac", W[1:k], S[k - 1 : 0 : -1])
        S[k] = M_inv @ rhs
    return S


def dot_march_scalar(w, mu, scheme):
    """The scalar marcher: s + mu (w * s) = 1 with one np.dot per step."""
    s = np.empty(w.size + 1)
    s[0] = 1.0
    for n in range(1, w.size + 1):
        if scheme == "product":
            acc = 0.5 * w[0] * s[n - 1]
            if n > 1:
                acc += np.dot(w[1:n], 0.5 * (s[n - 1 : 0 : -1] + s[n - 2 :: -1]))
            s[n] = (1.0 - mu * acc) / (1.0 + 0.5 * mu * w[0])
        else:
            acc = np.dot(w[1:n], s[n - 1 : 0 : -1]) if n > 1 else 0.0
            s[n] = (1.0 - mu * acc) / (1.0 + mu * w[0])
    return s


schemes = st.sampled_from(["product", "conv"])


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(2, 40),
    scheme=schemes,
    scale=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_march_matches_einsum_march(d, N, scheme, scale, seed):
    # random, generally non-commuting weights with O(1) total mass
    W = np.random.default_rng(seed).normal(size=(N, d, d)) * (scale / N)
    expected = einsum_march(W, scheme)
    got = march(W, scheme)
    np.testing.assert_array_equal(got[0], np.eye(d))
    # histories of at most 40 terms summed in another order: a few hundred eps
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(2, 40),
    scheme=schemes,
    mu=st.floats(-1.5, 10.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_march_scalar_matches_dot_march(N, scheme, mu, seed):
    # w0 <= 1/2 keeps the diagonal coefficient 1 + mu w0 at least 1/4
    w = np.random.default_rng(seed).uniform(0.0, 1.0 / N, size=N)
    expected = dot_march_scalar(w, mu, scheme)
    got = march_channels(w, np.array([mu]), scheme)[:, 0]
    assert got[0] == 1.0
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(2, 40),
    scheme=schemes,
    mus=st.lists(st.sampled_from([0.0, -1.5]) | st.floats(-1.5, 10.0), min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1),
)
def test_march_channels_match_single_channels_bit_for_bit(N, scheme, mus, seed):
    # w0 <= 1/2 keeps every diagonal coefficient 1 + mu w0 at least 1/4
    w = np.random.default_rng(seed).uniform(0.0, 1.0 / N, size=N)
    got = march_channels(w, np.array(mus), scheme)
    assert got.shape == (N + 1, len(mus))
    for c, mu in enumerate(mus):
        np.testing.assert_array_equal(got[:, c], march_channels(w, np.array([mu]), scheme)[:, 0])
        np.testing.assert_array_equal(got[:, c], march(-mu * w[:, None, None], scheme)[:, 0, 0])


def test_march_channels_name_the_mu_of_a_nonpositive_diagonal():
    with pytest.raises(NumericalFailure, match=r"nonpositive diagonal .* mu=-8\.5"):
        march_channels(np.full(4, 0.25), np.array([1.0, -8.5, 2.0]), "product")


@pytest.mark.parametrize("scheme, first", [("product", 2.0), ("conv", 1.0)])
def test_march_refuses_singular_step_matrix(scheme, first):
    W = np.zeros((4, 2, 2))
    W[0] = first * np.eye(2)
    with pytest.raises(NumericalFailure, match="singular step matrix"):
        march(W, scheme)


def node_sup(S):
    return np.abs(S).reshape(S.shape[0], -1).max(axis=1)


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("T, N", [(1.0, 512), (4.0, 1024)])
def test_march_follows_growing_tables_node_by_node(scheme, T, N):
    # S grows to 1e11 (T=1) and 1e43 to 1e48 (T=4) with no tilt: each node within 1e-13 of
    # its own size (measured at most 5e-15 at T=1, 6e-14 at T=4, where the per-step
    # marchers already differ by 6e-14 between themselves)
    W = FractionalKernel(0.5).cell_moments(T / N, N)[:, None, None] * np.diag(np.arange(1.0, 6.0))
    expected = einsum_march(W, scheme)
    got = march(W, scheme)
    assert np.max(node_sup(got - expected) / node_sup(expected)) <= 1e-13
    assert node_sup(expected)[-1] > 1e10


L, Z = grids._leaf_nodes(1 << 20, 2), grids._ZONE  # a 2 x 2 march's leaf: 16 nodes


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("N", [3, 8, 9, 19, L, L + 1, 2 * L + 3, Z, Z + 1, 2 * Z + 5])
def test_march_matches_einsum_march_at_leaf_and_zone_edges(scheme, N):
    W = np.random.default_rng(N).normal(size=(N, 2, 2)) * (2.0 / N)
    expected = einsum_march(W, scheme)
    got = march(W, scheme)
    np.testing.assert_array_equal(got[0], np.eye(2))
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_march_substitutes_on_an_ill_conditioned_leaf_block():
    # S grows 1e10-fold in three steps; a product with this leaf block's inverse was
    # 2e-11 max|S| off, so the march takes the block a node at a time
    W = np.random.default_rng(3).normal(size=(3, 3, 3)) * (2.75 / 3)
    K = 0.5 * W + 0.5 * np.pad(W, ((1, 0), (0, 0), (0, 0)))[:3]
    block = np.eye(9) - grids._toeplitz_strip(K, 3, 3)
    assert np.linalg.cond(block, np.inf) > grids._LEAF_COND
    expected = einsum_march(W, "product")
    assert np.max(np.abs(march(W, "product") - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("N", [40, Z + 37])
def test_batched_march_matches_separate_marches_bit_for_bit(scheme, N):
    # an (N, 3, 2, 2) stack marched at once: leaf products, zone strips and, past one
    # zone, FFT halving all act member by member
    W = np.random.default_rng(N).normal(size=(N, 3, 2, 2)) * (2.0 / N)
    got = march(W, scheme)
    assert got.shape == (N + 1, 3, 2, 2)
    for i in range(3):
        np.testing.assert_array_equal(got[:, i], march(W[:, i], scheme))


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_one_ill_conditioned_leaf_block_sends_the_whole_batch_node_by_node(monkeypatch, scheme):
    # member 0's step matrix I - theta W[0] is 1e-3 from singular, so its leaf block is past
    # _LEAF_COND; member 1's is not: the batch takes both a node at a time, within
    # roundoff of their own marches
    W = np.random.default_rng(3).normal(size=(3, 2, 3, 3)) * 0.1
    W[0, 0] += 0.999 / grids.implicit_share(scheme) * np.eye(3)
    got = march(W, scheme)
    own = [march(W[:, i], scheme) for i in range(2)]
    monkeypatch.setattr(grids, "_LEAF_COND", 0.0)  # every leaf block a node at a time
    for i in range(2):
        np.testing.assert_array_equal(got[:, i], march(W[:, i], scheme))
        assert np.max(np.abs(got[:, i] - own[i])) <= 1e-12 * np.max(np.abs(own[i]))


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("ill", [False, True], ids=["well-conditioned", "ill-conditioned"])
def test_march_takes_the_leaf_route_cond_gives_without_calling_it(monkeypatch, scheme, ill):
    # the leaf block's condition number comes from the inverse march already holds: the
    # route np.linalg.cond(block, np.inf) picks, with cond itself never called
    W = np.random.default_rng(3).normal(size=(40, 2, 3, 3)) * 0.1
    if ill:  # member 0's step matrix is 1e-3 from singular
        W[0, 0] += 0.999 / grids.implicit_share(scheme) * np.eye(3)
    theta, b = grids.implicit_share(scheme), grids._leaf_nodes(40, 3)
    K = theta * W[:b] + (1.0 - theta) * np.pad(W, ((1, 0), (0, 0), (0, 0), (0, 0)))[:b]
    block = np.eye(b * 3) - grids._toeplitz_strip(np.moveaxis(K, 0, -3), b, b)
    assert (np.max(np.linalg.cond(block, np.inf)) > grids._LEAF_COND) == ill

    def refuse(*args, **kwargs):
        raise AssertionError("march called np.linalg.cond")

    monkeypatch.setattr(np.linalg, "cond", refuse)
    got = march(W, scheme)
    monkeypatch.setattr(grids, "_LEAF_COND", 0.0 if ill else np.inf)  # force that route
    np.testing.assert_array_equal(got, march(W, scheme))


def test_a_leaf_condition_number_past_the_float_range_is_refused_unwarned():
    # ||block||_inf = 4.7e19 and ||block^-1||_inf = 3.2e293 are finite but their product is
    # not: as with np.linalg.cond's inf, the leaves go node by node, and the guard raises
    W = np.full((16, 1, 1), 3.1622776601683794e18)
    W[0] = 0.9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflow at step 7"):
            march(W, "conv")


def test_march_keeps_stiff_product_tables_accurate():
    # lambda h = 1667: S alternates in sign, so pushing S through K = (W[j] + W[j-1]) / 2
    # cancels to 6e-12; cell averages through W read 1e-14 to 2e-14
    N, lam = 600, 1e6
    w = ExponentialKernel().cell_moments(1.0 / N, N)
    expected = dot_march_scalar(w, lam, "product")
    assert np.max(np.abs(march_channels(w, np.array([lam]), "product")[:, 0] - expected)) <= 1e-12
    W = -lam * w[:, None, None] * np.diag([1.0, 0.5])
    assert np.max(np.abs(march(W, "product") - einsum_march(W, "product"))) <= 1e-12


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_march_channels_match_single_channels_bit_for_bit_past_a_zone(scheme):
    w = FractionalKernel(0.5).cell_moments(1.0 / 600, 600)
    mus = np.array([0.0, 2.0, -1.5, 7.0])
    got = march_channels(w, mus, scheme)
    for c, mu in enumerate(mus):
        np.testing.assert_array_equal(got[:, c], march(-mu * w[:, None, None], scheme)[:, 0, 0])


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("N", [512, 2048])
def test_overflow_names_the_oracles_first_node_past_the_limit(scheme, N):
    # s' = 5 s over t = 50 passes 1e100 near t = 46; at N = 512 the leaf block of either
    # scheme is past _LEAF_COND (a node at a time), at N = 2048 both go sixteen nodes per leaf
    w = np.full(N, 5.0 * 50.0 / N)
    W = w[:, None, None] * np.diag([1.0, -1.0])
    first = int(np.argmax(node_sup(einsum_march(W, scheme)) > OVERFLOW_LIMIT))
    assert 0 < first < N
    with pytest.raises(NumericalFailure, match=f"overflow at step {first}:"):
        march(W, scheme)
    first = int(np.argmax(np.abs(dot_march_scalar(w, -1.0, scheme)) > OVERFLOW_LIMIT))
    with pytest.raises(NumericalFailure, match=f"overflow at step {first}:"):
        march_channels(w, np.array([0.5, -1.0]), scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_march_refuses_a_singular_step_matrix_with_a_history(scheme):
    # I - theta W[0] = diag(0, 1), the other lags random: the leaf block is singular too
    W = np.random.default_rng(5).normal(size=(20, 2, 2))
    W[0] = np.diag([1.0 / grids.implicit_share(scheme), 0.0])
    with pytest.raises(NumericalFailure, match="singular step matrix"):
        march(W, scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_march_refuses_overflow(scheme):
    # s' = 5 s over t = 50: e^250 passes the overflow limit
    w = np.full(512, 5.0 * 50.0 / 512)
    with pytest.raises(NumericalFailure, match="overflow"):
        march(w[:, None, None], scheme)
    with pytest.raises(NumericalFailure, match="overflow"):
        march_channels(w, np.array([0.5, -1.0]), scheme)
    with pytest.raises(NumericalFailure, match="overflow"):
        march_channels(w, np.array([-1.0]), scheme)


def test_march_rejects_unknown_scheme():
    # one owner of the scheme names: march, and every caller through it
    W = np.full((4, 1, 1), -0.25)
    for scheme in ("simpson", "Product", None):
        with pytest.raises(ValueError, match="unknown scheme"):
            march(W, scheme)
    with pytest.raises(ValueError, match="unknown scheme"):
        march_channels(W[:, 0, 0], np.array([1.0]), "simpson")
    assert grids.SCHEMES == ("product", "conv")
