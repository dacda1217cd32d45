import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochvolterra import DimensionMismatch, ExponentialKernel, FractionalKernel, NumericalFailure
from stochvolterra import grids
from stochvolterra.grids import OVERFLOW_LIMIT, lag_convolve, march
from stochvolterra.grids import march_channels


def double_loop(k, x, out, start=0):
    """out[..., i, :, :] + sum_m k[..., start + i - m] @ x[..., m], one term at a time."""
    expected = out.copy()
    k = np.broadcast_to(k, out.shape[:-3] + k.shape[-3:])  # weights with or without the batch
    for idx in np.ndindex(out.shape[:-3]):
        for i in range(out.shape[-3]):
            for m in range(min(start + i + 1, x.shape[-3])):
                expected[idx + (i,)] += k[idx + (start + i - m,)] @ x[idx + (m,)]
    return expected


def with_route(route, fn):
    """Run fn with lag_convolve sent down one route: "strips" wherever the strips may
    take the sum (start 0, unbatched weights), "fft" everywhere."""
    saved = grids._STRIPS
    grids._STRIPS = {"strips": (0, math.inf), "fft": (math.inf, 0)}[route]
    try:
        fn()
    finally:
        grids._STRIPS = saved


def with_tile(tile, fn):
    """Run fn with the strips' tile set to `tile` input nodes a product."""
    saved = grids._TILE
    grids._TILE = tile
    try:
        fn()
    finally:
        grids._TILE = saved


# 2 and 3 leave ragged last tiles; 16 may exceed n_out
tiles = st.sampled_from([1, 2, 3, 16])
routes = st.sampled_from(["strips", "fft"])


@settings(max_examples=120, deadline=None)
@given(
    P=st.integers(1, 4),
    n_out=st.integers(0, 12),
    short=st.integers(-2, 4),
    extra_lags=st.integers(0, 3),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    c=st.integers(1, 2),
    scalar=st.booleans(),
    tile=tiles,
    route=routes,
    start=st.integers(0, 3),
    batched=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_matches_double_loop(
    P, n_out, short, extra_lags, a, b, c, scalar, tile, route, start, batched, seed
):
    # x shorter (or longer) than out and more lags than nodes on both routes; a start
    # past 0 and weights batched with the paths, which only the FFT takes, on the FFT
    if scalar:
        a = b = 1
    if route == "strips":
        start, batched = 0, False
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(P,) * batched + (start + n_out + extra_lags, a, b))
    x = rng.normal(size=(P, max(start + n_out - short, 0), b, c))
    out = rng.normal(size=(P, n_out, a, c))
    expected = double_loop(k, x, out, start)
    with_route(route, lambda: with_tile(tile, lambda: lag_convolve(k, x, out, start)))
    # at most 15 * 3 products of unit normals per entry: a few hundred eps
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("n_out, M, L", [(1, 1, 1), (2, 1, 4), (50, 50, 50), (64, 37, 70)])
def test_lag_convolve_fft_matches_tile_one(a, b, n_out, M, L):
    # general (non-symmetric, non-square) weights, x shorter than out, extra lags
    rng = np.random.default_rng(a * 1000 + b * 100 + n_out)
    k, x = rng.normal(size=(L, a, b)), rng.normal(size=(3, M, b, 1))
    direct, fft = np.zeros((3, n_out, a, 1)), np.zeros((3, n_out, a, 1))
    with_route("strips", lambda: with_tile(1, lambda: lag_convolve(k, x, direct)))
    with_route("fft", lambda: lag_convolve(k, x, fft))
    np.testing.assert_allclose(fft, direct, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    P=st.integers(1, 5),
    n_out=st.integers(1, 20),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    tile=tiles,
    route=routes,
    short=st.integers(0, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_lag_convolve_zero_input_gives_exact_zeros(P, n_out, a, b, tile, route, short, seed):
    k = np.random.default_rng(seed).normal(size=(n_out, a, b))
    out = np.zeros((P, n_out, a, 1))
    x = np.zeros((P, max(n_out - short, 0), b, 1))
    with_route(route, lambda: with_tile(tile, lambda: lag_convolve(k, x, out)))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_lag_convolve_routes_agree_at_the_crossover(d, monkeypatch):
    # the fewest rows the strips take, and more rows than one 0.5 MiB product holds, at
    # the most nodes the strips take and one node on either side: the shapes alone pick
    # the route, and both routes agree
    fewest, size = grids._STRIPS
    taken, strip = [], grids._toeplitz_strip  # built by the strips route alone
    monkeypatch.setattr(grids, "_toeplitz_strip", lambda *args: taken.append(1) or strip(*args))
    crossover = size // (d + 1)
    for rows in (fewest, 3 * fewest + 1):
        for n_out in (crossover - 1, crossover, crossover + 1):
            rng = np.random.default_rng(n_out)
            k = rng.normal(size=(n_out, d, d)) / np.sqrt(n_out * d)  # O(1) sums
            x = rng.normal(size=(rows, n_out, d, 1))
            by_shape, fft = np.zeros((rows, n_out, d, 1)), np.zeros((rows, n_out, d, 1))
            taken.clear()
            lag_convolve(k, x, by_shape)
            assert taken == ([1] if n_out <= crossover else [])
            with_route("fft", lambda: lag_convolve(k, x, fft))
            np.testing.assert_allclose(by_shape, fft, rtol=0, atol=1e-12)


def test_lag_convolve_rejects_too_few_lags():
    x, out = np.ones((2, 4, 1, 1)), np.zeros((2, 4, 1, 1))
    with pytest.raises(DimensionMismatch):
        lag_convolve(np.ones((3, 1, 1)), x, out)
    with pytest.raises(DimensionMismatch):  # start + n_out > L
        lag_convolve(np.ones((4, 1, 1)), x, out, 1)


def test_lag_convolve_rejects_shapes_that_disagree():
    x, out = np.ones((2, 4, 1, 1)), np.zeros((2, 4, 1, 1))
    with pytest.raises(DimensionMismatch):  # x's batch is not out's
        lag_convolve(np.ones((4, 1, 1)), np.ones((3, 4, 1, 1)), out)
    with pytest.raises(DimensionMismatch):  # columns of x and out disagree
        lag_convolve(np.ones((4, 1, 1)), x, np.zeros((2, 4, 1, 2)))


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


L1 = grids._leaf_nodes(1 << 20, 1)  # a 1 x 1 march's leaf: 32 nodes


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("N", [L1, L1 + 1, 2 * L1 + 1])
def test_scalar_march_matches_the_per_step_marchers_at_leaf_edges(scheme, N):
    # one full leaf, a leaf and one node, two leaves and one node
    rng = np.random.default_rng(N)
    W = rng.normal(size=(N, 1, 1)) * (2.0 / N)
    expected = einsum_march(W, scheme)
    assert np.max(np.abs(march(W, scheme) - expected)) <= 1e-12 * np.max(np.abs(expected))
    w, mus = rng.uniform(0.0, 1.0 / N, size=N), np.array([-1.5, 0.0, 3.0, 10.0])
    got = march_channels(w, mus, scheme)
    for c, mu in enumerate(mus):
        expected = dot_march_scalar(w, mu, scheme)
        assert np.max(np.abs(got[:, c] - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    # scheme is past _LEAF_COND (a node at a time), at N = 2048 both go leaf by leaf: 16
    # nodes for the 2 x 2 march, 32 for the channels (condition numbers up to 300)
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


# --- the trapezoid rule ----------------------------------------------------------------

NORMAL = st.floats(-1e290, 1e290).filter(lambda v: v == 0.0 or abs(v) >= 1e-290)


@settings(max_examples=200, deadline=None)
@given(st.lists(NORMAL, min_size=2, max_size=8), st.sampled_from([1e-3, 0.1, 0.3, 1.0, 7.0]))
def test_trapezoid_has_the_bits_of_the_add_then_halve_form(values, h):
    # halving before the sum only differs where a value or half a sum is subnormal
    x = np.array(values)
    old = np.concatenate([[0.0], np.cumsum(0.5 * h * (x[1:] + x[:-1]))])
    np.testing.assert_array_equal(grids.trapezoid(x, h), old)
    widths = np.full(x.size - 1, h)
    np.testing.assert_array_equal(grids.trapezoid(x, widths), old)


def test_trapezoid_weights_give_the_last_running_integral():
    x = np.random.default_rng(3).standard_normal((9, 2, 3))
    for n in (1, 2, 8):
        w = grids.trapezoid_weights(n, 0.25)
        assert w.shape == (n + 1,) and w[0] == w[-1] == 0.125 and np.all(w[1:-1] == 0.25)
        want = grids.trapezoid(x[: n + 1], 0.25)[-1]
        np.testing.assert_allclose(np.tensordot(w, x[: n + 1], 1), want, rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_trapezoid_overflows_only_past_the_float_range():
    x = np.full((3, 2), 1e308)
    want = [[0.0, 0.0], [5e307, 5e307], [1e308, 1e308]]
    np.testing.assert_array_equal(grids.trapezoid(x, 0.5), want)
    np.testing.assert_array_equal(grids.trapezoid(x[:, 0], [0.25, 1.5]), [0.0, 2.5e307, 1.75e308])
