import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochvolterra import (
    ConstantDiffusion,
    CovOperator,
    DimensionMismatch,
    NoiseSpec,
    RuleDiffusion,
    StepDiffusion,
    TimeGrid,
    hs_norm,
    sample_wiener,
    sample_wiener_batch,
    stochastic_integral,
)
from stochvolterra import noise


def spec_with(q, seed=42, truncation=None):
    cov = CovOperator(np.asarray(q, dtype=float))
    return NoiseSpec(cov=cov, truncation=truncation or cov.dim, seed=seed)


# --- sampling ----------------------------------------------------------------


def test_determinism_contract():
    grid = TimeGrid(1.0, 64)
    spec = spec_with([1.0, 2.0], seed=42)
    a = sample_wiener(spec, grid, path_id=7)
    b = sample_wiener(spec, grid, path_id=7)
    np.testing.assert_array_equal(a.dW, b.dW)
    c = sample_wiener(spec, grid, path_id=8)
    assert not np.array_equal(a.dW, c.dW)


def test_batch_matches_single_paths_any_thread_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # four workers on any machine
    grid = TimeGrid(1.0, 32)
    spec = spec_with([1.0, 0.5, 2.0], seed=9)
    batch1 = sample_wiener_batch(spec, grid, range(20), threads=1)
    batch4 = sample_wiener_batch(spec, grid, range(20), threads=4)
    np.testing.assert_array_equal(batch1, batch4)
    for pid in (0, 7, 19):
        np.testing.assert_array_equal(batch1[pid], sample_wiener(spec, grid, pid).dW)


def fresh_generator_batch(spec, grid, path_ids):
    """The increments as drawn by a new Generator(Philox(key=(seed, path id))) per path."""
    K = spec.truncation
    sd = np.sqrt(grid.h * spec.cov.q[:K])
    out = np.empty((len(path_ids), K, grid.N))
    for i, pid in enumerate(path_ids):
        key = np.array([spec.seed, pid], dtype=np.uint64)
        out[i] = sd[:, None] * np.random.Generator(np.random.Philox(key=key)).standard_normal(
            (K, grid.N)
        )
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    path_ids=st.lists(
        st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1)), min_size=0, max_size=9
    ),
    threads=st.sampled_from([1, 2, 3]),
    K=st.integers(1, 3),
    N=st.integers(1, 9),
)
def test_batch_is_bit_identical_to_fresh_generators(seed, path_ids, threads, K, N):
    # unsorted, repeated and near-2**64 path ids; any thread count
    grid = TimeGrid(1.0, N)
    spec = spec_with([1.0, 0.5, 3.0][:K], seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 8)  # as many workers as threads on any machine
        batch = sample_wiener_batch(spec, grid, path_ids, threads=threads)
    expected = fresh_generator_batch(spec, grid, path_ids)
    assert batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()
    if path_ids:
        single = sample_wiener(spec, grid, path_ids[-1]).dW
        assert single.tobytes() == expected[-1].tobytes()


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_path_ids_outside_64_bits_rejected(bad):
    spec, grid = spec_with([1.0]), TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        sample_wiener(spec, grid, path_id=bad)
    for threads in (1, 2):
        with pytest.raises(ValueError):
            sample_wiener_batch(spec, grid, [0, 3, bad, 1], threads=threads)


def test_workers_never_exceed_cpu_count(monkeypatch):
    # a fake pool records the worker count asked for and runs the jobs in this thread
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(noise, "ThreadPoolExecutor", FakePool)
    spec, grid = spec_with([1.0, 2.0]), TimeGrid(1.0, 8)
    serial = sample_wiener_batch(spec, grid, range(4096))
    for cpus, workers in ((3, [3]), (None, []), (1, [])):
        asked.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        batch = sample_wiener_batch(spec, grid, range(4096), threads=100000)
        assert asked == workers
        assert batch.tobytes() == serial.tobytes()


def test_zero_covariance_gives_zero_increments():
    inc = sample_wiener(spec_with([0.0, 0.0]), TimeGrid(1.0, 16))
    np.testing.assert_array_equal(inc.dW, np.zeros((2, 16)))


def test_truncation_bounds():
    cov = CovOperator(np.ones(3))
    with pytest.raises(ValueError):
        NoiseSpec(cov=cov, truncation=4, seed=1)
    with pytest.raises(ValueError):
        NoiseSpec(cov=cov, truncation=0, seed=1)
    spec = NoiseSpec(cov=cov, truncation=2, seed=1)
    inc = sample_wiener(spec, TimeGrid(1.0, 8))
    assert inc.dW.shape == (2, 8)  # modes beyond the truncation contribute nothing


def test_negative_path_id_rejected():
    with pytest.raises(ValueError):
        sample_wiener(spec_with([1.0]), TimeGrid(1.0, 8), path_id=-1)


def test_increment_variances_at_five_sigma():
    # chi-square oracle: sample variance of M normals has sd sigma^2 sqrt(2/(M-1))
    grid = TimeGrid(0.5, 50)  # h = 0.01
    spec = spec_with([1.0, 4.0], seed=2718)
    batch = sample_wiener_batch(spec, grid, range(2000))
    samples = batch.transpose(1, 0, 2).reshape(2, -1)
    M = samples.shape[1]
    for k, q in enumerate((1.0, 4.0)):
        target = grid.h * q
        s2 = np.var(samples[k], ddof=1)
        assert abs(s2 - target) <= 5.0 * target * np.sqrt(2.0 / (M - 1))
        assert abs(np.mean(samples[k])) <= 5.0 * np.sqrt(target / M)


def test_streams_uncorrelated_across_paths():
    grid = TimeGrid(1.0, 500)
    spec = spec_with([1.0], seed=13)
    x = sample_wiener(spec, grid, path_id=0).dW.ravel()
    y = sample_wiener(spec, grid, path_id=1).dW.ravel()
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(x.size)


def test_cumulative_path_starts_at_zero():
    inc = sample_wiener(spec_with([1.0, 1.0]), TimeGrid(1.0, 10))
    W = inc.cumulative()
    assert W.shape == (2, 11)
    np.testing.assert_array_equal(W[:, 0], 0.0)
    np.testing.assert_allclose(np.diff(W, axis=1), inc.dW, atol=1e-16)


@pytest.mark.parametrize(
    "shape",
    [(8,), (3, 8), (2, 7), (2, 9), (1, 2, 8)],
    ids=["1-d", "3-modes", "7-cells", "9-cells", "3-d"],
)
def test_increments_of_another_shape_are_refused(shape):
    # two modes on 8 cells: K x 8 increments with K <= 2 (a truncation) and nothing else
    grid, spec = TimeGrid(1.0, 8), spec_with([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="increments"):
        noise.WienerIncrements(grid=grid, dW=np.zeros(shape), spec=spec)
    assert noise.WienerIncrements(grid=grid, dW=np.zeros((1, 8)), spec=spec).modes == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_increments_are_refused(bad):
    grid, spec = TimeGrid(1.0, 8), spec_with([1.0, 2.0])
    dW = sample_wiener(spec, grid).dW.copy()
    dW[1, 7] = bad
    with pytest.raises(ValueError, match="increments must be finite"):
        noise.WienerIncrements(grid=grid, dW=dW, spec=spec)


# --- integrands -----------------------------------------------------------------


def test_step_diffusion_left_endpoint_rule():
    B0, B1 = np.zeros((1, 1)), np.ones((1, 1))
    psi = StepDiffusion([0.0, 0.5], [B0, B1])
    assert psi.value(0.25)[0, 0] == 0.0
    assert psi.value(0.5)[0, 0] == 1.0
    assert psi.value(0.75)[0, 0] == 1.0
    grid = TimeGrid(1.0, 4)
    np.testing.assert_array_equal(psi.values_on_grid(grid)[:, 0, 0], [0.0, 0.0, 1.0, 1.0])


def test_step_diffusion_validation():
    with pytest.raises(ValueError):
        StepDiffusion([0.5], [np.ones((1, 1))])
    with pytest.raises(ValueError):
        StepDiffusion([0.0, 0.0], [np.ones((1, 1))] * 2)
    with pytest.raises(DimensionMismatch):
        StepDiffusion([0.0, 0.5], [np.ones((1, 1)), np.ones((2, 1))])
    with pytest.raises(ValueError, match="one value per breakpoint"):
        StepDiffusion([0.0, 0.5], [np.ones((1, 1))])


def test_constant_diffusion_value_is_its_matrix():
    psi = ConstantDiffusion([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(psi.value(0.3), [[1.0, 2.0], [3.0, 4.0]])


def test_rule_diffusion_shape_guard():
    psi = RuleDiffusion(lambda t: np.full((1, 2), t), (1, 2))
    assert psi.value(0.5)[0, 1] == 0.5
    bad = RuleDiffusion(lambda t: np.zeros((2, 2)), (1, 2))
    with pytest.raises(DimensionMismatch):
        bad.value(0.1)


def test_integrated_hs_norm_of_constant():
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    cov = CovOperator(np.array([1.0, 3.0]))
    psi = ConstantDiffusion(B)
    grid = TimeGrid(2.0, 16)
    expected = 2.0 * hs_norm(B, cov) ** 2
    assert psi.integrated_hs_norm_sq(grid, cov) == pytest.approx(expected, rel=1e-13)
    # truncation to the first mode drops the second column's contribution
    assert psi.integrated_hs_norm_sq(grid, cov, modes=1) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("modes", [-1, 0, 1.5, 4, True])
def test_integrated_hs_norm_refuses_modes_outside_the_covariance(modes):
    # unchecked, modes=-1 would read 4.0 and modes=0 would read 0.0 where all 3 modes
    # give 6.0, and modes=1.5 would raise a TypeError from the slice
    psi, cov = ConstantDiffusion(np.ones((2, 3))), CovOperator(np.ones(3))
    assert psi.integrated_hs_norm_sq(TimeGrid(1.0, 4), cov, modes=3) == 6.0
    with pytest.raises(ValueError, match="modes"):
        psi.integrated_hs_norm_sq(TimeGrid(1.0, 4), cov, modes=modes)


# --- the elementary integral ------------------------------------------------------


def test_zero_integrand_gives_zero_path():
    grid = TimeGrid(1.0, 32)
    inc = sample_wiener(spec_with([1.0]), grid)
    path = stochastic_integral(ConstantDiffusion(np.zeros((3, 1))), inc)
    np.testing.assert_array_equal(path, np.zeros((33, 3)))


def test_identity_integrand_recovers_wiener_path():
    grid = TimeGrid(1.0, 128)
    inc = sample_wiener(spec_with([1.0], seed=3), grid)
    path = stochastic_integral(ConstantDiffusion(np.eye(1)), inc)
    np.testing.assert_allclose(path[:, 0], inc.cumulative()[0], atol=1e-15)


def test_integral_linearity_is_exact():
    grid = TimeGrid(1.0, 64)
    inc = sample_wiener(spec_with([1.0, 2.0], seed=12), grid)
    rng = np.random.default_rng(0)
    B1, B2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    lhs = stochastic_integral(ConstantDiffusion(B1 + B2), inc)
    rhs = stochastic_integral(ConstantDiffusion(B1), inc) + stochastic_integral(
        ConstantDiffusion(B2), inc
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_ito_isometry_for_step_integrand():
    # E|I(T)|^2 equals the integrand's time-integrated HS norm, tested at 5 sigma
    grid = TimeGrid(1.0, 64)
    cov = CovOperator(np.array([1.0, 0.5]))
    spec = NoiseSpec(cov=cov, truncation=2, seed=777)
    B0 = np.array([[1.0, 0.0], [0.2, 0.4]])
    B1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = StepDiffusion([0.0, 0.5], [B0, B1])
    n_paths = 20000
    batch = sample_wiener_batch(spec, grid, range(n_paths))
    vals = psi.values_on_grid(grid)
    finals = np.einsum("mik,pkm->pi", vals, batch)
    observed = float(np.mean(np.sum(finals**2, axis=1)))
    predicted = psi.integrated_hs_norm_sq(grid, cov)
    # |I(T)|^2 has std sqrt(2) * predicted for Gaussian coordinates
    assert abs(observed - predicted) <= 5.0 * predicted * np.sqrt(2.0 / n_paths)


def test_integral_dimension_guard():
    grid = TimeGrid(1.0, 8)
    inc = sample_wiener(spec_with([1.0, 1.0]), grid)
    with pytest.raises(DimensionMismatch):
        stochastic_integral(ConstantDiffusion(np.ones((2, 3))), inc)


# --- left-point products ----------------------------------------------------------


def einsum_products(vals, dw):
    """The oracle: Psi(t_m) dW_m at every node by one einsum, (P, dim_H, N)."""
    return np.einsum("mik,pkm->pim", vals[:, :, : dw.shape[1]], dw)


@pytest.mark.parametrize("K", [4, 2], ids=["all-modes", "truncated"])
@pytest.mark.parametrize("kind", ["constant", "step-on-nodes", "step-between-nodes", "rule"])
def test_left_point_products_match_an_einsum(kind, K):
    grid = TimeGrid(1.0, 16)  # 0.25 and 0.5 are nodes, 0.3 and 0.71 are not
    mats = np.random.default_rng(11).standard_normal((3, 3, 4))
    psi = {
        "constant": ConstantDiffusion(mats[0]),
        "step-on-nodes": StepDiffusion([0.0, 0.25, 0.5], mats),
        "step-between-nodes": StepDiffusion([0.0, 0.3, 0.71], mats),
        "rule": RuleDiffusion(lambda t: np.cos(3.0 * t) * mats[0] + t * mats[1], (3, 4)),
    }[kind]
    spec = NoiseSpec(cov=CovOperator(np.array([1.0, 0.5, 0.25, 0.1])), truncation=K, seed=3)
    dw = sample_wiener_batch(spec, grid, range(5))
    vals = psi.values_on_grid(grid)
    got, oracle = noise._left_point_products(vals, dw), einsum_products(vals, dw)
    assert got.shape == (5, 3, 16)
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-15 * np.max(np.abs(oracle)))


def test_left_point_products_pass_nonfinite_increments_unwarned():
    # a product meets inf * 0 here; matmul flags it as invalid, where an einsum does not
    psi = StepDiffusion([0.0, 0.5], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
    grid = TimeGrid(1.0, 8)
    dw = np.ones((2, 2, 8))
    dw[1, 0, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = noise._left_point_products(psi.values_on_grid(grid), dw)
    assert np.isinf(got[1, 0, 2]) and np.isnan(got[1, 1, 2])
    assert np.all(np.isfinite(np.delete(got[1], 2, axis=1))) and np.all(np.isfinite(got[0]))
