import math
import os
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    ConvolutionPath,
    CovOperator,
    ExponentialKernel,
    FractionalKernel,
    GridMismatch,
    HSOperator,
    ItoTestFunction,
    LinearKernel,
    NoiseSpec,
    NonscalarKernel,
    NumericalFailure,
    ScalarTypeKernel,
    SmoothnessError,
    StepDiffusion,
    TimeGrid,
    compute_resolvent,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    mild_solution,
    resolvent_residuals,
    sample_wiener,
    sample_wiener_batch,
    stochastic_convolution,
    stochastic_integral,
    verify_ito_identity,
    verify_volterra_identity,
    verify_weak_solution,
    yosida_convergence_study,
)
from stochvolterra import cli, convolution, noise
from stochvolterra.convolution import _ito_final_weights, _left_point_products
from stochvolterra.noise import WienerIncrements


def ou_table(n=128, scheme="product"):
    return compute_resolvent(
        ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]]), TimeGrid(1.0, n), scheme=scheme
    )


def unit_spec(dim=1, seed=42):
    return NoiseSpec(cov=CovOperator(np.ones(dim)), truncation=dim, seed=seed)


@pytest.mark.parametrize(
    "values, mean_square, match",
    [
        ([[0.0], [np.nan]], 1.0, "nonfinite values"),
        ([[0.0], [-np.inf]], 1.0, "nonfinite values"),
        ([[0.0], [1.0]], np.inf, "mean-square finiteness condition failed"),
        ([[0.0], [1.0]], np.nan, "mean-square finiteness condition failed"),
    ],
    ids=["nan-value", "inf-value", "inf-mean-square", "nan-mean-square"],
)
def test_a_directly_built_path_with_nonfinite_numbers_is_refused(values, mean_square, match):
    with pytest.raises(NumericalFailure, match=match):
        ConvolutionPath(TimeGrid(1.0, 1), np.array(values), "conv", mean_square)


def coarsen(inc, factor):
    """Fold fine increments into a coarser grid of the same horizon."""
    K, N = inc.dW.shape
    dW = inc.dW.reshape(K, N // factor, factor).sum(axis=2)
    return WienerIncrements(grid=TimeGrid(inc.grid.T, N // factor), dW=dW, spec=inc.spec)


# --- stochastic convolution ----------------------------------------------------


def test_identity_table_reduces_to_ito_integral():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
    table = compute_resolvent(kern, TimeGrid(1.0, 64))
    spec = unit_spec(2, seed=5)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.array([[1.0, 0.5], [0.0, 2.0]]))
    conv = stochastic_convolution(table, psi, inc)
    ito = stochastic_integral(psi, inc)
    assert np.all(conv.values[0] == 0.0)
    # a single path's lag sum is one FFT product of n = 128 points: each of its three
    # transforms errs by about 7 eps log2(n) in norm (Higham, Accuracy and Stability of
    # Numerical Algorithms, ch. 24), scaled by the identity lags' l1 norm N and by the
    # l2 norm of the Ito terms c, so |error| <= 25 eps log2(n) N |c|_2 entrywise
    c = _left_point_products(psi.values_on_grid(table.grid), inc.dW[None])[0]
    bound = 25 * np.finfo(float).eps * np.log2(128) * 64 * np.linalg.norm(c)
    assert np.max(np.abs(conv.values - ito)) <= bound


def test_zero_integrand_gives_zero_path():
    table = ou_table()
    inc = sample_wiener(unit_spec(), table.grid)
    conv = stochastic_convolution(table, ConstantDiffusion(np.zeros((1, 1))), inc)
    np.testing.assert_array_equal(conv.values, 0.0)
    assert conv.mean_square_at_T == 0.0
    assert conv.discrete_square_integral() == 0.0


def test_grid_mismatch_rejected():
    table = ou_table(64)
    inc = sample_wiener(unit_spec(), TimeGrid(1.0, 32))
    with pytest.raises(GridMismatch):
        stochastic_convolution(table, ConstantDiffusion(np.eye(1)), inc)


def test_convolution_starts_at_zero_and_is_deterministic():
    table = ou_table()
    inc = sample_wiener(unit_spec(seed=99), table.grid, path_id=3)
    psi = ConstantDiffusion(np.eye(1))
    a = stochastic_convolution(table, psi, inc)
    b = stochastic_convolution(table, psi, inc)
    assert a.values[0, 0] == 0.0
    np.testing.assert_array_equal(a.values, b.values)


def test_tiled_batch_convolution_matches_single_paths():
    # a batch of 40 paths takes the strips, grids._TILE = 16 nodes per product, and a
    # single path the FFT; every row must equal its path's convolution up to roundoff
    rng = np.random.default_rng(4)
    kern = ScalarTypeKernel(ExponentialKernel(), -np.eye(3) - 0.3 * rng.standard_normal((3, 3)))
    table = compute_resolvent(kern, TimeGrid(1.0, 100))  # six tiles of 16 and a ragged 4
    spec = unit_spec(2, seed=17)
    psi = ConstantDiffusion(rng.standard_normal((3, 2)))
    dw = sample_wiener_batch(spec, table.grid, range(40))
    c = _left_point_products(psi.values_on_grid(table.grid), dw).swapaxes(1, 2)
    paths = convolution._convolve_paths(table.S, c)
    for p in range(7):
        single = stochastic_convolution(table, psi, sample_wiener(spec, table.grid, p)).values
        assert np.max(np.abs(paths[p] - single)) <= 1e-13 * np.max(np.abs(single))


def test_ou_sample_variance_matches_isometry_prediction():
    table = ou_table(128)
    spec = unit_spec(seed=1234)
    psi = ConstantDiffusion(np.eye(1))
    n_paths = 4000
    batch = sample_wiener_batch(spec, table.grid, range(n_paths))
    finals = np.einsum("jab,pjb->pa", table.S[-1:0:-1], batch.transpose(0, 2, 1))
    observed = float(np.mean(finals**2))
    ref = stochastic_convolution(table, psi, sample_wiener(spec, table.grid))
    predicted = ref.mean_square_at_T
    assert abs(observed - predicted) <= 5.0 * predicted * np.sqrt(2.0 / n_paths)
    # and the prediction itself is the OU variance up to O(h)
    assert predicted == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=0.02)


def test_mild_solution_identities():
    table = ou_table()
    spec = unit_spec(seed=8)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.eye(1))
    x0 = np.array([2.0])
    # no noise: the resolvent propagates the start
    quiet = mild_solution(table, x0, ConstantDiffusion(np.zeros((1, 1))), inc)
    np.testing.assert_allclose(quiet.values[:, 0], 2.0 * table.S[:, 0, 0], atol=1e-15)
    assert quiet.values[0, 0] == 2.0
    # zero start: the mild solution is the convolution
    driven = mild_solution(table, np.zeros(1), psi, inc)
    conv = stochastic_convolution(table, psi, inc)
    np.testing.assert_array_equal(driven.values, conv.values)


def test_convolution_linear_in_integrand_and_noise():
    rng = np.random.default_rng(9)
    kern = ScalarTypeKernel(ExponentialKernel(), -np.eye(2) - 0.2 * rng.standard_normal((2, 2)))
    table = compute_resolvent(kern, TimeGrid(1.0, 64))
    spec = unit_spec(2, seed=61)
    inc = sample_wiener(spec, table.grid, path_id=0)
    B1, B2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    joint = stochastic_convolution(table, ConstantDiffusion(B1 + B2), inc)
    split = (
        stochastic_convolution(table, ConstantDiffusion(B1), inc).values
        + stochastic_convolution(table, ConstantDiffusion(B2), inc).values
    )
    np.testing.assert_allclose(joint.values, split, atol=1e-12)
    # linear in the increments as well, with the integrand held fixed
    spec_b = unit_spec(2, seed=62)
    inc_b = sample_wiener(spec_b, table.grid, path_id=0)
    summed = WienerIncrements(grid=table.grid, dW=inc.dW + inc_b.dW, spec=spec)
    lhs = stochastic_convolution(table, ConstantDiffusion(B1), summed).values
    rhs = (
        stochastic_convolution(table, ConstantDiffusion(B1), inc).values
        + stochastic_convolution(table, ConstantDiffusion(B1), inc_b).values
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_mild_solution_mean_matches_resolvent():
    table = ou_table(64)
    spec = unit_spec(seed=2222)
    psi = ConstantDiffusion(np.eye(1))
    n_paths = 4000
    batch = sample_wiener_batch(spec, table.grid, range(n_paths))
    # mean over paths of X(T); X = S x0 + convolution, so E X(T) = S(T) x0
    finals = np.einsum("jab,pjb->pa", table.S[-1:0:-1], batch.transpose(0, 2, 1))
    mean_xT = float(np.mean(finals)) + table.S[-1, 0, 0]
    sd = math.sqrt((1.0 - math.exp(-2.0)) / 2.0 / n_paths)
    assert abs(mean_xT - table.S[-1, 0, 0]) <= 5.0 * sd


# --- covariance ------------------------------------------------------------------


def test_covariance_quadrature_identity_table_is_exact():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
    table = compute_resolvent(kern, TimeGrid(2.0, 64))
    B = HSOperator(np.array([[1.0, 0.0], [0.3, 0.7]]))
    Q = CovOperator(np.array([1.0, 2.0]))
    got = covariance_quadrature(table, B, Q, 32)  # t = 1
    expected = 1.0 * (B.matrix * Q.q) @ B.matrix.T
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_covariance_quadrature_ou_closed_form():
    table = ou_table(256)
    got = covariance_quadrature(table, HSOperator(np.eye(1)), CovOperator(np.ones(1)), 256)
    assert got[0, 0] == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-4)


def test_covariance_quadrature_zero_operator():
    table = ou_table(32)
    got = covariance_quadrature(table, HSOperator(np.zeros((1, 1))), CovOperator(np.ones(1)), 16)
    np.testing.assert_array_equal(got, 0.0)


def test_covariance_quadrature_symmetric_psd():
    rng = np.random.default_rng(21)
    A = -np.eye(3) - 0.1 * rng.standard_normal((3, 3))
    kern = NonscalarKernel([ScalarTypeKernel(ExponentialKernel(), A)])
    table = compute_resolvent(kern, TimeGrid(1.0, 64))
    B = HSOperator(rng.standard_normal((3, 2)))
    Q = CovOperator(np.array([1.0, 0.5]))
    C = covariance_quadrature(table, B, Q, 64)
    np.testing.assert_array_equal(C, C.T)
    assert np.min(np.linalg.eigvalsh(C)) >= -1e-12


def test_covariance_monte_carlo_contract():
    table = ou_table(64)
    Q = CovOperator(np.ones(1))
    spec = unit_spec(seed=31)
    B = HSOperator(np.eye(1))
    est = covariance_monte_carlo(table, B, Q, spec, 5000, 64)
    quad = covariance_quadrature(table, B, Q, 64)
    assert abs(est.sample_cov[0, 0] - quad[0, 0]) / quad[0, 0] < 0.1
    assert est.std_error[0, 0] > 0.0
    # zero operator: exactly zero estimate
    zero = covariance_monte_carlo(table, HSOperator(np.zeros((1, 1))), Q, spec, 200, 64)
    np.testing.assert_array_equal(zero.sample_cov, 0.0)


def test_covariance_monte_carlo_symmetry_exact():
    rng = np.random.default_rng(4)
    A = -(np.eye(2) + 0.2 * rng.standard_normal((2, 2)))
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), A), TimeGrid(1.0, 32))
    Q = CovOperator(np.array([1.0, 0.7]))
    spec = NoiseSpec(cov=Q, truncation=2, seed=6)
    est = covariance_monte_carlo(table, HSOperator(rng.standard_normal((2, 2))), Q, spec, 300, 32)
    np.testing.assert_array_equal(est.sample_cov, est.sample_cov.T)


def test_covariance_monte_carlo_guards():
    table = ou_table(32)
    Q = CovOperator(np.ones(1))
    spec = unit_spec()
    with pytest.raises(ValueError):
        covariance_monte_carlo(table, HSOperator(np.eye(1)), Q, spec, 50, 16)
    other = CovOperator(np.array([2.0]))
    with pytest.raises(ValueError):
        covariance_monte_carlo(table, HSOperator(np.eye(1)), other, spec, 200, 16)


def einsum_sample_covariance(table, B, spec, n_paths, t_index):
    """Sample covariance and standard errors from the whole (P, K, N) increment
    batch: left-point products for every path and cell, then one einsum at the node."""
    dw = sample_wiener_batch(spec, table.grid, range(n_paths))
    c = _left_point_products(ConstantDiffusion(B).values_on_grid(table.grid), dw).swapaxes(1, 2)
    X = np.einsum("jab,pjb->pa", table.S[t_index:0:-1], c[:, :t_index])
    centered = X - X.mean(axis=0)
    C = (centered.T @ centered) / (n_paths - 1)
    C = 0.5 * (C + C.T)
    var = np.diag(C)
    return C, np.sqrt((np.outer(var, var) + C**2) / n_paths)


@pytest.mark.parametrize("paths_per_block", [1, 7])
@pytest.mark.parametrize("t_index", [0, 1, 8, 16])
def test_covariance_monte_carlo_matches_einsum_pipeline(monkeypatch, paths_per_block, t_index):
    rng = np.random.default_rng(8)
    A = -(np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), A), TimeGrid(1.0, 16))
    Q = CovOperator(np.array([1.0, 0.6, 0.3]))
    spec = NoiseSpec(cov=Q, truncation=2, seed=2**63 + 5)
    B = rng.standard_normal((2, 3))
    n_paths = 103  # not a multiple of the block
    monkeypatch.setattr(convolution, "_MC_BLOCK", paths_per_block * 2 * 16)
    C, se = einsum_sample_covariance(table, B, spec, n_paths, t_index)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # two workers on any machine
    for threads in (1, 2):
        est = covariance_monte_carlo(table, HSOperator(B), Q, spec, n_paths, t_index, threads)
        scale = max(np.max(np.abs(C)), 1e-300)
        assert np.max(np.abs(est.sample_cov - C)) <= 1e-12 * scale
        assert np.max(np.abs(est.std_error - se)) <= 1e-12 * max(np.max(se), 1e-300)
    if t_index == 0:
        np.testing.assert_array_equal(est.sample_cov, 0.0)


def test_mean_square_continuity_modulus():
    # discrete covariance of increments: E|W(t_n) - W(t_m)|^2 <= C |t_n - t_m|
    table = ou_table(128)
    S = table.S
    h = table.grid.h
    B = np.eye(1)

    def msq(n, m):
        # independent-increment decomposition of the discrete convolution
        total = 0.0
        for k in range(m):
            total += h * float((S[n - k][0, 0] - S[m - k][0, 0]) ** 2)
        for k in range(m, n):
            total += h * float(S[n - k][0, 0] ** 2)
        return total

    t = table.grid.nodes()
    pairs = [(128, 96), (128, 127), (64, 32), (16, 0), (100, 99)]
    for n, m in pairs:
        d = msq(n, m)
        assert d <= 1.05 * (t[n] - t[m])
    # vanishing modulus along adjacent nodes
    adjacent = [msq(n, n - 1) for n in range(1, 129)]
    assert max(adjacent) <= 1.05 * h


def test_square_integrable_trajectories_expectation():
    # E[h sum |W(t_n)|^2] equals the double isometry sum; MC check at 10%
    table = ou_table(64)
    spec = unit_spec(seed=2023)
    psi = ConstantDiffusion(np.eye(1))
    n_paths = 4000
    batch = sample_wiener_batch(spec, table.grid, range(n_paths))
    from stochvolterra.convolution import _convolve_paths

    paths = _convolve_paths(table.S, batch.transpose(0, 2, 1))
    observed = float(np.mean(table.grid.h * np.sum(np.sum(paths**2, axis=2), axis=1)))
    h = table.grid.h
    predicted = 0.0
    for n in range(1, table.grid.N + 1):
        predicted += h * sum(h * float(table.S[n - m][0, 0] ** 2) for m in range(n))
    assert abs(observed - predicted) / predicted < 0.1


# --- the convolution identity -----------------------------------------------------


@pytest.mark.parametrize(
    "kernel",
    [
        ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]]),
        ScalarTypeKernel(FractionalKernel(0.5), [[-1.0]]),
    ],
)
def test_volterra_identity_exact_on_conv_tables(kernel):
    grid = TimeGrid(1.0, 128)
    table = compute_resolvent(kernel, grid, scheme="conv")
    spec = unit_spec(seed=55)
    psi = ConstantDiffusion(np.eye(1))
    inc = sample_wiener(spec, grid, path_id=2)
    path = stochastic_convolution(table, psi, inc)
    report = verify_volterra_identity(path, kernel, psi, inc)
    assert report.exact_regime
    assert report.sup_residual < 1e-10


def test_exact_regime_reports_the_scheme_not_a_kernel_match():
    # a conv path verified against another kernel: the flag reads the scheme alone,
    # and the residual is far from machine level
    grid = TimeGrid(1.0, 128)
    A = -np.diag([1.0, 2.0])
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), A), grid, scheme="conv")
    psi = ConstantDiffusion(np.eye(2))
    inc = sample_wiener(unit_spec(2, seed=5), grid, path_id=0)
    path = stochastic_convolution(table, psi, inc)
    report = verify_volterra_identity(path, ScalarTypeKernel(FractionalKernel(0.5), A), psi, inc)
    assert report.exact_regime
    assert report.sup_residual > 1e-3


def test_volterra_identity_exact_nonscalar_noncommuting():
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    M = np.array([[-1.0, 0.0], [0.5, -2.0]])
    kern = NonscalarKernel(
        [ScalarTypeKernel(ConstantKernel(), R), ScalarTypeKernel(LinearKernel(), M)]
    )
    grid = TimeGrid(1.0, 128)
    table = compute_resolvent(kern, grid, scheme="conv")
    # the exact weights: the marched equation and each path's identity hold to roundoff
    # (measured 3.3e-16 and at most 1.7e-15)
    assert resolvent_residuals(table).res_second < 1e-14
    spec = unit_spec(2, seed=14)
    psi = ConstantDiffusion(np.array([[1.0, 0.0], [0.3, 0.7]]))
    for pid in range(20):
        inc = sample_wiener(spec, grid, path_id=pid)
        path = stochastic_convolution(table, psi, inc)
        assert verify_volterra_identity(path, kern, psi, inc).sup_residual < 1e-13


def test_volterra_identity_zero_integrand():
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])
    table = compute_resolvent(kern, TimeGrid(1.0, 32), scheme="conv")
    spec = unit_spec(seed=1)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.zeros((1, 1)))
    path = stochastic_convolution(table, psi, inc)
    assert verify_volterra_identity(path, kern, psi, inc).sup_residual == 0.0


def test_volterra_identity_product_scheme_residual_halves():
    # product tables do not telescope; the defect shrinks at first order
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])
    spec = unit_spec(seed=808)
    psi = ConstantDiffusion(np.eye(1))
    fine = sample_wiener(spec, TimeGrid(1.0, 512), path_id=0)
    ratios = []
    for pid in range(10):
        fine = sample_wiener(spec, TimeGrid(1.0, 512), path_id=pid)
        sup = {}
        for inc in (coarsen(fine, 2), fine):
            table = compute_resolvent(kern, inc.grid, scheme="product")
            path = stochastic_convolution(table, psi, inc)
            report = verify_volterra_identity(path, kern, psi, inc)
            assert not report.exact_regime
            assert report.sup_residual > 1e-6
            sup[inc.grid.N] = report.sup_residual
        ratios.append(sup[256] / sup[512])
    assert all(1.6 <= r <= 2.4 for r in ratios)


# --- the weak-form identity ----------------------------------------------------


def test_weak_solution_identity_exact_per_path():
    rng = np.random.default_rng(77)
    M = rng.standard_normal((3, 3))
    A = -(M @ M.T) / 3.0
    a = ExponentialKernel()
    grid = TimeGrid(1.0, 128)
    table = compute_resolvent(ScalarTypeKernel(a, A), grid, scheme="conv")
    spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=44)
    psi = ConstantDiffusion(rng.standard_normal((3, 2)))
    inc = sample_wiener(spec, grid, path_id=1)
    path = stochastic_convolution(table, psi, inc)
    xi = rng.standard_normal(3)
    report = verify_weak_solution(path, table.kernel, xi, psi, inc)
    assert report.sup_residual < 1e-10


def test_weak_solution_eigenvector_channel():
    # xi an eigenvector of A': the identity collapses to one dimension
    A = np.array([[-1.0, 0.0], [1.0, -2.0]])
    eigvals, eigvecs = np.linalg.eig(A.T)
    xi = np.real(eigvecs[:, 0])
    a = ConstantKernel(1.0)
    grid = TimeGrid(1.0, 64)
    table = compute_resolvent(ScalarTypeKernel(a, A), grid, scheme="conv")
    spec = unit_spec(2, seed=3)
    psi = ConstantDiffusion(np.eye(2))
    inc = sample_wiener(spec, grid)
    path = stochastic_convolution(table, psi, inc)
    assert verify_weak_solution(path, table.kernel, xi, psi, inc).sup_residual < 1e-10


def test_weak_solution_zero_integrand():
    a = ConstantKernel(1.0)
    table = compute_resolvent(ScalarTypeKernel(a, [[-1.0]]), TimeGrid(1.0, 16), scheme="conv")
    spec = unit_spec(seed=12)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.zeros((1, 1)))
    path = stochastic_convolution(table, psi, inc)
    assert verify_weak_solution(path, table.kernel, np.ones(1), psi, inc).sup_residual == 0.0


def test_identities_hold_to_machine_level_on_a_rotated_symmetric_table():
    # an exactly symmetric A is marched in its eigenchannels and rotated back; the
    # conv-scheme identities still read that table's own defining equation
    Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    A = Q @ np.diag(-np.arange(1.0, 6.0)) @ Q.T
    kernel = ScalarTypeKernel(FractionalKernel(0.5), 0.5 * (A + A.T))
    table = compute_resolvent(kernel, TimeGrid(1.0, 128), scheme="conv")
    psi = ConstantDiffusion(np.eye(5))
    inc = sample_wiener(unit_spec(5, seed=21), table.grid, path_id=2)
    path = stochastic_convolution(table, psi, inc)
    assert verify_volterra_identity(path, kernel, psi, inc).sup_residual < 1e-12
    assert verify_weak_solution(path, kernel, np.ones(5), psi, inc).sup_residual < 1e-12


def test_weak_and_volterra_residuals_come_from_one_defect():
    # the weak residual is |<defect, xi>| and the Volterra one |defect|, node by
    # node, with the defect of the scalar-type kernel's cell weights
    rng = np.random.default_rng(5)
    A = np.array([[-1.0, 0.3], [0.2, -2.0]])
    a = FractionalKernel(0.5)
    kernel = ScalarTypeKernel(a, A)
    for scheme in ("product", "conv"):
        table = compute_resolvent(kernel, TimeGrid(1.0, 32), scheme=scheme)
        psi = ConstantDiffusion(rng.standard_normal((2, 2)))
        inc = sample_wiener(unit_spec(2, seed=9), table.grid, path_id=4)
        path = stochastic_convolution(table, psi, inc)
        xi = rng.standard_normal(2)
        c = _left_point_products(psi.values_on_grid(table.grid), inc.dW[None]).swapaxes(1, 2)
        W = kernel.cell_weights(table.grid)
        defect = convolution._volterra_defect(path.values[None], W, c, scheme)[0]
        weak = verify_weak_solution(path, kernel, xi, psi, inc)
        volterra = verify_volterra_identity(path, kernel, psi, inc)
        assert weak.residuals.tobytes() == np.abs(defect @ xi).tobytes()
        assert volterra.residuals.tobytes() == np.linalg.norm(defect, axis=1).tobytes()
        assert weak.residuals[0] == volterra.residuals[0] == 0.0


def volterra_problem(A, a, scheme, psi_kind, n=32):
    """A table on n cells and a psi against 4 noise modes, 3 of them sampled for "step"."""
    d = A.shape[0]
    table = compute_resolvent(ScalarTypeKernel(a, A), TimeGrid(1.0, n), scheme=scheme)
    if psi_kind == "constant":
        psi, K = ConstantDiffusion(np.arange(4.0 * d).reshape(d, 4) / (4 * d)), 4
    else:
        rng = np.random.default_rng(3)
        psi, K = StepDiffusion([0.0, 0.3, 0.5], rng.standard_normal((3, d, 4))), 3
    spec = NoiseSpec(cov=CovOperator(np.array([1.0, 0.5, 0.25, 0.1])), truncation=K, seed=17)
    return table, psi, spec


def volterra_sups(table, psi, spec, n_paths, threads=1):
    block_fn = partial(convolution._volterra_sups, table, psi.values_on_grid(table.grid))
    return convolution._per_path(block_fn, spec, table.grid, n_paths, threads)


Q3, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
ROTATED3 = Q3 @ np.diag([-1.0, -2.0, -3.0]) @ Q3.T
ROTATED3 = 0.5 * (ROTATED3 + ROTATED3.T)  # exactly symmetric: a channel table
NONSYMMETRIC3 = -np.diag([1.0, 2.0, 3.0]) + np.diag([0.3, 0.3], 1)


@pytest.mark.parametrize("A", [ROTATED3, NONSYMMETRIC3], ids=["symmetric", "nonsymmetric"])
@pytest.mark.parametrize("a", [FractionalKernel(0.5), ExponentialKernel()], ids=["frac", "exp"])
@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("psi_kind", ["constant", "step"])
def test_volterra_block_sups_match_the_single_path_verifier(A, a, scheme, psi_kind):
    # a block of paths is convolved, tiled, and checked at once; each path's sup residual
    # is the single-path verifier's up to the roundoff of that reordering
    table, psi, spec = volterra_problem(A, a, scheme, psi_kind)
    sups = volterra_sups(table, psi, spec, 6)
    for pid, sup in enumerate(sups):
        inc = sample_wiener(spec, table.grid, path_id=pid)
        path = stochastic_convolution(table, psi, inc)
        ref = verify_volterra_identity(path, table.kernel, psi, inc).sup_residual
        assert abs(sup - ref) <= 1e-14 + 1e-12 * ref
        assert sup < 1e-13 if scheme == "conv" else sup > 1e-3


# --- the integration-by-parts identity ---------------------------------------------


def test_ito_identity_flat_case_machine_exact():
    d = 2
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((d, d)))
    grid = TimeGrid(1.0, 128)
    table = compute_resolvent(kern, grid)
    spec = NoiseSpec(cov=CovOperator(np.ones(d)), truncation=d, seed=5)
    inc = sample_wiener(spec, grid, path_id=1)
    B = np.array([[1.0, 0.2], [0.0, 0.7]])
    x_path = mild_solution(table, np.array([1.0, -0.5]), ConstantDiffusion(B), inc)
    xi = ItoTestFunction.constant(np.array([0.3, 1.1]))
    report = verify_ito_identity(x_path, kern, B, xi, inc)
    assert report.sup_abs_residual < 1e-12


def test_ito_identity_requires_w11():
    kern = ScalarTypeKernel(FractionalKernel(0.5), [[-1.0]])
    grid = TimeGrid(1.0, 32)
    table = compute_resolvent(kern, grid)
    spec = unit_spec(seed=2)
    inc = sample_wiener(spec, grid)
    x_path = mild_solution(table, np.ones(1), ConstantDiffusion(np.eye(1)), inc)
    with pytest.raises(SmoothnessError, match="W11"):
        verify_ito_identity(x_path, kern, np.eye(1), ItoTestFunction.constant(np.ones(1)), inc)


def test_ito_test_function_consistency_guard():
    bad = ItoTestFunction(np.ones(1), phi=lambda t: t * t, phi_dot=lambda t: 1.0)
    with pytest.raises(ValueError, match="inconsistent"):
        bad.check_consistency(1.0)


@pytest.mark.parametrize("which", ["phi", "phi_dot"])
def test_ito_test_function_must_be_finite(which):
    # a nan profile once passed the check and gave mean = nan
    rules = {"phi": math.exp, "phi_dot": math.exp, which: lambda t: math.nan}
    xi = ItoTestFunction(np.ones(1), **rules)
    with pytest.raises(ValueError, match="inconsistent"):
        xi.check_consistency(1.0)
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), [[-1.0]]), TimeGrid(1.0, 16))
    with pytest.raises(ValueError):
        ito_identity_statistics(table, np.eye(1), xi, np.ones(1), unit_spec(seed=2), 4)


@pytest.mark.parametrize("which", ["phi", "phi_dot"])
def test_ito_identity_needs_a_finite_profile_on_the_grid(monkeypatch, which):
    # nan at the node t = 1/2 only, which the five consistency probes miss
    grid = TimeGrid(1.0, 16)
    rules = {"phi": lambda t: 1.0, "phi_dot": lambda t: 0.0}
    finite = rules[which]
    rules[which] = lambda t: math.nan if t == 0.5 else finite(t)
    xi = ItoTestFunction(np.ones(1), **rules)
    xi.check_consistency(1.0)
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), [[-1.0]]), grid)
    sampled = count_blocks(monkeypatch, 4, 1, 16)
    with pytest.raises(ValueError, match="finite on the grid"):
        ito_identity_statistics(table, np.eye(1), xi, np.ones(1), unit_spec(seed=2), 4)
    assert sampled == []  # raised before any path was drawn


def test_ito_test_function_consistency_is_relative_for_large_derivatives():
    # a forward difference of exp errs by about exp(t) delta / 2: 2e-4 at t = 6
    exact = ItoTestFunction(np.ones(1), phi=math.exp, phi_dot=math.exp)
    exact.check_consistency(8.0)
    # off by a relative 1e-3 from t = 5 on: an error of 0.4 at the probe t = 6
    off = ItoTestFunction(np.ones(1), math.exp, lambda t: math.exp(t) * (1.0 + 1e-3 * (t > 5.0)))
    with pytest.raises(ValueError, match="inconsistent with phi at t=6"):
        off.check_consistency(8.0)


def test_ito_identity_deterministic_second_order():
    # B = 0 removes the noise; the residual is pure trapezoid error, order 2
    a = ExponentialKernel()
    kern = ScalarTypeKernel(a, np.array([[-1.0, 0.4], [0.0, -2.0]]))
    xi = ItoTestFunction(
        np.array([1.0, 0.5]), phi=lambda t: math.exp(t), phi_dot=lambda t: math.exp(t)
    )
    zero = np.zeros((2, 2))
    sup = {}
    for n in (128, 256):
        grid = TimeGrid(1.0, n)
        table = compute_resolvent(kern, grid)
        spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=5)
        inc = sample_wiener(spec, grid)
        x_path = mild_solution(table, np.array([1.0, -1.0]), ConstantDiffusion(zero), inc)
        sup[n] = verify_ito_identity(x_path, kern, zero, xi, inc).sup_abs_residual
    assert 3.0 <= sup[128] / sup[256] <= 5.0


def test_ito_statistics_smoke():
    a = ExponentialKernel()
    kern = ScalarTypeKernel(a, np.array([[-1.0]]))
    grid = TimeGrid(1.0, 64)
    table = compute_resolvent(kern, grid)
    spec = unit_spec(seed=4040)
    xi = ItoTestFunction(np.ones(1), phi=lambda t: math.exp(t), phi_dot=lambda t: math.exp(t))
    stats = ito_identity_statistics(table, np.eye(1), xi, np.ones(1), spec, 200)
    assert stats.n_paths == 200
    assert abs(stats.mean) <= 5.0 * stats.std_error
    assert stats.rms > 0.0


@pytest.mark.parametrize("scheme, order", [("conv", 1), ("product", 2)])
def test_ito_residual_mean_is_first_order_on_conv_and_second_on_product(scheme, order):
    # the final residual is c0 + <g, dW>, so c0 is its exact mean: O(h) under conv, which
    # the Monte Carlo mean resolves once enough paths are drawn, O(h^2) under product
    kern = ScalarTypeKernel(ExponentialKernel(), np.array([[-1.0, 0.4], [0.0, -2.0]]))
    xi = ItoTestFunction(np.array([1.0, 0.5]), phi=math.exp, phi_dot=math.exp)
    B, X0 = np.array([[0.8, 0.0], [0.3, 0.5]]), np.array([1.0, -1.0])
    c0 = [
        _ito_final_weights(compute_resolvent(kern, TimeGrid(1.0, n), scheme=scheme), B, xi, X0)[1]
        for n in (128, 256, 512)
    ]
    for coarse, fine in zip(c0, c0[1:]):
        assert coarse / fine == pytest.approx(2.0**order, rel=0.05)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_ito_statistics_needs_two_paths(n_paths):
    # a single residual has no sample standard deviation (np.std(ddof=1) is nan)
    kern = ScalarTypeKernel(ExponentialKernel(), np.array([[-1.0]]))
    grid = TimeGrid(1.0, 16)
    table = compute_resolvent(kern, grid)
    xi = ItoTestFunction.constant(np.ones(1))
    with pytest.raises(ValueError, match=r"n_paths must lie in \[2, inf\]"):
        ito_identity_statistics(table, np.eye(1), xi, np.ones(1), unit_spec(seed=1), n_paths)


def test_ito_statistics_take_the_derivative_in_one_call_per_block(monkeypatch):
    calls = []
    original = ScalarTypeKernel.derivative

    def counted(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(ScalarTypeKernel, "derivative", counted)
    kern = ScalarTypeKernel(ExponentialKernel(), np.array([[-1.0]]))
    table = compute_resolvent(kern, TimeGrid(1.0, 16))
    xi = ItoTestFunction.constant(np.ones(1))
    ito_identity_statistics(table, np.eye(1), xi, np.ones(1), unit_spec(seed=1), 8)
    assert calls == [(17,)]


def ito_residual_per_node(kernel, xi, grid, X, bdw):
    """Signed residuals of one path with the drift's inner convolution summed
    node by node (full trapezoid sum minus the two halved ends)."""
    t = grid.nodes()
    h = grid.h
    Adot = np.array([kernel.derivative(s) for s in t])
    phi = np.array([xi.phi(s) for s in t])
    phi_dot = np.array([xi.phi_dot(s) for s in t])
    G = np.zeros_like(X)
    for i in range(1, grid.N + 1):
        full = np.einsum("jab,jb->a", Adot[i::-1], X[: i + 1])
        ends = 0.5 * (Adot[i] @ X[0] + Adot[0] @ X[i])
        G[i] = h * (full - ends)
    drift = ((G + X @ kernel.value_at_zero().T) @ xi.xi0) * phi
    decay = (X @ xi.xi0) * phi_dot
    lhs = (X @ xi.xi0) * phi
    res = np.zeros(grid.N + 1)
    trap_drift = trap_decay = sto = 0.0
    for n in range(1, grid.N + 1):
        trap_drift += 0.5 * h * (drift[n - 1] + drift[n])
        trap_decay += 0.5 * h * (decay[n - 1] + decay[n])
        sto += (bdw[n - 1] @ xi.xi0) * phi[n - 1]
        res[n] = lhs[n] - lhs[0] - trap_drift - sto - trap_decay
    return res


def nonscalar_w11_kernel():
    """A(t) = e^-t M1 + e^-3t M2 with non-commuting parts: not a scalar times one matrix."""
    M1 = np.array([[-1.0, 0.5], [0.2, -2.0]])
    M2 = np.array([[0.0, -0.3], [0.4, 0.1]])
    a1, a3 = ExponentialKernel(), ExponentialKernel(1.0, 3.0)
    return NonscalarKernel([ScalarTypeKernel(a1, M1), ScalarTypeKernel(a3, M2)])


def test_ito_identity_general_matrix_kernel_matches_per_node_sum():
    kern = nonscalar_w11_kernel()
    assert kern.smoothness == "W11"
    grid = TimeGrid(1.0, 64)
    table = compute_resolvent(kern, grid)
    inc = sample_wiener(NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=17), grid)
    B = np.array([[0.8, 0.0], [0.3, 0.5]])
    x_path = mild_solution(table, np.array([1.0, -1.0]), ConstantDiffusion(B), inc)
    xi = ItoTestFunction(
        np.array([1.0, 0.5]), phi=lambda t: math.exp(t), phi_dot=lambda t: math.exp(t)
    )
    report = verify_ito_identity(x_path, kern, B, xi, inc)
    bdw = np.einsum("ik,km->mi", B, inc.dW)
    oracle = ito_residual_per_node(kern, xi, grid, x_path.values, bdw)
    assert np.max(np.abs(oracle)) > 1e-6
    assert np.max(np.abs(report.residuals - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def ito_final_per_path(table, B, xi, X0, spec, n_paths):
    """Final residuals of paths 0..n_paths-1, each path convolved against the table
    and its residual taken at every node."""
    dw = sample_wiener_batch(spec, table.grid, range(n_paths))
    c = _left_point_products(ConstantDiffusion(B).values_on_grid(table.grid), dw)
    X = convolution._convolve_paths(table.S, c.swapaxes(1, 2)) + np.einsum("nij,j->ni", table.S, X0)
    return convolution._ito_residual_batch(table.kernel, xi, table.grid, X, c)[:, -1]


def ito_final_longdouble(table, B, xi, X0, spec, n_paths):
    """ito_final_per_path summed in np.longdouble from the same float64 inputs (table,
    increments, kernel and profile values): each path's convolution node by node, and its
    final residual by the trapezoid and left-point sums of `ito_residual_per_node`."""
    ld, grid, N = np.longdouble, table.grid, table.grid.N
    h, t = ld(grid.h), grid.nodes()
    dw = sample_wiener_batch(spec, grid, range(n_paths)).astype(ld)
    bdw = np.einsum("ik,pkm->pmi", B[:, : spec.truncation].astype(ld), dw)  # (P, N, d)
    S = table.S.astype(ld)
    X = np.einsum("nij,j->ni", S, X0.astype(ld)) + np.zeros((n_paths, 1, 1), dtype=ld)
    for n in range(1, N + 1):
        X[:, n] += np.einsum("mij,pmj->pi", S[n:0:-1], bdw[:, :n])
    xi0 = xi.xi0.astype(ld)
    v = np.einsum("nab,a->nb", table.kernel.derivative(t).astype(ld), xi0)  # xi0' dA/dt
    phi = np.array([xi.phi(s) for s in t]).astype(ld)
    phi_dot = np.array([xi.phi_dot(s) for s in t]).astype(ld)
    g = np.zeros((n_paths, N + 1), dtype=ld)  # xi0' of the drift's inner trapezoid sum
    for i in range(1, N + 1):
        full = np.einsum("jb,pjb->p", v[i::-1], X[:, : i + 1])
        g[:, i] = h * (full - 0.5 * (X[:, 0] @ v[i] + X[:, i] @ v[0]))
    x_xi = X @ xi0
    drift = (g + X @ (table.kernel.value_at_zero().T.astype(ld) @ xi0)) * phi
    rate = drift + x_xi * phi_dot
    trapezoid = h * (rate.sum(axis=1) - 0.5 * (rate[:, 0] + rate[:, -1]))
    ito = (bdw @ xi0) @ phi[:-1]
    return x_xi[:, -1] * phi[-1] - x_xi[:, 0] * phi[0] - trapezoid - ito


# every kernel, scheme and truncation on 40 cells; both schemes on 512 cells, where the
# adjoint's FFT lag sums meet the per-path convolutions on a long history; and on 512 and
# 1000 cells against the per-path sums in np.longdouble, since the float64 oracle's own
# roundoff grows with the history (2.7e-12 of the scale at 1000 cells, past the gate)
ITO_PER_PATH_CASES = [
    pytest.param(kernel, scheme, truncation, n, oracle, id=f"{kernel}-{scheme}-{truncation}{tag}")
    for kernel, truncation, n, oracle, tag in [
        *[(k, t, 40, ito_final_per_path, "") for t in (3, 2) for k in ("scalar-type", "nonscalar")],
        ("scalar-type", 3, 512, ito_final_per_path, "-N512"),
        ("scalar-type", 3, 512, ito_final_longdouble, "-N512-longdouble"),
        ("scalar-type", 3, 1000, ito_final_longdouble, "-N1000-longdouble"),
    ]
    for scheme in ("product", "conv")
]


@pytest.mark.parametrize("kernel, scheme, truncation, n, oracle", ITO_PER_PATH_CASES)
def test_ito_statistics_match_the_per_path_residuals(kernel, scheme, truncation, n, oracle):
    kern = {
        "scalar-type": ScalarTypeKernel(ExponentialKernel(), np.array([[-1.0, 0.4], [0.0, -2.0]])),
        "nonscalar": nonscalar_w11_kernel(),
    }[kernel]
    table = compute_resolvent(kern, TimeGrid(1.0, n), scheme=scheme)
    spec = NoiseSpec(cov=CovOperator(np.array([1.0, 0.5, 0.25])), truncation=truncation, seed=9)
    B = np.array([[0.8, 0.1, -0.4], [0.3, 0.5, 0.2]])  # truncation 2 cuts its last column
    xi = ItoTestFunction(
        np.array([1.0, 0.5]), lambda t: math.cos(3.0 * t), lambda t: -3.0 * math.sin(3.0 * t)
    )
    X0 = np.array([2.0, -1.5])
    stats = ito_identity_statistics(table, B, xi, X0, spec, 30)
    expected = np.asarray(oracle(table, B, xi, X0, spec, 30), dtype=float)
    assert np.max(np.abs(expected)) > 1e-6
    assert close(stats.final_residuals, expected)


# --- the Monte Carlo path-block loop ------------------------------------------------


def ito_problem(n=32):
    kern = ScalarTypeKernel(ExponentialKernel(), np.array([[-1.0, 0.4], [0.0, -2.0]]))
    xi = ItoTestFunction(np.array([1.0, 0.5]), phi=math.exp, phi_dot=math.exp)
    spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=31)
    B = np.array([[0.8, 0.0], [0.3, 0.5]])
    return compute_resolvent(kern, TimeGrid(1.0, n)), B, xi, np.array([1.0, -1.0]), spec


def yosida_problem(n_paths, n=32):
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    return yosida_convergence_study(
        ExponentialKernel(),
        -np.diag(np.arange(1.0, 6.0)),
        psi,
        spec,
        [0.2, 0.1],
        TimeGrid(1.0, n),
        n_paths,
    )


def count_blocks(monkeypatch, paths_per_block, K, N):
    """Set the block to `paths_per_block` paths and count the blocks sampled, on one
    worker (`sample_wiener_batch`) or on the stream's pool (`_increments`)."""
    monkeypatch.setattr(convolution, "_MC_BLOCK", paths_per_block * K * N)
    calls = []
    for name in ("sample_wiener_batch", "_increments"):

        def counted(*args, sample=getattr(convolution, name), **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(convolution, name, counted)
    return calls


def close(a, b):
    scale = np.max(np.abs(b))
    assert scale > 0.0
    return np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * scale


@pytest.mark.parametrize("paths_per_block, blocks", [(23, 3), (7, 8), (1, 50)])
def test_ito_statistics_blocks_match_one_block(monkeypatch, paths_per_block, blocks):
    table, B, xi, X0, spec = ito_problem()
    whole = ito_identity_statistics(table, B, xi, X0, spec, 50)
    calls = count_blocks(monkeypatch, paths_per_block, 2, 32)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # two workers on any machine
    for threads in (1, 2):
        part = ito_identity_statistics(table, B, xi, X0, spec, 50, threads=threads)
        assert close(part.final_residuals, whole.final_residuals)
        scale = np.max(np.abs(whole.final_residuals))
        for name in ("mean", "std_error", "rms"):
            assert abs(getattr(part, name) - getattr(whole, name)) <= 1e-12 * scale
    assert len(calls) == 2 * blocks  # the last block is ragged: 50 % 23 = 4, 50 % 7 = 1


def test_ito_statistics_lag_sums_do_not_grow_with_paths(monkeypatch):
    # the residual's adjoint is summed once; each block of paths costs one product
    table, B, xi, X0, spec = ito_problem(n=16)
    sampled = count_blocks(monkeypatch, 8, 2, 16)
    calls = []
    original = convolution.lag_convolve

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(convolution, "lag_convolve", counted)
    counts = []
    for n_paths in (8, 800):
        calls.clear()
        ito_identity_statistics(table, B, xi, X0, spec, n_paths)
        counts.append(len(calls))
    assert len(sampled) == 1 + 100
    assert counts[0] > 0
    assert counts[0] == counts[1]


@pytest.mark.parametrize("paths_per_block, blocks", [(23, 3), (7, 8)])
def test_yosida_study_blocks_match_one_block(monkeypatch, paths_per_block, blocks):
    whole = yosida_problem(50)
    calls = count_blocks(monkeypatch, paths_per_block, 5, 32)
    part = yosida_problem(50)
    assert len(calls) == blocks
    assert close(part.e_W, whole.e_W)
    assert close(part.e_AW, whole.e_AW)
    np.testing.assert_array_equal(part.e_S, whole.e_S)


@pytest.mark.parametrize("paths_per_block, blocks", [(23, 3), (7, 8), (1, 50)])
def test_volterra_sups_blocks_match_one_block(monkeypatch, paths_per_block, blocks):
    # product scheme: residuals of order h, so `close` sees the reordering's roundoff
    table, psi, spec = volterra_problem(NONSYMMETRIC3, ExponentialKernel(), "product", "step")
    whole = volterra_sups(table, psi, spec, 50)
    calls = count_blocks(monkeypatch, paths_per_block, 3, 32)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # two workers on any machine
    for threads in (1, 2):
        assert close(volterra_sups(table, psi, spec, 50, threads=threads), whole)
    assert len(calls) == 2 * blocks


def count_pools(monkeypatch):
    """Record the worker count of every pool built; each is still a real pool."""
    pools = []
    build = noise.ThreadPoolExecutor

    def counted(max_workers):
        pools.append(max_workers)
        return build(max_workers)

    monkeypatch.setattr(noise, "ThreadPoolExecutor", counted)
    return pools


def covariance_problem():
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), -np.eye(2)), TimeGrid(1.0, 32))
    return table, np.eye(2), NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=9)


@pytest.mark.parametrize("experiment", ["covariance", "ito", "yosida-channels", "yosida-matrix"])
def test_a_threaded_stream_builds_one_pool(monkeypatch, experiment):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # two workers on any machine
    baseline = threading.active_count()
    if experiment == "covariance":
        table, B, spec = covariance_problem()
        blocks = count_blocks(monkeypatch, 7, 2, 32)
        pools = count_pools(monkeypatch)
        covariance_monte_carlo(table, B, spec.cov, spec, 150, 20, threads=2)
    elif experiment == "ito":
        table, B, xi, X0, spec = ito_problem()
        blocks = count_blocks(monkeypatch, 7, 2, 32)
        pools = count_pools(monkeypatch)
        ito_identity_statistics(table, B, xi, X0, spec, 150, threads=2)
    else:
        A = -np.diag(np.arange(1.0, 6.0))
        if experiment == "yosida-matrix":
            A += np.diag([0.3] * 4, 1)
        spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
        blocks = count_blocks(monkeypatch, 7, 5, 32)
        pools = count_pools(monkeypatch)
        yosida_convergence_study(
            ExponentialKernel(), A, ConstantDiffusion(np.eye(5)), spec, [0.2, 0.1],
            TimeGrid(1.0, 32), 150, threads=2,
        )
    assert len(blocks) == 22  # 150 paths, 7 a block: the last ragged
    assert pools == [2]
    assert threading.active_count() == baseline


def test_a_stream_that_raises_shuts_its_pool_down(monkeypatch):
    table, psi, spec = volterra_problem(ROTATED3, FractionalKernel(0.5), "conv", "constant")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # two workers on any machine
    baseline = threading.active_count()
    blocks = count_blocks(monkeypatch, 7, 4, 32)
    pools = count_pools(monkeypatch)

    def overflow_in_block_3(dw):
        if len(blocks) == 3:
            dw[2, 0, 5] = np.inf
        return convolution._volterra_sups(table, psi.values_on_grid(table.grid), dw)

    with pytest.raises(NumericalFailure, match="nonfinite"):
        convolution._per_path(overflow_in_block_3, spec, table.grid, 50, 2)
    assert len(blocks) == 3
    assert pools == [2]
    assert threading.active_count() == baseline


@pytest.mark.parametrize("psi_kind", ["constant", "step"])
def test_an_inf_increment_fails_its_block_without_a_runtime_warning(psi_kind):
    table, psi, spec = volterra_problem(ROTATED3, FractionalKernel(0.5), "conv", psi_kind)
    dw = sample_wiener_batch(spec, table.grid, range(4))
    dw[2, 0, 5] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="nonfinite"):
            convolution._volterra_sups(table, psi.values_on_grid(table.grid), dw)


@pytest.mark.parametrize("n_paths", [1, 4])
@pytest.mark.parametrize("entry", [1e308, np.inf], ids=["overflow", "inf"])
def test_convolve_paths_refuses_a_nonfinite_path_without_a_runtime_warning(n_paths, entry):
    # a path whose running sums pass the float range (or meet inf * 0) fails the whole
    # block with the typed error, not a RuntimeWarning from the lag sum's products
    table = ou_table(32)
    c = np.random.default_rng(5).standard_normal((n_paths, 32, 1))
    np.testing.assert_allclose(
        convolution._convolve_paths(table.S, c)[:, 1:, 0],
        np.stack([[table.S[n:0:-1, 0, 0] @ p[:n, 0] for n in range(1, 33)] for p in c]),
        rtol=1e-13,
        atol=1e-14,
    )
    c[-1, 3:5, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="nonfinite"):
            convolution._convolve_paths(table.S, c)


def inf_increments(spec, grid):
    """Increments of path 0 with one entry set to inf, as a WienerIncrements."""
    dW = sample_wiener(spec, grid).dW.copy()
    dW[0, 5] = np.inf
    return WienerIncrements(grid=grid, dW=dW, spec=spec)


# each routine that takes one path's increments, called on increments holding an inf; at
# the parent of this check the first four returned nan and the last two warned
INCREMENT_ROUTINES = {
    "stochastic_integral": lambda t, psi, path, inc: stochastic_integral(psi, inc()),
    "verify_volterra_identity": lambda t, psi, path, inc: verify_volterra_identity(
        path, t.kernel, psi, inc()
    ),
    "verify_weak_solution": lambda t, psi, path, inc: verify_weak_solution(
        path, t.kernel, np.ones(2), psi, inc()
    ),
    "verify_ito_identity": lambda t, psi, path, inc: verify_ito_identity(
        path, t.kernel, psi.B, ItoTestFunction.constant(np.ones(2)), inc()
    ),
    "stochastic_convolution": lambda t, psi, path, inc: stochastic_convolution(t, psi, inc()),
    "mild_solution": lambda t, psi, path, inc: mild_solution(t, np.ones(2), psi, inc()),
}


@pytest.mark.parametrize("routine", INCREMENT_ROUTINES)
def test_an_inf_increment_is_refused_with_a_value_error_and_no_warning(routine):
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), -np.eye(2)), TimeGrid(1.0, 16))
    spec, psi = unit_spec(2, seed=4), ConstantDiffusion(np.array([[1.0, 0.5], [0.0, 2.0]]))
    path = stochastic_convolution(table, psi, sample_wiener(spec, table.grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="increments must be finite"):
            INCREMENT_ROUTINES[routine](table, psi, path, lambda: inf_increments(spec, table.grid))


def count_grid_values(monkeypatch):
    """Record the grid size of every `values_on_grid` call of any integrand."""
    calls = []
    for cls in (noise.DiffusionProcess, noise.ConstantDiffusion):

        def counted(self, grid, original=cls.values_on_grid):
            calls.append(grid.N)
            return original(self, grid)

        monkeypatch.setattr(cls, "values_on_grid", counted)
    return calls


@pytest.mark.parametrize("experiment", ["verify_volterra", "yosida-channels", "yosida-matrix"])
def test_psi_is_evaluated_once_per_stream(monkeypatch, experiment):
    # a step psi over 8 blocks of paths: one grid evaluation serves every block
    table, psi, spec = volterra_problem(ROTATED3, FractionalKernel(0.5), "conv", "step")
    blocks = count_blocks(monkeypatch, 7, 3, 32)
    calls = count_grid_values(monkeypatch)
    if experiment == "verify_volterra":
        cli._run_verify_volterra(
            FractionalKernel(0.5), ROTATED3, table.grid, spec, psi, 50, "conv", threads=1
        )
    else:
        A = ROTATED3 if experiment == "yosida-channels" else NONSYMMETRIC3
        yosida_convergence_study(ExponentialKernel(), A, psi, spec, [0.2, 0.1], table.grid, 50)
    assert len(blocks) == 8
    assert calls == [32]


def test_the_paths_of_a_block_do_not_depend_on_threads(monkeypatch):
    # the Yosida Gram sums add blocks in order, so the partition must not move
    table, B, spec = covariance_problem()
    monkeypatch.setattr(convolution, "_MC_BLOCK", 7 * 2 * 32)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    expected = sample_wiener_batch(spec, table.grid, range(50))
    for threads in (1, 2, 3, 16):
        with convolution._path_blocks(spec, table.grid, 50, threads) as blocks:
            parts = list(blocks)
        assert [len(b) for b in parts] == [7] * 7 + [1]
        assert np.concatenate(parts).tobytes() == expected.tobytes()


def traced_peak(run):
    """Peak bytes numpy and Python allocate while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ito_statistics_memory_does_not_grow_with_paths(monkeypatch):
    table, B, xi, X0, spec = ito_problem(n=64)
    monkeypatch.setattr(convolution, "_MC_BLOCK", 64 * 2 * 64)  # 64 paths a block
    ito_identity_statistics(table, B, xi, X0, spec, 64)  # one-time allocations happen here
    peaks = [
        traced_peak(lambda: ito_identity_statistics(table, B, xi, X0, spec, 64 * blocks))
        for blocks in (1, 32)
    ]
    assert peaks[1] <= 1.5 * peaks[0]


def test_yosida_study_memory_does_not_grow_with_paths(monkeypatch):
    monkeypatch.setattr(convolution, "_MC_BLOCK", 64 * 5 * 64)  # 64 paths a block
    yosida_problem(64, n=64)  # one-time allocations happen here
    peaks = [traced_peak(lambda: yosida_problem(64 * blocks, n=64)) for blocks in (1, 32)]
    assert peaks[1] <= 1.5 * peaks[0]


def test_volterra_sups_memory_does_not_grow_with_paths(monkeypatch):
    table, psi, spec = volterra_problem(ROTATED3, FractionalKernel(0.5), "conv", "constant", 64)
    monkeypatch.setattr(convolution, "_MC_BLOCK", 64 * 4 * 64)  # 64 paths a block
    volterra_sups(table, psi, spec, 64)  # one-time allocations happen here
    peaks = [traced_peak(lambda: volterra_sups(table, psi, spec, 64 * blocks)) for blocks in (1, 32)]
    assert peaks[1] <= 1.5 * peaks[0]


# --- strong (Euler) vs mild consistency --------------------------------------------


def test_euler_timestepping_approaches_mild_solution():
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])
    spec = unit_spec(seed=808)
    psi = ConstantDiffusion(np.eye(1))
    x0 = np.array([1.0])
    base = sample_wiener(spec, TimeGrid(1.0, 512), path_id=3)

    def euler(inc):
        g = inc.grid
        X = np.empty(g.N + 1)
        X[0] = x0[0]
        ito = np.concatenate([[0.0], np.cumsum(inc.dW[0])])
        for n in range(1, g.N + 1):
            X[n] = x0[0] - g.h * np.sum(X[:n]) + ito[n]
        return X

    sup = {}
    for factor in (4, 2, 1):
        inc = coarsen(base, factor) if factor > 1 else base
        table = compute_resolvent(kern, inc.grid)
        xm = mild_solution(table, x0, psi, inc)
        sup[inc.grid.N] = float(np.max(np.abs(euler(inc) - xm.values[:, 0])))
    assert sup[128] / sup[256] >= 2**0.5
    assert sup[256] / sup[512] >= 2**0.5


# --- results past the float range --------------------------------------------------


def exp_table16():
    return compute_resolvent(ScalarTypeKernel(ExponentialKernel(), [[-1.0]]), TimeGrid(1.0, 16))


@pytest.mark.filterwarnings("error")
def test_covariance_quadrature_refuses_a_result_past_the_float_range():
    # B Q B' = 1e400: the trapezoid sum was [[inf]]
    table = exp_table16()
    with pytest.raises(NumericalFailure, match="covariance quadrature contains nonfinite"):
        covariance_quadrature(table, [[1e200]], CovOperator([1.0]), 16)
    assert np.all(np.isfinite(covariance_quadrature(table, [[1e150]], CovOperator([1.0]), 16)))


@pytest.mark.filterwarnings("error")
def test_covariance_monte_carlo_refuses_a_result_past_the_float_range():
    # paths near 1e200, their sample covariance near 1e400: it was [[inf]]
    table, spec = exp_table16(), unit_spec()
    with pytest.raises(NumericalFailure, match="sample covariance contains nonfinite"):
        covariance_monte_carlo(table, [[1e200]], spec.cov, spec, 100, 16)


@pytest.mark.filterwarnings("error")
def test_verify_ito_identity_refuses_residuals_past_the_float_range():
    # X0 = 1e308: the drift's sums overflow, and the residuals were nan
    table, spec = exp_table16(), unit_spec()
    inc, xi = sample_wiener(spec, table.grid), ItoTestFunction.constant([1.0])
    path = mild_solution(table, [1e308], ConstantDiffusion([[1.0]]), inc)
    with pytest.raises(NumericalFailure, match="Ito identity residual contains nonfinite"):
        verify_ito_identity(path, table.kernel, [[1.0]], xi, inc)


@pytest.mark.filterwarnings("error")
def test_ito_identity_statistics_refuse_a_statistic_past_the_float_range():
    # X0 = 1e308: the final residuals near 1e304 square past the float range in the rms
    table, spec = exp_table16(), unit_spec()
    xi = ItoTestFunction.constant([1.0])
    with pytest.raises(NumericalFailure, match="Ito identity summary contains nonfinite"):
        ito_identity_statistics(table, [[1.0]], xi, [1e308], spec, 10)
