"""Integer and finiteness checks at the public entry points.

Integer inputs (grid sizes, seeds, truncations, path ids, node indices, path
counts, shapes, thread counts) are Python or numpy integers; bools and floats,
integral or not, raise ValueError.  Orderings, matrices, state vectors, relaxation
coefficients and tolerances holding a NaN raise too, and integrands, operators and
state vectors of the wrong shape raise DimensionMismatch or ValueError.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    DimensionMismatch,
    ExponentialKernel,
    ItoTestFunction,
    LinearKernel,
    NoiseSpec,
    NonscalarKernel,
    RuleDiffusion,
    ScalarTypeKernel,
    StepDiffusion,
    TabulatedKernel,
    TimeGrid,
    accretivity_check,
    check_complete_positivity,
    compute_resolvent,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    make_yosida,
    mild_solution,
    sample_wiener,
    sample_wiener_batch,
    solve_scalar_resolvent,
    stochastic_convolution,
    verify_ito_identity,
    verify_volterra_identity,
    verify_weak_solution,
    yosida_convergence_study,
)

NAN = float("nan")


def spec_with(dim=1, truncation=None, seed=7):
    return NoiseSpec(CovOperator(np.ones(dim)), truncation or dim, seed)


def exp_table(N=8):
    return compute_resolvent(ScalarTypeKernel(ExponentialKernel(), [[-1.0]]), TimeGrid(1.0, N))


# --- integers ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [2.5, np.float64(2.0), True, np.bool_(True), "2"])
def test_non_integer_path_id_is_rejected(bad):
    # a float id used to reuse the stream of its integer part under its own label
    with pytest.raises(ValueError):
        sample_wiener(spec_with(), TimeGrid(1.0, 8), path_id=bad)


@pytest.mark.parametrize("ids", [[0.5, 1.7], [0, True], [0, 1, 2.0]])
def test_batch_with_a_non_integer_path_id_is_rejected(ids):
    for threads in (1, 2):
        with pytest.raises(ValueError):
            sample_wiener_batch(spec_with(), TimeGrid(1.0, 8), ids, threads=threads)


def test_numpy_integer_path_ids_give_the_same_streams():
    spec, grid = spec_with(2), TimeGrid(1.0, 8)
    expected = sample_wiener_batch(spec, grid, [0, 3, 2**64 - 1])
    ids = [np.int64(0), np.uint8(3), np.uint64(2**64 - 1)]
    assert sample_wiener_batch(spec, grid, ids).tobytes() == expected.tobytes()
    assert sample_wiener_batch(spec, grid, np.array([0, 3])).tobytes() == expected[:2].tobytes()
    assert sample_wiener(spec, grid, np.uint64(3)).dW.tobytes() == expected[1].tobytes()


def test_time_grid_accepts_numpy_integers():
    for N in 2 ** np.arange(5, 8):
        grid = TimeGrid(1.0, N)
        assert type(grid.N) is int and grid == TimeGrid(1.0, int(N))
        assert grid.nodes().tobytes() == TimeGrid(1.0, int(N)).nodes().tobytes()


@pytest.mark.parametrize("bad", [2.5, 8.0, True, "8", 0, -3])
def test_time_grid_rejects_non_integers_and_nonpositive_sizes(bad):
    with pytest.raises(ValueError):
        TimeGrid(1.0, bad)


def test_noise_spec_accepts_numpy_integers():
    seed = np.random.default_rng(0).integers(2**63)
    spec = NoiseSpec(CovOperator(np.ones(3)), np.int64(2), seed)
    assert type(spec.truncation) is int and type(spec.seed) is int
    expected = sample_wiener(NoiseSpec(CovOperator(np.ones(3)), 2, int(seed)), TimeGrid(1.0, 8))
    assert sample_wiener(spec, TimeGrid(1.0, 8)).dW.tobytes() == expected.dW.tobytes()


@pytest.mark.parametrize(
    "truncation, seed", [(True, 1), (1.0, 1), (1, True), (1, 1.5), (1, -1), (1, 2**64)]
)
def test_noise_spec_rejects_bools_floats_and_out_of_range(truncation, seed):
    with pytest.raises(ValueError):
        NoiseSpec(CovOperator(np.ones(2)), truncation, seed)


@pytest.mark.parametrize("bad", [8.7, True])
def test_complete_positivity_grid_size_must_be_an_integer(bad):
    # int() coercion once probed 8 cells for N = 8.7 and 1 cell for N = True
    with pytest.raises(ValueError):
        check_complete_positivity(ExponentialKernel(), N=bad)


def test_complete_positivity_accepts_a_numpy_grid_size():
    ref = check_complete_positivity(ExponentialKernel(), N=64)
    rep = check_complete_positivity(ExponentialKernel(), N=np.int64(64))
    assert rep.grid == ref.grid
    for a, b in zip(rep.probes, ref.probes):
        assert a.path.s.tobytes() == b.path.s.tobytes()


@pytest.mark.parametrize("shape", [(2.5, 1), (True, 1), (1, 0), (1, 2, 3)])
def test_rule_diffusion_shape_must_be_two_positive_integers(shape):
    with pytest.raises(ValueError):
        RuleDiffusion(lambda t: np.zeros((1, 1)), shape)


def test_t_index_must_be_an_integer():
    # a float index once ended in a TypeError from slicing
    table, spec = exp_table(), spec_with()
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            covariance_quadrature(table, [[1.0]], spec.cov, bad)
        with pytest.raises(ValueError):
            covariance_monte_carlo(table, [[1.0]], spec.cov, spec, 100, bad)
    expected = covariance_quadrature(table, [[1.0]], spec.cov, 3)
    assert np.array_equal(covariance_quadrature(table, [[1.0]], spec.cov, np.int64(3)), expected)


def test_path_counts_must_be_integers():
    table, spec, grid = exp_table(), spec_with(), TimeGrid(1.0, 8)
    xi = ItoTestFunction.constant([1.0])
    with pytest.raises(ValueError):
        covariance_monte_carlo(table, [[1.0]], spec.cov, spec, 150.5, 2)
    with pytest.raises(ValueError):
        ito_identity_statistics(table, [[1.0]], xi, [0.0], spec, 2.5)
    psi = ConstantDiffusion([[1.0]])
    for bad in (2.5, 0):  # no paths once divided zero sums by zero
        with pytest.raises(ValueError):
            yosida_convergence_study(ExponentialKernel(), [[-1.0]], psi, spec, [0.1], grid, bad)
    est = covariance_monte_carlo(table, [[1.0]], spec.cov, spec, np.int64(100), 2)
    ref = covariance_monte_carlo(table, [[1.0]], spec.cov, spec, 100, 2)
    assert type(est.n_paths) is int and np.array_equal(est.sample_cov, ref.sample_cov)


# --- NaN ---------------------------------------------------------------------


def test_tabulated_kernel_rejects_a_nan_abscissa():
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, NAN, 2.0], [1.0, 1.0, 1.0])


def test_step_diffusion_rejects_a_nan_breakpoint():
    with pytest.raises(ValueError):
        StepDiffusion([0.0, NAN], [[[1.0]], [[2.0]]])


def test_yosida_family_rejects_a_nan_lambda():
    with pytest.raises(ValueError):
        make_yosida([[-1.0]], [0.1, NAN])


def test_forced_yosida_family_of_a_nan_operator_fails():
    # rejected at the input since operators are checked by `spaces._square`
    with pytest.raises(ValueError, match="finite"):
        make_yosida([[NAN]], [0.1], force=True)


def test_integrands_reject_nonfinite_matrices():
    for bad in (NAN, np.inf):
        with pytest.raises(ValueError):
            ConstantDiffusion([[bad]])
        with pytest.raises(ValueError):
            StepDiffusion([0.0, 0.5], [[[1.0]], [[bad]]])
        with pytest.raises(ValueError):
            RuleDiffusion(lambda t: np.full((1, 1), bad), (1, 1)).value(0.25)


def test_covariance_rejects_a_nan_operator():
    # both once returned [[nan]]
    table, spec = exp_table(), spec_with()
    with pytest.raises(ValueError):
        covariance_quadrature(table, [[NAN]], spec.cov, 4)
    with pytest.raises(ValueError):
        covariance_monte_carlo(table, [[NAN]], spec.cov, spec, 100, 4)


@pytest.mark.parametrize(
    "make", [lambda: ExponentialKernel(NAN), lambda: ExponentialKernel(1.0, NAN),
             lambda: ConstantKernel(NAN)]
)
def test_kernel_constants_reject_nan(make):
    with pytest.raises(ValueError):
        make()


# --- relaxation checks: non-finite mu and tol --------------------------------


@pytest.mark.parametrize("mu", [NAN, np.inf, -np.inf])
def test_relaxation_rejects_a_non_finite_mu(mu):
    # once marched and reported "overflow at step 1: sup entry nan"
    with pytest.raises(ValueError, match="mu must be finite"):
        solve_scalar_resolvent(ExponentialKernel(), mu, TimeGrid(1.0, 16))


@pytest.mark.parametrize("mu", [NAN, np.inf, -1.0])
def test_complete_positivity_rejects_a_non_finite_or_negative_mu(mu):
    with pytest.raises(ValueError, match="finite mu >= 0"):
        check_complete_positivity(ExponentialKernel(), mu_list=[1.0, mu], N=16)


@pytest.mark.parametrize("tol", [NAN, np.inf, -1.0])
def test_complete_positivity_rejects_a_non_finite_or_negative_tolerance(tol):
    # nan and inf once reported the linear kernel as consistent with complete
    # positivity, -1 the exponential kernel as not completely positive
    for kernel in (LinearKernel(), ExponentialKernel()):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_complete_positivity(kernel, N=64, tol=tol)


# --- threads -----------------------------------------------------------------


@pytest.mark.parametrize("bad", [2.5, 0, True, "2"])
def test_thread_counts_must_be_positive_integers(bad, monkeypatch):
    # 2.5 once reached range() on machines with 3 or more CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    table, spec, grid = exp_table(), spec_with(), TimeGrid(1.0, 8)
    with pytest.raises(ValueError, match="threads"):
        sample_wiener_batch(spec, grid, [0, 1, 2], threads=bad)
    with pytest.raises(ValueError, match="threads"):
        covariance_monte_carlo(table, [[1.0]], spec.cov, spec, 100, 2, threads=bad)
    xi = ItoTestFunction.constant([1.0])
    with pytest.raises(ValueError, match="threads"):
        ito_identity_statistics(table, [[1.0]], xi, [0.0], spec, 4, threads=bad)
    psi = ConstantDiffusion([[1.0]])
    with pytest.raises(ValueError, match="threads"):
        yosida_convergence_study(
            ExponentialKernel(), [[-1.0]], psi, spec, [0.1], grid, 4, threads=bad
        )


def test_numpy_thread_counts_give_the_same_batch():
    spec, grid = spec_with(2), TimeGrid(1.0, 8)
    expected = sample_wiener_batch(spec, grid, range(5), threads=2)
    assert sample_wiener_batch(spec, grid, range(5), np.int64(2)).tobytes() == expected.tobytes()


# --- integrand shapes against the state and the noise ------------------------


def table_2d(scheme="conv", N=8):
    kernel = ScalarTypeKernel(ExponentialKernel(), [[-1.0, 0.2], [0.0, -2.0]])
    return compute_resolvent(kernel, TimeGrid(1.0, N), scheme=scheme)


@pytest.mark.parametrize("shape", [(2, 3), (2, 1), (3, 2), (1, 2)])
def test_monte_carlo_routines_reject_an_integrand_of_the_wrong_shape(shape):
    # a 2x3 B or psi against 2-mode noise once lost its third column silently
    table, spec = table_2d("product"), spec_with(2)
    B = np.ones(shape)
    xi = ItoTestFunction.constant([1.0, 0.5])
    with pytest.raises(DimensionMismatch):
        covariance_monte_carlo(table, B, spec.cov, spec, 100, 4)
    with pytest.raises(DimensionMismatch):
        ito_identity_statistics(table, B, xi, [0.0, 0.0], spec, 4)
    with pytest.raises(DimensionMismatch):
        yosida_convergence_study(
            ExponentialKernel(), [[-1.0, 0.0], [0.0, -2.0]], ConstantDiffusion(B), spec,
            [0.1], table.grid, 4,
        )
    with pytest.raises(DimensionMismatch):
        covariance_quadrature(table, B, spec.cov, 4)


def test_ito_identity_rejects_an_integrand_of_the_wrong_shape():
    table, spec = table_2d("product"), spec_with(2)
    inc = sample_wiener(spec, table.grid)
    x_path = mild_solution(table, [1.0, 0.0], ConstantDiffusion(np.eye(2)), inc)
    xi = ItoTestFunction.constant([1.0, 0.5])
    for shape in ((2, 3), (2, 1)):
        with pytest.raises(DimensionMismatch):
            verify_ito_identity(x_path, table.kernel, np.ones(shape), xi, inc)


def test_ito_entries_reject_a_test_vector_or_kernel_of_another_dimension():
    # a 1-d xi0 against a 2-d state once reached numpy's matmul and its raw ValueError
    table, spec = table_2d("product"), spec_with(2)
    inc = sample_wiener(spec, table.grid)
    x_path = mild_solution(table, [1.0, 0.0], ConstantDiffusion(np.eye(2)), inc)
    short = ItoTestFunction.constant([1.0])
    with pytest.raises(DimensionMismatch, match="xi0"):
        ito_identity_statistics(table, np.eye(2), short, [0.0, 0.0], spec, 4)
    with pytest.raises(DimensionMismatch, match="xi0"):
        verify_ito_identity(x_path, table.kernel, np.eye(2), short, inc)
    xi = ItoTestFunction.constant([1.0, 0.5])
    kernel_1d = ScalarTypeKernel(ExponentialKernel(), [[-1.0]])
    with pytest.raises(DimensionMismatch, match="kernel"):
        ito_identity_statistics(
            replace(table, kernel=kernel_1d), np.eye(2), xi, [0.0, 0.0], spec, 4
        )
    with pytest.raises(DimensionMismatch, match="kernel"):
        verify_ito_identity(x_path, kernel_1d, np.eye(2), xi, inc)


def test_volterra_identity_rejects_an_integrand_of_the_wrong_shape():
    # a 1x2 psi against a 2-d path once broadcast to a residual of 1.9
    table, spec = table_2d(), spec_with(2)
    inc = sample_wiener(spec, table.grid)
    path = stochastic_convolution(table, ConstantDiffusion(np.eye(2)), inc)
    for shape in ((1, 2), (2, 3)):
        with pytest.raises(DimensionMismatch):
            verify_volterra_identity(path, table.kernel, ConstantDiffusion(np.ones(shape)), inc)


def test_weak_identity_rejects_an_integrand_or_operator_of_the_wrong_shape():
    # a 2x3 psi once lost a column (residual 1.2); a 3x3 or 1x1 A raised a raw
    # numpy error
    table, spec = table_2d(), spec_with(2)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.eye(2))
    path = stochastic_convolution(table, psi, inc)
    a, xi = ExponentialKernel(), np.ones(2)
    with pytest.raises(DimensionMismatch):
        verify_weak_solution(path, table.kernel, xi, ConstantDiffusion(np.ones((2, 3))), inc)
    for bad in (np.eye(3), [[-1.0]]):
        with pytest.raises(DimensionMismatch):
            verify_weak_solution(path, ScalarTypeKernel(a, bad), xi, psi, inc)
    with pytest.raises(DimensionMismatch):
        verify_weak_solution(path, table.kernel, np.ones(3), psi, inc)


def test_weak_identity_rejects_a_nan_operator_or_functional():
    # both once returned a nan residual
    table, spec = table_2d(), spec_with(2)
    inc = sample_wiener(spec, table.grid)
    psi = ConstantDiffusion(np.eye(2))
    path = stochastic_convolution(table, psi, inc)
    A, a = np.array(table.kernel.A), ExponentialKernel()
    A[0, 1] = NAN
    with pytest.raises(ValueError, match="finite"):
        verify_weak_solution(path, ScalarTypeKernel(a, A), np.ones(2), psi, inc)
    with pytest.raises(ValueError, match="finite"):
        verify_weak_solution(path, table.kernel, [1.0, NAN], psi, inc)


# --- operators and state vectors ---------------------------------------------


@pytest.mark.parametrize("bad", [NAN, np.inf])
def test_operators_must_be_finite(bad):
    # accretivity once reported a nan eigenvalue, and a nonscalar kernel failed
    # only in the march ("overflow at step 1"): its terms now refuse it when built
    with pytest.raises(ValueError, match="finite"):
        accretivity_check([[bad]])
    with pytest.raises(ValueError, match="finite"):
        ScalarTypeKernel(ExponentialKernel(), [[bad]])


@pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 2)])
def test_operators_must_be_square_matrices(shape):
    for check in (
        accretivity_check,
        lambda A: NonscalarKernel([ScalarTypeKernel(ExponentialKernel(), A)]),
        lambda A: ScalarTypeKernel(ExponentialKernel(), A),
    ):
        with pytest.raises(ValueError):
            check(np.zeros(shape))


@pytest.mark.parametrize("bad", [NAN, np.inf])
def test_state_vectors_must_be_finite(bad):
    # each once returned nan values or residuals
    table, spec = exp_table(), spec_with()
    inc = sample_wiener(spec, table.grid)
    with pytest.raises(ValueError, match="X0 must have finite entries"):
        mild_solution(table, [bad], ConstantDiffusion([[1.0]]), inc)
    xi = ItoTestFunction.constant([1.0])
    with pytest.raises(ValueError, match="X0 must have finite entries"):
        ito_identity_statistics(table, [[1.0]], xi, [bad], spec, 4)
    with pytest.raises(ValueError, match="xi0 must have finite entries"):
        ItoTestFunction.constant([bad])


def test_state_vectors_must_have_the_state_dimension():
    table, spec = exp_table(), spec_with()
    xi = ItoTestFunction.constant([1.0])
    with pytest.raises(DimensionMismatch):
        ito_identity_statistics(table, [[1.0]], xi, [0.0, 0.0], spec, 4)
    with pytest.raises(DimensionMismatch):
        mild_solution(table, 1.0, ConstantDiffusion([[1.0]]), sample_wiener(spec, table.grid))
    with pytest.raises(DimensionMismatch):
        ItoTestFunction.constant([[1.0]])
