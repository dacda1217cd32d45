"""Integer and finiteness checks at the public entry points.

Integer inputs (grid sizes, seeds, truncations, path ids, node indices, path
counts, shapes) are Python or numpy integers; bools and floats, integral or
not, raise ValueError.  Orderings and matrices holding a NaN raise too.
"""

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    ExponentialKernel,
    ItoTestFunction,
    NoiseSpec,
    RuleDiffusion,
    ScalarTypeKernel,
    StepDiffusion,
    TabulatedKernel,
    TimeGrid,
    check_complete_positivity,
    compute_resolvent,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    make_yosida,
    sample_wiener,
    sample_wiener_batch,
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
    with pytest.raises(ArithmeticError):
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
