import os

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    CovOperator,
    ExponentialKernel,
    FractionalKernel,
    LinearKernel,
    NoiseSpec,
    NumericalFailure,
    RuleDiffusion,
    ScalarTypeKernel,
    StepDiffusion,
    TimeGrid,
    accretivity_check,
    compute_resolvent,
    exponential_bound_fit,
    make_yosida,
    operator_2norm,
    sample_wiener_batch,
    yosida_convergence_study,
)
from stochvolterra import convolution, yosida
from stochvolterra.convolution import _convolve_paths
from stochvolterra.noise import _left_point_products


def test_accretivity_simple_cases():
    assert accretivity_check(-np.eye(3)).dissipative
    rep = accretivity_check(np.eye(2))
    assert not rep.dissipative
    assert rep.max_symmetric_eigenvalue == pytest.approx(1.0)


def test_accretivity_nonnormal_case():
    # symmetric part [[-1, 1], [1, -1]] has eigenvalues {0, -2}
    rep = accretivity_check(np.array([[-1.0, 2.0], [0.0, -1.0]]))
    assert rep.dissipative
    assert rep.max_symmetric_eigenvalue == pytest.approx(0.0, abs=1e-12)


def spy_accretivity(monkeypatch):
    """Record the matrix of every `accretivity_check` call made inside the yosida module."""
    calls = []

    def spy(A, original=yosida.accretivity_check):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(yosida, "accretivity_check", spy)
    return calls


def test_forced_family_runs_no_dissipativity_check(monkeypatch):
    calls = spy_accretivity(monkeypatch)
    A = np.array([[0.5, 1.0], [0.0, -1.0]])  # not dissipative
    forced = make_yosida(A, [0.5, 0.25], force=True)
    assert calls == []
    np.testing.assert_allclose(forced.J[0], np.linalg.inv(np.eye(2) - 0.5 * A), rtol=1e-14)
    with pytest.raises(ValueError, match="not dissipative"):
        make_yosida(A, [0.5, 0.25])
    assert len(calls) == 1


def test_study_checks_dissipativity_once(monkeypatch):
    # the study's own check drives its warning; the family it builds is forced
    calls = spy_accretivity(monkeypatch)
    grid = TimeGrid(1.0, 16)
    spec = NoiseSpec(cov=CovOperator(np.ones(1)), truncation=1, seed=2)
    with pytest.warns(UserWarning, match="not dissipative"):
        yosida_convergence_study(
            ExponentialKernel(), [[0.5]], ConstantDiffusion([[1.0]]), spec, [0.2, 0.1], grid, 4
        )
    assert len(calls) == 1


def test_make_yosida_refuses_an_identity_defect_past_its_tolerance():
    # eigenvalues 1 - 1e-10 and -1 in a rotated basis: at lam = 1, I - lam A is nearly
    # singular and the solve loses far more than the 1e-12 (1 + max|A|) allowance
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag([1.0 - 1e-10, -1.0]) @ R.T
    with pytest.raises(NumericalFailure, match="resolvent identity defect .* out of tolerance"):
        make_yosida(A, [1.0], force=True)


def test_scalar_family_closed_form():
    fam = make_yosida(np.array([[-1.0]]), [1.0])
    assert fam.J[0][0, 0] == pytest.approx(0.5)
    assert fam.A_lam[0][0, 0] == pytest.approx(-0.5)


def test_zero_operator_family():
    fam = make_yosida(np.zeros((2, 2)), [0.5, 0.25])
    np.testing.assert_allclose(fam.J, np.broadcast_to(np.eye(2), (2, 2, 2)), atol=1e-15)
    np.testing.assert_allclose(fam.A_lam, 0.0, atol=1e-15)


def test_identity_defect_and_contraction():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 4))
    A = -(M @ M.T)
    fam = make_yosida(A, [0.2, 0.1, 0.05])
    assert fam.identity_defect() <= 1e-10
    assert np.all(fam.resolvent_norms() <= 1.0 + 1e-10)


def test_approximation_error_closed_form():
    # for A = -diag(1..5): |A_lam - A| = max_k lam k^2/(1 + lam k)
    A = -np.diag(np.arange(1.0, 6.0))
    fam = make_yosida(A, [0.1, 0.05])
    for lam, Al in zip(fam.lambdas, fam.A_lam):
        expected = max(lam * k**2 / (1.0 + lam * k) for k in range(1, 6))
        assert operator_2norm(Al - A) == pytest.approx(expected, rel=1e-9)
    # first-order behaviour: the closed form makes the halving ratio exactly 5/3
    e1 = operator_2norm(fam.A_lam[0] - A)
    e2 = operator_2norm(fam.A_lam[1] - A)
    assert e1 / e2 == pytest.approx(5.0 / 3.0, rel=1e-9)
    assert 1.6 <= e1 / e2 <= 2.3


def test_family_validation():
    with pytest.raises(ValueError):
        make_yosida(-np.eye(2), [0.1, 0.2])  # not decreasing
    with pytest.raises(ValueError):
        make_yosida(-np.eye(2), [0.1, -0.1])
    with pytest.raises(ValueError):
        make_yosida(np.eye(2), [0.1])  # not dissipative without force
    fam = make_yosida(np.eye(2), [0.1], force=True)
    assert fam.J.shape == (1, 2, 2)


@pytest.mark.parametrize("lambdas", [[np.inf, 1.0], [np.inf]])
def test_an_infinite_lambda_is_refused(lambdas):
    # accepted, J = (I - inf A)^-1 would fill the family with nan and the identity
    # check would fail with "defect nan out of tolerance"
    with pytest.raises(ValueError, match="finite"):
        make_yosida(-np.eye(2), lambdas)


def test_singular_regularization_named():
    with pytest.raises(NumericalFailure, match="lam=0.5"):
        make_yosida(np.array([[2.0]]), [0.5], force=True)


def _study(n_paths=300, lambdas=(0.2, 0.1), psi_matrix=None, kernel=None):
    A = -np.diag(np.arange(1.0, 6.0))
    psi = ConstantDiffusion(np.eye(5) if psi_matrix is None else psi_matrix)
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    return yosida_convergence_study(
        kernel or ExponentialKernel(),
        A,
        psi,
        spec,
        list(lambdas),
        TimeGrid(1.0, 64),
        n_paths,
    )


def test_study_columns_decrease():
    study = _study()
    assert np.all(np.diff(study.e_S) < 0)
    assert np.all(np.diff(study.e_W) < 0)
    assert np.all(np.diff(study.e_AW) < 0)
    assert study.cp_consistent
    assert study.bound_M <= 1.1
    assert study.bound_w <= 0.05


def test_study_zero_integrand():
    study = _study(n_paths=50, psi_matrix=np.zeros((5, 5)))
    np.testing.assert_array_equal(study.e_W, 0.0)
    np.testing.assert_array_equal(study.e_AW, 0.0)


def test_study_trivializes_for_tiny_lambda():
    study = _study(n_paths=50, lambdas=(1e-6,))
    assert study.e_S[0] < 1e-4


def test_study_warns_on_hypothesis_violation():
    with pytest.warns(UserWarning, match="kernel hypothesis"):
        _study(n_paths=50, kernel=LinearKernel())
    A = np.diag([1.0, -1.0])
    psi = ConstantDiffusion(np.eye(2))
    spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=1)
    with pytest.warns(UserWarning, match="dissipative"):
        yosida_convergence_study(
            ExponentialKernel(), A, psi, spec, [0.1], TimeGrid(1.0, 32), 50
        )


def test_study_probe_refusal_is_advisory():
    # FractionalKernel(0.2) on the probe's 256 cells: product's first step at mu = 10 is
    # -0.29, so the probe refuses; the study warns and completes
    with pytest.warns(UserWarning, match="probe refused: product's first step -0.285 at mu=10"):
        study = _study(n_paths=50, kernel=FractionalKernel(0.2))
    assert not study.cp_consistent
    assert np.all(np.isfinite(study.e_W)) and np.all(np.isfinite(study.e_AW))


def test_study_threads_do_not_change_results(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # four workers on any machine
    A = -np.diag(np.arange(1.0, 6.0))
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (ExponentialKernel(), A, psi, spec, [0.2, 0.1], TimeGrid(1.0, 64), 64)
    a = yosida_convergence_study(*args, threads=1)
    b = yosida_convergence_study(*args, threads=4)
    np.testing.assert_array_equal(a.e_W, b.e_W)
    np.testing.assert_array_equal(a.e_AW, b.e_AW)
    np.testing.assert_array_equal(a.e_S, b.e_S)


# --- the channel route (exactly symmetric A) against the matrix route --------------


def rotated_diag5(seed=7):
    """-diag(1..5) in a random orthonormal basis, exactly symmetric."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
    A = Q @ np.diag(-np.arange(1.0, 6.0)) @ Q.T
    return 0.5 * (A + A.T)


def matrix_route_reference(a, A, psi, spec, lambdas, grid, n_paths, scheme):
    """e_S, e_W, e_AW, bound_M and bound_w from d x d tables, path by path."""
    family = make_yosida(A, lambdas)
    base = compute_resolvent(ScalarTypeKernel(a, A), grid, scheme=scheme)
    tables = [
        compute_resolvent(ScalarTypeKernel(a, Al), grid, scheme=scheme) for Al in family.A_lam
    ]
    dw = sample_wiener_batch(spec, grid, range(n_paths))
    c = _left_point_products(psi.values_on_grid(grid), dw).swapaxes(1, 2)
    W = _convolve_paths(base.S, c)
    e_S, e_W, e_AW = [], [], []
    for Al, tb in zip(family.A_lam, tables):
        e_S.append(np.max(operator_2norm(tb.S - base.S)))
        W_lam = _convolve_paths(tb.S, c)
        e_W.append(np.max(np.sum((W_lam - W) ** 2, axis=(0, 2)) / n_paths))
        e_AW.append(np.max(np.sum((W_lam @ Al.T - W @ A.T) ** 2, axis=(0, 2)) / n_paths))
    fits = [exponential_bound_fit(tb) for tb in tables + [base]]
    bound = (max(f.M for f in fits), max(f.w for f in fits))
    return np.array(e_S), np.array(e_W), np.array(e_AW), bound


def assert_matches_matrix_route(args, scheme):
    """The study's columns and bound against `matrix_route_reference`, to 1e-12 relative."""
    study = yosida_convergence_study(*args, scheme=scheme)
    e_S, e_W, e_AW, (M, w) = matrix_route_reference(*args, scheme)
    np.testing.assert_allclose(study.e_S, e_S, rtol=1e-12, atol=0)
    np.testing.assert_allclose(study.e_W, e_W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(study.e_AW, e_AW, rtol=1e-12, atol=0)
    assert study.bound_M == pytest.approx(M, rel=1e-12, abs=0)
    assert study.bound_w == pytest.approx(w, rel=1e-12, abs=0)


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("a", [ExponentialKernel(), FractionalKernel(0.5)], ids=["exp", "frac"])
def test_channel_route_matches_the_matrix_route(a, scheme):
    A = rotated_diag5()
    psi = ConstantDiffusion(np.random.default_rng(3).standard_normal((5, 5)))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (a, A, psi, spec, [0.2, 0.1, 0.05], TimeGrid(1.0, 64), 100)
    assert_matches_matrix_route(args, scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_channel_route_with_fewer_paths_than_cells(scheme):
    # 8 paths on 64 cells: each channel's increment Gram matrix has rank 8 of 64
    psi = ConstantDiffusion(np.random.default_rng(3).standard_normal((5, 5)))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (ExponentialKernel(), rotated_diag5(), psi, spec, [0.2, 0.1, 0.05], TimeGrid(1.0, 64), 8)
    assert_matches_matrix_route(args, scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_channel_route_over_ragged_blocks(monkeypatch, scheme):
    monkeypatch.setattr(convolution, "_MC_BLOCK", 5 * 64 * 7)  # 7 paths a block: 14 + 2
    psi = ConstantDiffusion(np.random.default_rng(3).standard_normal((5, 5)))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (FractionalKernel(0.5), rotated_diag5(), psi, spec, [0.2, 0.1], TimeGrid(1.0, 64), 100)
    assert_matches_matrix_route(args, scheme)


def step_psi():
    """Three pieces on 64 cells: 0.25 starts on node 16, 0.3 between nodes 19 and 20."""
    B = np.random.default_rng(3).standard_normal((5, 5))
    return StepDiffusion([0.0, 0.25, 0.3], [B, 0.5 * B.T, np.eye(5)])


def rule_psi():
    """A smoothly varying integrand: every node is its own run of equal values."""
    B, C = np.random.default_rng(4).standard_normal((2, 5, 5))
    return RuleDiffusion(lambda t: np.cos(3.0 * t) * B + t * C, (5, 5))


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("truncation", [5, 3])
@pytest.mark.parametrize("make_psi", [step_psi, rule_psi], ids=["step", "rule"])
def test_channel_route_matches_the_matrix_route_on_varying_integrands(make_psi, truncation, scheme):
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=truncation, seed=515)
    psi, grid = make_psi(), TimeGrid(1.0, 64)
    args = (ExponentialKernel(), rotated_diag5(), psi, spec, [0.2, 0.1, 0.05], grid, 100)
    assert_matches_matrix_route(args, scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("paths_per_block", [None, 7], ids=["one-block", "ragged"])
def test_channel_route_on_cells_not_a_multiple_of_the_end_chunk(
    monkeypatch, paths_per_block, scheme
):
    # 70 cells: the end step's last chunk holds 6 nodes; 20 paths on 70 cells, truncated noise
    if paths_per_block:
        monkeypatch.setattr(convolution, "_MC_BLOCK", 3 * 70 * paths_per_block)  # 7 + 7 + 6
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=3, seed=515)
    psi, grid = step_psi(), TimeGrid(1.0, 70)
    args = (FractionalKernel(0.5), rotated_diag5(), psi, spec, [0.2, 0.1], grid, 20)
    assert_matches_matrix_route(args, scheme)


@pytest.mark.parametrize(
    "psi, widths",
    [(ConstantDiffusion(np.eye(5)), [64]), (step_psi(), [16, 4, 44]), (rule_psi(), [1] * 64)],
    ids=["constant", "step", "rule"],
)
def test_channel_route_rotates_a_block_once_per_run_of_equal_values(monkeypatch, psi, widths):
    seen, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        seen.append(b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(yosida.np, "matmul", spy)
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    yosida_convergence_study(
        ExponentialKernel(), rotated_diag5(), psi, spec, [0.2, 0.1], TimeGrid(1.0, 64), 10
    )
    assert seen == widths


@pytest.mark.parametrize("symmetric", [True, False], ids=["channel", "matrix"])
def test_too_few_cells_raise_before_sampling(monkeypatch, symmetric):
    def no_sampling(*args, **kwargs):
        raise AssertionError("paths sampled before the grid was checked")

    monkeypatch.setattr(convolution, "sample_wiener_batch", no_sampling)
    A = rotated_diag5() if symmetric else -np.diag(np.arange(1.0, 6.0)) + np.diag([0.5] * 4, 1)
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    with pytest.raises(ValueError, match="at least 8 cells"):
        yosida_convergence_study(
            ExponentialKernel(), A, psi, spec, [0.2, 0.1], TimeGrid(1.0, 4), 20000
        )


def test_nonsymmetric_dissipative_operator_columns_decrease():
    A = -np.diag(np.arange(1.0, 6.0)) + np.diag([0.5, 0.4, 0.3, 0.2], 1)
    assert not np.array_equal(A, A.T) and accretivity_check(A).dissipative
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    study = yosida_convergence_study(
        ExponentialKernel(), A, psi, spec, [0.2, 0.1, 0.05], TimeGrid(1.0, 64), 300
    )
    assert np.all(np.diff(study.e_S) < 0)
    assert np.all(np.diff(study.e_W) < 0)
    assert np.all(np.diff(study.e_AW) < 0)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_nonsymmetric_operator_matches_the_matrix_route(scheme):
    # one batched d x d march for the base and every A_lam table, against separate tables
    A = -np.diag(np.arange(1.0, 6.0)) + np.diag([0.5, 0.4, 0.3, 0.2], 1)
    psi = ConstantDiffusion(np.random.default_rng(3).standard_normal((5, 5)))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (FractionalKernel(0.5), A, psi, spec, [0.2, 0.1, 0.05], TimeGrid(1.0, 64), 100)
    assert_matches_matrix_route(args, scheme)


@pytest.mark.filterwarnings("ignore:A is not dissipative")
@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_nonsymmetric_operator_with_a_nonpositive_step_is_refused(scheme):
    psi = ConstantDiffusion(np.eye(2))
    spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=1)
    with pytest.raises(NumericalFailure, match="nonpositive diagonal coefficient .* mu=-50"):
        yosida_convergence_study(
            ExponentialKernel(), [[50.0, 1.0], [0.0, 50.0]], psi, spec, [0.2], TimeGrid(1.0, 8), 4,
            scheme=scheme,
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A", [[[-1.0]], [[-1.0, 0.3], [0.0, -2.0]]], ids=["channels", "matrix"])
def test_gaps_past_the_float_range_are_refused_on_both_routes(A):
    # psi = 1e200: the paths' squared gaps pass the float range; e_W was nan on the
    # channel route and inf on the matrix route, after RuntimeWarnings
    d = len(A)
    psi = ConstantDiffusion(1e200 * np.eye(d))
    spec = NoiseSpec(cov=CovOperator(np.ones(d)), truncation=d, seed=3)
    args = (ExponentialKernel(), A, psi, spec, [0.1, 0.05], TimeGrid(1.0, 16), 20)
    with pytest.raises(NumericalFailure, match="Yosida study gaps contains nonfinite values"):
        yosida_convergence_study(*args)


def test_channel_route_threads_do_not_change_results(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # four workers on any machine
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (ExponentialKernel(), rotated_diag5(), psi, spec, [0.2, 0.1], TimeGrid(1.0, 64), 64)
    a = yosida_convergence_study(*args, threads=1)
    b = yosida_convergence_study(*args, threads=4)
    for name in ("e_S", "e_W", "e_AW", "bound_M", "bound_w"):
        assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
