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
    ScalarTypeKernel,
    TimeGrid,
    accretivity_check,
    compute_resolvent,
    exponential_bound_fit,
    make_yosida,
    operator_2norm,
    sample_wiener_batch,
    yosida_convergence_study,
)
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
    c = _left_point_products(psi, grid, sample_wiener_batch(spec, grid, range(n_paths)))
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


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("a", [ExponentialKernel(), FractionalKernel(0.5)], ids=["exp", "frac"])
def test_channel_route_matches_the_matrix_route(a, scheme):
    A = rotated_diag5()
    psi = ConstantDiffusion(np.random.default_rng(3).standard_normal((5, 5)))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (a, A, psi, spec, [0.2, 0.1, 0.05], TimeGrid(1.0, 64), 100)
    study = yosida_convergence_study(*args, scheme=scheme)
    e_S, e_W, e_AW, (M, w) = matrix_route_reference(*args, scheme)
    np.testing.assert_allclose(study.e_S, e_S, rtol=1e-12, atol=0)
    np.testing.assert_allclose(study.e_W, e_W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(study.e_AW, e_AW, rtol=1e-12, atol=0)
    assert study.bound_M == pytest.approx(M, rel=1e-12, abs=0)
    assert study.bound_w == pytest.approx(w, rel=1e-12, abs=0)


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


def test_channel_route_threads_do_not_change_results(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # four workers on any machine
    psi = ConstantDiffusion(np.eye(5))
    spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515)
    args = (ExponentialKernel(), rotated_diag5(), psi, spec, [0.2, 0.1], TimeGrid(1.0, 64), 64)
    a = yosida_convergence_study(*args, threads=1)
    b = yosida_convergence_study(*args, threads=4)
    for name in ("e_S", "e_W", "e_AW", "bound_M", "bound_w"):
        assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
