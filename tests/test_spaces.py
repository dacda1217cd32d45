import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochvolterra import CovOperator, DimensionMismatch, HSOperator, NumericalFailure, hs_norm


def test_identity_case():
    B = HSOperator(np.eye(3))
    Q = CovOperator(np.ones(3))
    assert hs_norm(B, Q) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_zero_operator():
    assert hs_norm(HSOperator(np.zeros((4, 2))), CovOperator(np.array([1.0, 2.0]))) == 0.0


def test_diag_case_with_trace_oracle():
    # sqrt(1*4 + 4*1) = sqrt(8), and the explicit trace Tr(B Q B') must agree
    B = np.diag([1.0, 2.0])
    Q = CovOperator(np.array([4.0, 1.0]))
    val = hs_norm(HSOperator(B), Q)
    assert val == pytest.approx(np.sqrt(8.0), rel=1e-14)
    trace = np.trace(B @ np.diag(Q.q) @ B.T)
    assert val**2 == pytest.approx(trace, rel=1e-14)


def test_dimension_mismatch_reports_shapes():
    with pytest.raises(DimensionMismatch) as exc:
        hs_norm(HSOperator(np.ones((2, 3))), CovOperator(np.ones(2)))
    assert "(2, 3)" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(
    dim_h=st.integers(1, 8),
    dim_u=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_hs_norm_matches_trace_product(dim_h, dim_u, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim_h, dim_u))
    q = rng.uniform(0.0, 3.0, dim_u)
    val = hs_norm(B, CovOperator(q))
    trace = np.trace(B @ np.diag(q) @ B.T)
    assert val**2 == pytest.approx(trace, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(-50, 50, allow_nan=False))
def test_hs_norm_homogeneous_and_triangle(seed, c):
    rng = np.random.default_rng(seed)
    B1 = rng.standard_normal((3, 4))
    B2 = rng.standard_normal((3, 4))
    Q = CovOperator(rng.uniform(0.0, 2.0, 4))
    assert hs_norm(c * B1, Q) == pytest.approx(abs(c) * hs_norm(B1, Q), rel=1e-12, abs=1e-12)
    assert hs_norm(B1 + B2, Q) <= hs_norm(B1, Q) + hs_norm(B2, Q) + 1e-12


def test_hs_norm_zero_iff_vanishing_on_support():
    # modes with q = 0 contribute nothing, so B supported there has norm zero
    q = np.array([0.0, 1.0, 0.0])
    B = np.zeros((2, 3))
    B[:, 0] = 5.0
    B[:, 2] = -3.0
    assert hs_norm(B, CovOperator(q)) == 0.0
    B[0, 1] = 1e-8
    assert hs_norm(B, CovOperator(q)) > 0.0


def test_hs_norm_takes_raw_eigenvalues():
    assert hs_norm(np.eye(2), [1.0, 2.0]) == pytest.approx(np.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("q", [[-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0], [[1.0, 1.0]]])
def test_hs_norm_checks_raw_eigenvalues_as_a_covariance(q):
    # unchecked, the identity's norm would read 0.0, nan, inf and 1.414 for these
    with pytest.raises(ValueError):
        hs_norm(np.eye(2), q)


def test_cov_operator_validation():
    with pytest.raises(ValueError):
        CovOperator(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        CovOperator(np.array([[1.0]]))
    cov = CovOperator(np.array([2.0, 1.0, 0.5]))
    assert cov.trace == pytest.approx(3.5)
    assert cov.dim == 3
    cyl = CovOperator.cylindrical_truncation(4)
    assert cyl.cylindrical and cyl.trace == 4.0


def test_hs_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        HSOperator(np.array([[np.inf, 0.0]]))


def test_values_are_immutable():
    cov = CovOperator(np.array([1.0]))
    with pytest.raises(ValueError):
        cov.q[0] = 2.0
    B = HSOperator(np.ones((2, 2)))
    with pytest.raises(ValueError):
        B.matrix[0, 0] = 3.0


@pytest.mark.filterwarnings("error")
def test_hs_norm_scales_before_squaring():
    # squares past the float range, norms inside it: scaled before squaring, no warning
    assert hs_norm([[1e200]], [1.0]) == 1e200
    assert hs_norm([[3e200, 4e200]], [1.0, 1.0]) == pytest.approx(5e200, rel=1e-15)
    assert hs_norm([[2.0, 2.0]], [1e308, 1e308]) == pytest.approx(np.sqrt(8.0) * 1e154, rel=1e-15)
    with pytest.raises(NumericalFailure):  # past the float range
        hs_norm([[1e300]], [1e300])


@pytest.mark.filterwarnings("error")
def test_covariance_trace_refuses_an_overflowing_sum():
    with pytest.raises(NumericalFailure):
        CovOperator([1e308, 1e308]).trace
    assert CovOperator([1e308, 0.5e308]).trace == 1.5e308
