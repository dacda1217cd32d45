import math

import numpy as np
import pytest
from scipy.integrate import quad

from stochvolterra import (
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    KernelDomainError,
    LinearKernel,
    NumericalFailure,
    SmoothnessError,
    TabulatedKernel,
    TimeGrid,
    check_complete_positivity,
    check_nonneg_nonincreasing,
    mittag_leffler,
    solve_scalar_resolvent,
)
from stochvolterra import kernels
from stochvolterra.grids import march_channels


# --- pointwise evaluation -------------------------------------------------


def test_fractional_alpha_one_is_constant():
    k = FractionalKernel(1.0)
    assert k(0.7) == pytest.approx(1.0, rel=1e-15)
    assert k(0.0) == pytest.approx(1.0, rel=1e-15)  # regular at zero


def test_fractional_half_at_one():
    # a(1) = 1/Gamma(1/2) = 1/sqrt(pi); Gamma checked via the duplication identity
    k = FractionalKernel(0.5)
    assert k(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
    for alpha in (0.3, 0.5, 0.8, 1.5):
        lhs = math.gamma(alpha) * math.gamma(alpha + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * alpha) * math.sqrt(math.pi) * math.gamma(2.0 * alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fractional_singular_rejects_origin():
    with pytest.raises(KernelDomainError):
        FractionalKernel(0.5)(0.0)
    with pytest.raises(KernelDomainError):
        FractionalKernel(0.5)(np.array([0.5, 0.0]))


@pytest.mark.parametrize("method", ["__call__", "primitive", "deriv"])
@pytest.mark.parametrize(
    "kernel",
    [
        ExponentialKernel(),
        ConstantKernel(2.0),
        LinearKernel(),
        TabulatedKernel([0.0, 1.0], [1.0, 0.0]),
        FractionalKernel(1.5),
    ],
    ids=lambda k: k.label(),
)
def test_negative_time_rejected(kernel, method):
    # unchecked, each of these returns a value (e.g. exp(1) for the
    # exponential kernel at t = -1, nan for the fractional primitive)
    with pytest.raises(KernelDomainError, match="negative time"):
        getattr(kernel, method)(-1.0)
    with pytest.raises(KernelDomainError, match="negative time"):
        getattr(kernel, method)(np.array([0.5, -1e-12]))


def test_fractional_alpha_range():
    with pytest.raises(ValueError):
        FractionalKernel(0.0)
    with pytest.raises(ValueError):
        FractionalKernel(2.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExponentialKernel(c=math.inf),
        lambda: ExponentialKernel(b=math.inf),
        lambda: ConstantKernel(math.inf),
    ],
    ids=["exponential-c", "exponential-b", "constant-c"],
)
def test_infinite_parameters_are_refused_at_construction(build):
    # accepted, each would give a resolvent that overflows to nan, and
    # ExponentialKernel(1, inf).cell_moments(0.125, 3) would be [nan, 0, 0]
    with pytest.raises(ValueError, match="finite"):
        build()


def test_exponential_at_zero():
    assert ExponentialKernel(1.0, 1.0)(0.0) == pytest.approx(1.0)
    assert ExponentialKernel(2.0, 0.0)(5.0) == pytest.approx(2.0)


# --- cell moments ----------------------------------------------------------


def test_constant_first_cell():
    assert ConstantKernel(1.0).cell_moments(0.01, 1)[0] == pytest.approx(0.01, rel=1e-15)


def test_fractional_first_cell_closed_form_and_quadrature():
    alpha, h = 0.5, 0.1
    k = FractionalKernel(alpha)
    m = k.cell_moments(h, 3)
    assert m[0] == pytest.approx(h**alpha / math.gamma(alpha + 1.0), rel=1e-13)
    # adaptive quadrature away from the singular origin as the oracle
    val, err = quad(lambda t: t ** (alpha - 1.0) / math.gamma(alpha), h, 2 * h)
    assert m[1] == pytest.approx(val, abs=10 * err + 1e-12)


def test_exponential_cell_antiderivative():
    k = ExponentialKernel(1.0, 1.0)
    m = k.cell_moments(0.25, 4)
    edges = np.arange(5) * 0.25
    np.testing.assert_allclose(m, np.exp(-edges[:-1]) - np.exp(-edges[1:]), rtol=1e-14)


@pytest.mark.parametrize(
    "kernel",
    [FractionalKernel(0.5), FractionalKernel(1.5), ExponentialKernel(2.0, 0.7), LinearKernel()],
)
def test_moments_telescope_to_total_integral(kernel):
    h, n = 1.0 / 512, 512
    total = np.sum(kernel.cell_moments(h, n))
    assert total == pytest.approx(kernel.primitive(1.0), abs=1e-10)


def test_fractional_telescoping_identity():
    # sums of fractional moments hit T^alpha/Gamma(alpha+1) near machine level
    alpha = 0.5
    k = FractionalKernel(alpha)
    total = np.sum(k.cell_moments(2.0 / 1024, 1024))
    assert abs(total - 2.0**alpha / math.gamma(alpha + 1.0)) < 1e-10


def test_tabulated_kernel_moments_and_eval():
    # tabulating a linear function keeps the interpolant exact
    times = np.array([0.0, 0.5, 1.0, 2.0])
    values = 2.0 * times + 1.0
    k = TabulatedKernel(times, values)
    assert k(0.75) == pytest.approx(2.5)
    m = k.cell_moments(0.4, 5)
    exact = [quad(lambda t: 2.0 * t + 1.0, i * 0.4, (i + 1) * 0.4)[0] for i in range(5)]
    np.testing.assert_allclose(m, exact, rtol=1e-12)
    with pytest.raises(ValueError):
        TabulatedKernel([0.1, 0.5], [1.0, 1.0])  # must start at zero


# --- scalar relaxation solves ----------------------------------------------


def test_mu_zero_is_identity_solution():
    grid = TimeGrid(2.0, 64)
    path = solve_scalar_resolvent(FractionalKernel(0.5), 0.0, grid)
    np.testing.assert_allclose(path.s, 1.0, atol=1e-15)


def test_constant_kernel_exponential_solution():
    grid = TimeGrid(1.0, 1024)
    path = solve_scalar_resolvent(ConstantKernel(1.0), 1.0, grid)
    assert path.s[0] == 1.0
    err = np.max(np.abs(path.s - np.exp(-grid.nodes())))
    assert err < 1e-5
    assert path.s[-1] == pytest.approx(math.exp(-1.0), abs=1e-5)


def test_convergence_is_second_order():
    errs = []
    for n in (256, 512):
        grid = TimeGrid(1.0, n)
        path = solve_scalar_resolvent(ConstantKernel(1.0), 1.0, grid)
        errs.append(np.max(np.abs(path.s - np.exp(-grid.nodes()))))
    assert errs[0] / errs[1] >= 3.5


def test_linear_kernel_cosine_solution():
    grid = TimeGrid(6.0, 1024)
    path = solve_scalar_resolvent(LinearKernel(), 1.0, grid)
    assert np.max(np.abs(path.s - np.cos(grid.nodes()))) < 5e-4


def test_fractional_half_relaxation_against_series_and_erfc():
    # s(t) = E_{1/2}(-sqrt(t)) = exp(t) erfc(sqrt(t))
    grid = TimeGrid(1.0, 2048)
    path = solve_scalar_resolvent(FractionalKernel(0.5), 1.0, grid)
    t = grid.nodes()
    closed = np.exp(t) * np.array([math.erfc(math.sqrt(x)) for x in t])
    series = np.array([mittag_leffler(0.5, -math.sqrt(x)) for x in t])
    np.testing.assert_allclose(closed, series, rtol=1e-12)
    assert np.max(np.abs(path.s - closed)) < 1e-2
    assert path.s[-1] == pytest.approx(0.427584, abs=5e-4)


def test_path_residual_is_machine_level():
    path = solve_scalar_resolvent(ExponentialKernel(), 2.0, TimeGrid(1.0, 128))
    assert path.residual() <= 1e-12 * 3.0


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_growing_path_meets_relative_construction_tolerance(scheme):
    # mu = -3: s grows to about 1.6e4 and its residual (5e-12 for conv) is roundoff of
    # that size, below the tolerance 1e-12 (1 + |mu|) max|s|
    path = solve_scalar_resolvent(FractionalKernel(0.5), -3.0, TimeGrid(1.0, 1024), scheme)
    assert np.max(path.s) > 1e4
    assert path.residual() <= 1e-12 * 4.0 * np.max(np.abs(path.s))


@pytest.mark.parametrize("mu", [-3.0, 2.0])
@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_perturbed_path_fails_construction(monkeypatch, scheme, mu):
    # one node off by 1e-9 max|s|: far past roundoff, so the relative tolerance rejects it
    def perturbed(w, mus, scheme):
        s = march_channels(w, mus, scheme)
        s[w.size // 2] += 1e-9 * np.max(np.abs(s), axis=0)
        return s

    monkeypatch.setattr(kernels, "march_channels", perturbed)
    with pytest.raises(NumericalFailure, match="construction tolerance"):
        solve_scalar_resolvent(FractionalKernel(0.5), mu, TimeGrid(1.0, 1024), scheme)


def test_negative_mu_accepted():
    path = solve_scalar_resolvent(ConstantKernel(1.0), -1.0, TimeGrid(1.0, 256))
    # s' = s here, so growth toward e
    assert path.s[-1] == pytest.approx(math.e, rel=1e-4)


def test_march_guard_on_vanishing_diagonal():
    w = np.full(4, 0.25)
    with pytest.raises(NumericalFailure):
        march_channels(w, np.array([-8.5]), "product")  # 1 + mu w0/2 <= 0
    with pytest.raises(NumericalFailure, match="nonpositive diagonal"):
        march_channels(w, np.array([-4.0]), "conv")  # 1 + mu w0 = 0
    with pytest.raises(ValueError):
        march_channels(w, np.array([1.0]), "simpson")


def test_kernel_derivatives_where_they_exist_and_refusals_where_they_do_not():
    t = np.array([0.0, 0.5, 2.0])
    np.testing.assert_array_equal(FractionalKernel(1.0).deriv(t), np.zeros(3))
    np.testing.assert_array_equal(LinearKernel().deriv(t), np.ones(3))
    for alpha in (0.5, 1.5):
        with pytest.raises(SmoothnessError, match="unbounded near t = 0"):
            FractionalKernel(alpha).deriv(t)
    # through the base class's rule: interpolated tables give no derivative
    with pytest.raises(SmoothnessError, match=r"tabulated\(2 points\) has no usable"):
        TabulatedKernel([0.0, 1.0], [1.0, 0.5]).deriv(t)


def test_exponential_kernel_without_decay_has_primitive_c_t():
    t = np.array([0.0, 0.25, 3.0])
    np.testing.assert_array_equal(ExponentialKernel(c=2.0, b=0.0).primitive(t), 2.0 * t)


@pytest.mark.parametrize(
    "times, values, match",
    [
        ([0.0, 1.0], [1.0, 0.5, 0.25], "matching 1-d tables"),
        ([[0.0, 1.0]], [[1.0, 0.5]], "matching 1-d tables"),
        ([0.0], [1.0], "at least two entries"),
        ([0.0, 1.0], [1.0, np.inf], "tabulated values must be finite"),
        ([0.0, 1.0], [np.nan, 1.0], "tabulated values must be finite"),
    ],
    ids=["lengths", "2-d", "one-entry", "inf", "nan"],
)
def test_tabulated_kernel_refuses_mismatched_short_or_nonfinite_tables(times, values, match):
    with pytest.raises(ValueError, match=match):
        TabulatedKernel(times, values)


# --- kernel classification ---------------------------------------------------


def test_monotonicity_reports():
    grid = TimeGrid(5.0, 200)
    assert check_nonneg_nonincreasing(ExponentialKernel(), grid).ok
    rep = check_nonneg_nonincreasing(LinearKernel(), grid)
    assert not rep.ok and not rep.nonincreasing and rep.nonnegative
    # t^{1/2}/Gamma(3/2) increases
    rep = check_nonneg_nonincreasing(FractionalKernel(1.5), grid)
    assert not rep.ok and rep.first_violation_t is not None
    assert check_nonneg_nonincreasing(FractionalKernel(0.5), grid).ok


def test_monotonicity_report_names_the_first_negative_node():
    # 1 - 2t down to t = 1, then held at -1: nonincreasing, first below zero at node 0.75
    rep = check_nonneg_nonincreasing(TabulatedKernel([0.0, 1.0], [1.0, -1.0]), TimeGrid(2.0, 8))
    assert not rep.ok and not rep.nonnegative and rep.nonincreasing
    assert rep.first_violation_t == 0.75


def test_exponential_kernel_consistent_with_cp():
    report = check_complete_positivity(
        ExponentialKernel(), mu_list=[0.5, 1.0, 2.0, 5.0], T=5.0, N=1024
    )
    assert report.consistent
    assert "consistent" in report.verdict


def test_linear_kernel_not_cp_with_cosine_witness():
    report = check_complete_positivity(LinearKernel(), mu_list=[1.0], T=4.0, N=2048)
    assert not report.consistent
    mu, t_witness = report.witness
    assert mu == 1.0
    # the first sign violation sits just past pi/2
    assert t_witness == pytest.approx(math.pi / 2.0, abs=0.05)
    path = report.probes[0].path
    i2 = int(round(2.0 / report.grid.h))
    assert path.s[i2] == pytest.approx(math.cos(2.0), abs=1e-3)
    assert report.probes[0].min_s == pytest.approx(-1.0, abs=1e-3)


def test_fractional_half_consistent_with_cp():
    report = check_complete_positivity(FractionalKernel(0.5), mu_list=[1.0, 10.0], T=2.0, N=1024)
    assert report.consistent


def test_cp_solution_bounds_for_nonincreasing_kernels():
    # completely positive kernels keep s within [0, 1] and nonincreasing
    for kernel in (ExponentialKernel(), FractionalKernel(0.5), ConstantKernel(1.0)):
        report = check_complete_positivity(kernel, T=2.0, N=512)
        for probe in report.probes:
            s = probe.path.s
            assert np.all(s >= -report.tol)
            assert np.all(s <= 1.0 + report.tol)
            assert np.all(np.diff(s) <= report.tol)


def test_cp_verdict_stable_under_refinement():
    for kernel, expected in ((ExponentialKernel(), True), (LinearKernel(), False)):
        verdicts = [
            check_complete_positivity(kernel, mu_list=[0.5, 1.0, 2.0], T=4.0, N=n).consistent
            for n in (512, 1024)
        ]
        assert verdicts == [expected, expected]


@pytest.mark.parametrize(
    "kernel, mu, N, first",
    [
        (FractionalKernel(0.5), 100.0, 256, "-0.558"),
        (FractionalKernel(0.5), 100.0, 1024, "-0.276"),
        (ConstantKernel(1.0), 1000.0, 256, "-0.323"),
    ],
)
def test_cp_probe_refuses_a_ringing_first_step(kernel, mu, N, first):
    # product's first step (1 - mu w0 / 2) / (1 + mu w0 / 2) lies below -tol: the probe
    # would call these completely positive kernels "not completely positive"
    match = f"first step {first} at mu={mu:g} .*conv or N > {N}"
    with pytest.raises(NumericalFailure, match=match):
        check_complete_positivity(kernel, mu_list=[1.0, mu], N=N)


def test_cp_probe_keeps_a_first_step_above_minus_tol():
    # alpha = 0.3 at mu = 10 on 256 cells: the first step -0.027 lies above -tol = -0.039
    report = check_complete_positivity(FractionalKernel(0.3), N=256)
    assert report.probes[-1].mu == 10.0
    assert -report.tol < report.probes[-1].path.s[1] < -0.02
    assert report.consistent


@pytest.mark.parametrize("N", [64, 256, 1024])
@pytest.mark.parametrize(
    "kernel",
    [FractionalKernel(0.3), FractionalKernel(0.5), ConstantKernel(1.0), ExponentialKernel()],
    ids=["frac0.3", "frac0.5", "constant", "exp"],
)
def test_conv_relaxation_stays_in_the_unit_interval_when_stiff(kernel, N):
    # conv (theta = 1) does not ring: for these completely positive kernels s stays in
    # [0, 1] however stiff mu w0 is
    grid = TimeGrid(1.0, N)
    for mu in (1e2, 1e3, 1e4):
        s = solve_scalar_resolvent(kernel, mu, grid, scheme="conv").s
        assert -1e-12 <= np.min(s) and np.max(s) <= 1.0 + 1e-12, (mu, np.min(s), np.max(s))


def test_cp_rejects_bad_mu():
    with pytest.raises(ValueError):
        check_complete_positivity(ExponentialKernel(), mu_list=[])
    with pytest.raises(ValueError):
        check_complete_positivity(ExponentialKernel(), mu_list=[-1.0])


# --- series oracle -----------------------------------------------------------


def test_mittag_leffler_alpha_one_is_exp():
    for z in (-2.0, -0.5, 0.0, 1.0, 2.0):
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-13)


def test_mittag_leffler_range_guard():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 2.5)


@pytest.mark.parametrize("alpha", [0.0, -0.5, -1.0000001, math.nan])
def test_mittag_leffler_refuses_a_nonpositive_alpha(alpha):
    # before the check: a math domain error at -0.5 and a ZeroDivisionError at -1.0000001
    with pytest.raises(ValueError, match=f"alpha must be positive, got {alpha!r}"):
        mittag_leffler(alpha, -0.5)


@pytest.mark.parametrize("z", [-2.0, 2.0])
def test_mittag_leffler_refuses_unconverged_series(z):
    # E_0.1(-2) ~ 0.3198 and E_0.1(2) ~ 10 e^1024: 200 terms give -2.7e41 and 1.4e42
    with pytest.raises(NumericalFailure, match="did not converge"):
        mittag_leffler(0.1, z)
