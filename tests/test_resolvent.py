import math
import warnings

import numpy as np
import pytest

from stochvolterra import (
    ConstantKernel,
    DimensionMismatch,
    ExponentialKernel,
    FractionalKernel,
    LinearKernel,
    NonscalarKernel,
    NumericalFailure,
    OperatorKernel,
    ResolventTable,
    ScalarTypeKernel,
    SmoothnessError,
    TabulatedKernel,
    TimeGrid,
    compute_resolvent,
    exponential_bound_fit,
    operator_2norm,
    resolvent_residuals,
    solve_scalar_resolvent,
)
from stochvolterra import grids
from stochvolterra.grids import cell_values, lag_convolve
from stochvolterra.kernels import _channel_defects
from stochvolterra.resolvent import _rotate


def ou_kernel():
    return ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])


def diag5_kernel():
    return ScalarTypeKernel(ExponentialKernel(), -np.diag(np.arange(1.0, 6.0)))


def diag5_fractional_kernel():
    return ScalarTypeKernel(FractionalKernel(0.5), -np.diag(np.arange(1.0, 6.0)))


# --- table construction ------------------------------------------------------


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_zero_kernel_gives_identity(scheme):
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((3, 3)))
    table = compute_resolvent(kern, TimeGrid(1.0, 32), scheme=scheme)
    np.testing.assert_array_equal(table.S, np.broadcast_to(np.eye(3), (33, 3, 3)))
    assert table.U[0].max() == 0.0


def test_ou_matches_exponential():
    grid = TimeGrid(1.0, 1024)
    table = compute_resolvent(ou_kernel(), grid)
    err = np.max(np.abs(table.S[:, 0, 0] - np.exp(-grid.nodes())))
    assert err < 1e-5
    assert table.S[-1, 0, 0] == pytest.approx(np.exp(-1.0), abs=1e-5)


def test_decoupled_diagonal_channels():
    grid = TimeGrid(1.0, 512)
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.diag([-1.0, -2.0]))
    table = compute_resolvent(kern, grid)
    t = grid.nodes()
    assert np.max(np.abs(table.S[:, 0, 0] - np.exp(-t))) < 1e-5
    assert np.max(np.abs(table.S[:, 1, 1] - np.exp(-2.0 * t))) < 1e-5
    assert np.max(np.abs(table.S[:, 0, 1])) == 0.0


def test_nonscalar_matches_scalar_type_representation():
    # a (A1 + A2) as the sum of a A1 and a A2: the kernels' answers agree to roundoff and
    # the tables to machine level
    rng = np.random.default_rng(11)
    A1, A2 = rng.standard_normal((2, 2, 2))
    a, grid = ExponentialKernel(2.0, 0.5), TimeGrid(1.0, 256)
    whole = ScalarTypeKernel(a, A1 + A2)
    kern = NonscalarKernel([ScalarTypeKernel(a, A1), ScalarTypeKernel(a, A2)])
    t = grid.nodes()
    pairs = [
        (kern.cell_weights(grid), whole.cell_weights(grid)),
        (kern.value(t), whole.value(t)),
        (kern.derivative(t), whole.derivative(t)),
        (kern.value_at_zero(), whole.value_at_zero()),
    ]
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4e-16 * np.max(np.abs(want)))
    scalar, nonscalar = compute_resolvent(whole, grid), compute_resolvent(kern, grid)
    assert np.max(np.abs(scalar.S - nonscalar.S)) < 1e-12


def test_table_invariants():
    grid = TimeGrid(1.0, 64)
    table = compute_resolvent(diag5_kernel(), grid)
    np.testing.assert_array_equal(table.S[0], np.eye(5))
    np.testing.assert_array_equal(table.U[0], np.zeros((5, 5)))
    # U is the running trapezoid of S
    manual = np.cumsum(0.5 * grid.h * (table.S[1:] + table.S[:-1]), axis=0)
    np.testing.assert_allclose(table.U[1:], manual, rtol=0, atol=1e-15)
    assert table.u_lipschitz() <= table.sup_norm() + 1e-12


def test_overflow_refused():
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[5.0]])
    with pytest.raises(NumericalFailure, match="overflow"):
        compute_resolvent(kern, TimeGrid(50.0, 512))


def test_singular_step_matrix():
    # conv scheme: I - W_0 singular when the first cell weight is the identity
    grid = TimeGrid(1.0, 4)
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.eye(2) / grid.h)
    with pytest.raises(NumericalFailure):
        compute_resolvent(kern, grid, scheme="conv")


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_symmetric_step_matrix_with_a_nonpositive_eigenvalue_is_refused(scheme):
    # e^(50 t) once came back as 1, -1.94, 3.77, ...: a step factor (1 + 25 h)/(1 - 25 h) < 0
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[50.0]])
    with pytest.raises(NumericalFailure, match="nonpositive diagonal coefficient .* mu=-50"):
        compute_resolvent(kern, TimeGrid(1.0, 8), scheme=scheme)


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_real_eigenvalue_with_a_nonpositive_step_is_refused_without_symmetry(scheme):
    # S_00 is exactly e^(50 t), but came back as 1, -1.94, 3.77, -7.31, ...: the real
    # eigenvector (1, 0) carries the scalar channel of 50, whose step factor is negative
    kern = ScalarTypeKernel(ConstantKernel(1.0), [[50.0, 1.0], [0.0, 50.0]])
    with pytest.raises(NumericalFailure, match="nonpositive diagonal coefficient .* mu=-50"):
        compute_resolvent(kern, TimeGrid(1.0, 8), scheme=scheme)


def test_step_check_solves_complex_eigenvalues_but_does_not_check_them(monkeypatch):
    solved, eigvals = [], np.linalg.eigvals

    def spy(a):
        solved.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    # +-50i: complex eigenvalues are solved but not checked
    rotation = ScalarTypeKernel(ConstantKernel(1.0), [[0.0, 50.0], [-50.0, 0.0]])
    compute_resolvent(rotation, TimeGrid(1.0, 8))
    assert solved == [(2, 2)]


def viscoelastic_kernel(scale):
    """Demo 03's model, shear e^-t + 0.5 e^-4t on G and bulk 2 e^(-t/2) on D, with both
    operators multiplied by scale: a sum of non-commuting terms."""
    G = -np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    v = np.array([1.0, 0.5, -0.5])
    moduli = [(ExponentialKernel(1.0, 1.0), G), (ExponentialKernel(0.5, 4.0), G),
              (ExponentialKernel(2.0, 0.5), -np.outer(v, v))]
    return NonscalarKernel([ScalarTypeKernel(a, scale * A) for a, A in moduli])


# each case's z = w0 lam past |z| = 2 with Re z < 0: the product table rings (demo 03's model
# scaled by 100 read -0.559 on the diagonal of S(t_1)); conv takes them without ringing
RINGING = {  # kernel, cells, |z| as the message prints it
    "fractional": (ScalarTypeKernel(FractionalKernel(0.5), -np.diag([1.0, 30.0, 100.0])), 256,
                   "7.052"),
    "complex-pair": (ScalarTypeKernel(ConstantKernel(1.0), [[-1e4, 1e4], [-1e4, -1e4]]), 64,
                     "221"),
    "viscoelastic-x100": (viscoelastic_kernel(100.0), 64, "8.901"),
}


@pytest.mark.parametrize("case", RINGING)
def test_a_ringing_product_table_is_refused_and_conv_takes_it(case):
    kernel, N, size = RINGING[case]
    grid = TimeGrid(1.0, N)
    with pytest.raises(NumericalFailure, match=rf"\|z\| = {size} > 2 and Re z < 0.*'conv'"):
        compute_resolvent(kernel, grid)
    table = compute_resolvent(kernel, grid, scheme="conv")
    assert np.all(np.diagonal(table.S[1], axis1=-2, axis2=-1) > 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the weights overflow, the march meets inf
def test_a_sum_whose_first_weight_overflows_is_refused_by_the_march():
    # W[0] holds -inf: no eigenvalues to check, and the march refuses the table as before
    kernel = NonscalarKernel([ScalarTypeKernel(ConstantKernel(1e300), np.diag([-1e300, -1.0]))])
    with pytest.raises(NumericalFailure, match="overflow at step 1"):
        compute_resolvent(kernel, TimeGrid(1.0, 8))


def test_the_unscaled_viscoelastic_model_marches_under_product():
    # |z| <= 0.089 at N = 64: far from ringing
    table = compute_resolvent(viscoelastic_kernel(1.0), TimeGrid(1.0, 64))
    assert resolvent_residuals(table).res_second < 1e-14


def one_by_one_table(S, U=None):
    """A 1 x 1 ResolventTable built directly from S (and U, zero by default) on N = len(S) - 1."""
    S = np.asarray(S, dtype=float).reshape(-1, 1, 1)
    grid, kernel = TimeGrid(1.0, len(S) - 1), ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])
    U = np.zeros_like(S) if U is None else np.asarray(U, dtype=float).reshape(-1, 1, 1)
    return ResolventTable(grid, S, U, kernel, "product", kernel.cell_weights(grid))


@pytest.mark.parametrize(
    "S, U, match",
    [
        ([2.0, 1.0, 1.0], None, "does not start at the identity"),
        ([1.0, 1.0, 1.0], [1e-300, 0.5, 1.0], "integrated family does not start at zero"),
        ([1.0, 2e100, 1.0], None, "overflowed: sup entry 2e"),
        ([1.0, np.nan, 1.0], None, "overflowed: sup entry nan"),
    ],
    ids=["S0", "U0", "overflow", "nan"],
)
def test_a_directly_built_table_that_breaks_an_invariant_is_refused(S, U, match):
    with pytest.raises(NumericalFailure, match=match):
        one_by_one_table(S, U)


def test_bound_fit_fails_when_exp_w_t_underflows_below_a_positive_norm():
    # norm 1 up to t = 1/2, then 1e-300: the tail fit's rate w is about -1105, so exp(w t)
    # underflows to 0 at t = 1 and no M bounds the norm there (with overflow warnings)
    table = one_by_one_table([1.0] * 5 + [1e-300] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="no M near inf bounds the table"):
            exponential_bound_fit(table)


def test_bound_fit_skips_zero_norms_where_exp_overflows():
    # the same tail rate w about -1105 over norms that are exactly 0 from t = 5/8: exp(-w t)
    # overflows there, and a zero norm needs no M; the norm 1 at t = 1/2 sets M = e^552
    table = one_by_one_table([1.0] * 5 + [0.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = exponential_bound_fit(table)
    t = table.grid.nodes()
    assert fit.w < -1000.0 and fit.M > 1e239
    assert np.all(table.norms() <= fit.M * np.exp(fit.w * t))


class ZeroKernel(OperatorKernel):
    """The least an OperatorKernel must give: its dimension, cell weights and values."""

    dim = 1

    def cell_weights(self, grid):
        return np.zeros((grid.N, 1, 1))

    def value(self, t):
        return np.zeros(np.shape(t) + (1, 1))


def test_operator_kernel_defaults_give_no_derivative_and_no_value_at_zero():
    kern = ZeroKernel()
    assert kern.smoothness == "L1loc" and kern.label() == "ZeroKernel"
    with pytest.raises(SmoothnessError, match="ZeroKernel provides no time derivative"):
        kern.derivative(0.5)
    with pytest.raises(SmoothnessError, match="ZeroKernel provides no value at t = 0"):
        kern.value_at_zero()
    table = compute_resolvent(kern, TimeGrid(1.0, 4))
    np.testing.assert_array_equal(table.S, np.ones((5, 1, 1)))


def test_rejects_unknown_scheme_and_tiny_grid():
    with pytest.raises(ValueError):
        compute_resolvent(ou_kernel(), TimeGrid(1.0, 16), scheme="magic")
    with pytest.raises(ValueError):
        compute_resolvent(ou_kernel(), TimeGrid(1.0, 1))


# --- resolvent equations ------------------------------------------------------


def test_zero_kernel_residuals_vanish():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
    res = resolvent_residuals(compute_resolvent(kern, TimeGrid(1.0, 64)))
    assert res.res_first == 0.0
    assert res.res_second == 0.0


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("make", [ou_kernel, diag5_kernel])
def test_second_equation_residual_machine_level(make, scheme):
    table = compute_resolvent(make(), TimeGrid(1.0, 256), scheme=scheme)
    assert resolvent_residuals(table).res_second < 1e-12


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_second_equation_residual_machine_level_at_large_n(scheme):
    table = compute_resolvent(diag5_fractional_kernel(), TimeGrid(1.0, 4096), scheme=scheme)
    assert resolvent_residuals(table).res_second < 1e-12


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_second_equation_residual_scales_with_a_growing_table(scheme):
    # positive spectrum: max|S| reaches 1.4e11 and the FFT sums' error scales
    # with the columns' norms; measured 3.3e-16 and 2.3e-16 times max|S|
    kern = ScalarTypeKernel(FractionalKernel(0.5), np.diag(np.arange(1.0, 6.0)))
    table = compute_resolvent(kern, TimeGrid(1.0, 1024), scheme=scheme)
    assert resolvent_residuals(table).res_second <= 1e-14 * np.max(np.abs(table.S))


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_fft_history_sums_match_direct_sums(scheme, monkeypatch):
    # the residuals' two sums by FFT, the route five columns take, against the strips
    # at one node a product
    grid = TimeGrid(1.0, 1024)
    table = compute_resolvent(diag5_fractional_kernel(), grid, scheme=scheme)
    S, N = table.S, grid.N
    A_vals = table.kernel.value(grid.nodes()[1:]) * grid.h
    for w, x in ((table.cell_weights, cell_values(S, scheme)), (A_vals, S[:N])):
        direct, fft = np.zeros((N, 5, 5)), np.zeros((N, 5, 5))
        lag_convolve(w, x, fft)
        monkeypatch.setattr(grids, "_STRIPS", (0, math.inf))
        monkeypatch.setattr(grids, "_TILE", 1)
        lag_convolve(w, x, direct)
        monkeypatch.undo()
        # sums of O(1) size; measured differences 2.4e-15
        assert np.max(np.abs(fft - direct)) <= 1e-13


def test_fractional_table_residuals():
    kern = ScalarTypeKernel(FractionalKernel(0.5), [[-1.0]])
    table = compute_resolvent(kern, TimeGrid(1.0, 256))
    assert resolvent_residuals(table).res_second < 1e-12


@pytest.mark.parametrize(
    "a",
    [
        FractionalKernel(0.5),
        FractionalKernel(1.5),
        ExponentialKernel(2.0, 0.5),
        ConstantKernel(3.0),
        LinearKernel(),
        TabulatedKernel([0.0, 0.3, 1.0], [2.0, 0.5, 1.0]),
    ],
    ids=lambda a: a.label(),
)
def test_kernel_values_match_per_node_values(a):
    # the vectorised stack against one value() call per node, for scalar-type kernels
    # and their one-term sums, which give the term's bytes either way
    A = np.array([[-1.0, 0.4], [0.2, -3.0]])
    t = TimeGrid(1.3, 50).nodes()[1:]
    kern = ScalarTypeKernel(a, A)
    per_node = np.array([kern.value(s) for s in t])
    np.testing.assert_allclose(kern.value(t), per_node, rtol=4e-16, atol=0.0)
    nonscalar = NonscalarKernel([kern])
    np.testing.assert_array_equal(nonscalar.value(t), kern.value(t))
    np.testing.assert_array_equal([nonscalar.value(s) for s in t], per_node)


def test_kernels_answer_for_arrays_of_times():
    # value and derivative on any array of times: t.shape + (d, d), equal to the
    # matrices of one time at a time
    A = np.array([[-1.0, 0.4], [0.2, -3.0]])
    M = np.array([[0.0, 1.0], [-1.0, 0.5]])
    t = TimeGrid(2.0, 12).nodes()[1:].reshape(3, 4)
    kernels = [
        ScalarTypeKernel(ExponentialKernel(2.0, 0.5), A),
        NonscalarKernel(
            [
                ScalarTypeKernel(ConstantKernel(), A),
                ScalarTypeKernel(ExponentialKernel(1.0, 3.0), M),
            ]
        ),
    ]
    for kern in kernels:
        for f in (kern.value, kern.derivative):
            stack = f(t)
            assert stack.shape == (3, 4, 2, 2)
            assert f(0.5).shape == (2, 2)
            np.testing.assert_array_equal(stack, [[f(s) for s in row] for row in t])


def noncommuting_sum():
    """e^-t A0 + t M + e^-3t M2 on three mutually non-commuting matrices."""
    A0 = np.array([[-1.0, 0.3], [0.0, -2.0]])
    M = np.array([[0.5, -0.2], [0.7, 0.1]])
    M2 = np.array([[0.0, -0.3], [0.4, 0.1]])
    for X, Y in ((A0, M), (A0, M2), (M, M2)):
        assert np.max(np.abs(X @ Y - Y @ X)) > 0.1
    a = (ExponentialKernel(), LinearKernel(), ExponentialKernel(1.0, 3.0))
    return NonscalarKernel([ScalarTypeKernel(*term) for term in zip(a, (A0, M, M2))])


def test_nonscalar_cell_weights_are_the_gauss_sums_cell_by_cell():
    # the exact weights against 6-point Gauss sums of the values, cell by cell: the rule
    # integrates t exactly and e^-t, e^-3t on these cells to about 1e-18 relative
    kern = noncommuting_sum()
    grid = TimeGrid(1.5, 7)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    half = 0.5 * grid.h
    expected = np.zeros((grid.N, 2, 2))
    for j in range(grid.N):
        for x, wt in zip(nodes, weights):
            expected[j] += (half * wt) * kern.value((j + 0.5) * grid.h + half * x)
    W = kern.cell_weights(grid)
    assert W.shape == (grid.N, 2, 2)
    assert np.max(np.abs(W - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_one_term_sum_gives_the_bytes_of_its_term():
    A = np.array([[-1.0, 0.4], [0.2, -3.0]])  # not symmetric: both take grids.march
    term = ScalarTypeKernel(ExponentialKernel(2.0, 0.5), A)
    kern = NonscalarKernel([term])
    grid = TimeGrid(1.0, 64)
    t = grid.nodes().reshape(5, 13)
    assert kern.dim == 2 and kern.smoothness == "W11"
    for f, g in ((kern.value, term.value), (kern.derivative, term.derivative)):
        assert f(t).tobytes() == g(t).tobytes()
    assert kern.value_at_zero().tobytes() == term.value_at_zero().tobytes()
    assert kern.cell_weights(grid).tobytes() == term.cell_weights(grid).tobytes()
    for scheme in ("product", "conv"):
        tables = [compute_resolvent(k, grid, scheme) for k in (kern, term)]
        for name in ("S", "U", "cell_weights"):
            assert getattr(tables[0], name).tobytes() == getattr(tables[1], name).tobytes()


def test_nonscalar_kernel_needs_terms_of_one_dimension():
    with pytest.raises(ValueError, match="at least one term"):
        NonscalarKernel([])
    two = ScalarTypeKernel(ConstantKernel(), -np.eye(2))
    one = ScalarTypeKernel(LinearKernel(), [[1.0]])
    with pytest.raises(DimensionMismatch, match="kernel term vs first term: 1 vs 2"):
        NonscalarKernel([two, one])


def test_a_fractional_term_makes_the_sum_l1loc():
    # the term's own SmoothnessError: singular at zero and without a derivative
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    singular = ScalarTypeKernel(FractionalKernel(0.5), M)
    kern = NonscalarKernel([ScalarTypeKernel(ExponentialKernel(), -np.eye(2)), singular])
    assert kern.smoothness == "L1loc"
    with pytest.raises(SmoothnessError, match="singular at t = 0"):
        kern.value_at_zero()
    with pytest.raises(SmoothnessError):
        kern.derivative(0.5)
    # the exact moments absorb the singularity: the weights are finite and the table marches
    table = compute_resolvent(kern, TimeGrid(1.0, 64))
    assert np.all(np.isfinite(table.cell_weights))
    assert resolvent_residuals(table).res_second < 1e-14


@pytest.mark.parametrize("make", [ou_kernel, diag5_kernel])
def test_first_equation_residual_halves(make):
    res = {}
    for n in (256, 512):
        table = compute_resolvent(make(), TimeGrid(1.0, n))
        res[n] = resolvent_residuals(table).res_first
    ratio = res[256] / res[512]
    assert 1.8 <= ratio <= 2.5


# --- symmetric scalar-type kernels in eigenchannels -------------------------------


def rotated_symmetric(d, seed=7):
    """Q diag(-1..-d) Q' for a random orthogonal Q, symmetrised to exact symmetry."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    A = Q @ np.diag(-np.arange(1.0, d + 1.0)) @ Q.T
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("a", [FractionalKernel(0.5), ExponentialKernel()], ids=["frac", "exp"])
@pytest.mark.parametrize("d", [1, 5, 16])
def test_channel_route_matches_the_matrix_march(d, a, scheme):
    kernel = ScalarTypeKernel(a, rotated_symmetric(d))
    grid = TimeGrid(1.0, 256)
    table = compute_resolvent(kernel, grid, scheme=scheme)
    direct = grids.march(kernel.cell_weights(grid), scheme)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(table.S - direct)) <= 1e-14 * scale
    assert table.S[0].tobytes() == np.eye(d).tobytes()
    assert table.cell_weights.tobytes() == kernel.cell_weights(grid).tobytes()
    assert resolvent_residuals(table).res_second < 1e-12


def test_spectral_diagonal_closed_form():
    grid = TimeGrid(1.0, 512)
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.diag([-1.0, -2.0]))
    table = compute_resolvent(kern, grid)
    t = grid.nodes()
    assert np.max(np.abs(table.S[:, 0, 0] - np.exp(-t))) < 1e-5
    assert np.max(np.abs(table.S[:, 1, 1] - np.exp(-2.0 * t))) < 1e-5


def test_spectral_equals_direct_on_random_symmetric():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    A = -(M @ M.T) / 3.0
    assert np.array_equal(A, A.T)  # the channel route
    grid = TimeGrid(1.0, 256)
    kern = ScalarTypeKernel(ExponentialKernel(), A)
    spectral = compute_resolvent(kern, grid)
    direct = grids.march(kern.cell_weights(grid), "product")
    worst = max(np.linalg.norm(d) for d in (direct - spectral.S))
    assert worst < 1e-10


def test_spectral_equals_direct_under_conv_scheme():
    A = np.diag([-1.0, -3.0]) + 0.0
    grid = TimeGrid(1.0, 128)
    kern = ScalarTypeKernel(ExponentialKernel(), A)
    spectral = compute_resolvent(kern, grid, scheme="conv")
    direct = grids.march(kern.cell_weights(grid), "conv")
    assert np.max(np.abs(direct - spectral.S)) < 1e-12
    assert spectral.scheme == "conv"


def test_spectral_zero_operator():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
    table = compute_resolvent(kern, TimeGrid(1.0, 16))
    np.testing.assert_allclose(table.S, np.broadcast_to(np.eye(2), (17, 2, 2)), atol=1e-15)


def test_one_ulp_off_symmetric_takes_the_matrix_march(monkeypatch):
    # no tolerance: an A one ulp off symmetric is marched as a d x d table, and
    # agrees with the channel table of its symmetric twin
    A = rotated_symmetric(5)
    A_off = A.copy()
    A_off[0, 1] = np.nextafter(A_off[0, 1], np.inf)
    grid = TimeGrid(1.0, 128)
    twin = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), A), grid)
    calls = []
    monkeypatch.setattr(
        "stochvolterra.resolvent.march", lambda W, scheme: calls.append(1) or grids.march(W, scheme)
    )
    table = compute_resolvent(ScalarTypeKernel(ExponentialKernel(), A_off), grid)
    assert calls == [1]
    assert np.max(np.abs(table.S - twin.S)) < 1e-12


def matrix_diagnostics(table):
    """The d x d formulas on S alone: SVD norms of S and of U's steps, and both residuals
    with every column of S summed by `lag_convolve`."""
    grid, S, N, d = table.grid, table.S, table.grid.N, table.dim
    norms = operator_2norm(S)
    u_lip = np.max(operator_2norm(np.diff(table.U, axis=0))) / grid.h
    conv1, conv2 = np.zeros((2, N, d, d))
    lag_convolve(table.cell_weights, cell_values(S, table.scheme), conv2)
    lag_convolve(table.kernel.value(grid.nodes()[1:]), S[:N], conv1)
    gap = S[1:] - np.eye(d)
    return norms, u_lip, np.max(np.abs(gap - grid.h * conv1)), np.max(np.abs(gap - conv2))


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("a", [FractionalKernel(0.5), ExponentialKernel()], ids=["frac", "exp"])
@pytest.mark.parametrize("d", [1, 5, 16])
def test_channel_diagnostics_match_the_matrix_formulas(d, a, scheme):
    table = compute_resolvent(ScalarTypeKernel(a, rotated_symmetric(d)), TimeGrid(1.0, 256), scheme)
    assert table.lam.shape == (d,) and table.V.shape == (d, d) and table.s.shape == (257, d)
    norms, u_lip, res1, res2 = matrix_diagnostics(table)
    np.testing.assert_allclose(table.norms(), norms, rtol=1e-13, atol=0.0)
    assert table.sup_norm() == pytest.approx(np.max(norms), rel=1e-13, abs=0.0)
    assert table.u_lipschitz() == pytest.approx(u_lip, rel=1e-13, abs=0.0)
    # each residual is the difference of two sums of the table's size, so both routes'
    # residuals agree relative to max|S| (measured at most 4.7e-16 for the first; the
    # second is itself roundoff, 2e-16 to 2e-15)
    res, scale = resolvent_residuals(table), np.max(np.abs(table.S))
    assert abs(res.res_first - res1) <= 1e-13 * scale
    assert res2 < 1e-12 and abs(res.res_second - res2) <= 1e-13 * scale
    # the fitted bound holds at every node on the norms the fit reads
    fit = exponential_bound_fit(table)
    assert np.all(table.norms() <= fit.M * np.exp(fit.w * table.grid.nodes()))


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_diag5_channel_norms_are_exact(scheme):
    # diag5's eigenvectors are a signed permutation: V diag(s) V' places each channel
    # on the diagonal exactly, so the norms are the diagonal's largest |entry|
    table = compute_resolvent(diag5_fractional_kernel(), TimeGrid(1.0, 1024), scheme)
    assert np.array_equal(np.abs(table.V), np.abs(table.V).round())
    diagonal = np.abs(np.diagonal(table.S, axis1=1, axis2=2)).max(axis=1)
    assert table.norms().tobytes() == diagonal.tobytes()
    assert table.norms().tobytes() == operator_2norm(table.S).tobytes()
    _, _, res1, res2 = matrix_diagnostics(table)
    res, scale = resolvent_residuals(table), np.max(np.abs(table.S))
    assert abs(res.res_first - res1) <= 1e-13 * scale
    assert abs(res.res_second - res2) <= 1e-13 * scale


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("d", [1, 5, 16])
def test_channel_residuals_match_the_marched_matrix_table(d, scheme):
    # the same kernel marched as a d x d table by grids.march, residuals by the matrix sums
    kernel = ScalarTypeKernel(FractionalKernel(0.5), rotated_symmetric(d))
    grid = TimeGrid(1.0, 256)
    table = compute_resolvent(kernel, grid, scheme)
    S = grids.march(kernel.cell_weights(grid), scheme)
    matrix = ResolventTable(
        grid, S, stacked_trapezoid(S, grid.h), kernel, scheme, table.cell_weights,
    )
    channel, marched, scale = resolvent_residuals(table), resolvent_residuals(matrix), np.max(S)
    assert abs(channel.res_first - marched.res_first) <= 1e-13 * scale
    assert max(channel.res_second, marched.res_second) <= 1e-14 * scale


# product rings past |z| = w0 mu = 2 (w0 = 0.0705 here), which compute_resolvent refuses:
# mu = 25 gives |z| = 1.76; conv takes mu = 100 (|z| = 7.05) without ringing
@pytest.mark.parametrize(
    "scheme, mus", [("product", [1.0, 10.0, 25.0]), ("conv", [1.0, 30.0, 100.0])],
    ids=["product", "conv"],
)
def test_channel_residuals_are_the_relaxation_residuals_for_a_diagonal_operator(scheme, mus):
    # A = -diag(mu): V is a permutation, so each channel is the relaxation path of its mu
    # and the second residual is the largest of the paths' residuals, bit for bit
    grid, a = TimeGrid(1.0, 256), FractionalKernel(0.5)
    table = compute_resolvent(ScalarTypeKernel(a, -np.diag(mus)), grid, scheme)
    paths = [solve_scalar_resolvent(a, mu, grid, scheme) for mu in mus]
    assert resolvent_residuals(table).res_second == max(p.residual() for p in paths)


def stacked_trapezoid(S, h):
    U = np.zeros_like(S)
    U[1:] = np.cumsum(0.5 * h * (S[1:] + S[:-1]), axis=0)
    return U


@pytest.mark.parametrize("scheme", ["product", "conv"])
def test_channel_u_is_the_trapezoid_integral_of_s(scheme):
    # U = V diag(u) V' with u the channels' trapezoid sums: S's own trapezoid sums to
    # roundoff on a rotated operator, and bit for bit on diag5 (a signed permutation)
    grid = TimeGrid(1.0, 1024)
    kernel = ScalarTypeKernel(FractionalKernel(0.5), rotated_symmetric(16))
    table = compute_resolvent(kernel, grid, scheme)
    scale = np.max(np.abs(table.S))
    assert np.max(np.abs(table.U - stacked_trapezoid(table.S, grid.h))) <= 1e-14 * scale
    assert table.U[0].tobytes() == np.zeros((16, 16)).tobytes()
    table = compute_resolvent(diag5_fractional_kernel(), grid, scheme)
    assert table.U.tobytes() == stacked_trapezoid(table.S, grid.h).tobytes()


def batched_rotation(V, x):
    """V diag(x[n]) V' as one d x d product per row of x."""
    return (V * x[:, None, :]) @ V.T


@pytest.mark.parametrize("d", [5, 16, 32])
def test_rotation_is_the_batched_product_to_roundoff(d):
    _, V = np.linalg.eigh(rotated_symmetric(d))
    x = np.random.default_rng(d).standard_normal((257, d)) * np.logspace(-3, 3, d)
    got = _rotate(V, x)
    assert got.shape == (257, d, d)
    assert np.max(np.abs(got - batched_rotation(V, x))) <= 1e-15 * np.max(np.abs(x))


@pytest.mark.parametrize("scheme", ["product", "conv"])
@pytest.mark.parametrize("a", [FractionalKernel(0.5), LinearKernel()], ids=["frac", "linear"])
def test_rotation_has_the_batched_products_bits_on_diag5(a, scheme):
    # diag5's V is a signed permutation: every entry is one exact product plus exact zeros,
    # whose signs the CSV prints (0 or -0); LinearKernel's cos channels change sign
    grid = TimeGrid(1.0, 1024)
    table = compute_resolvent(ScalarTypeKernel(a, -np.diag(np.arange(1.0, 6.0))), grid, scheme)
    w = a.cell_moments(grid.h, grid.N)
    defects = _channel_defects(table.s, w, cell_values(table.s, scheme), -table.lam)
    for x in (table.s, grids.trapezoid(table.s, grid.h), defects):
        assert _rotate(table.V, x).tobytes() == batched_rotation(table.V, x).tobytes()
    expected = batched_rotation(table.V, table.s)
    expected[0] = np.eye(5)
    assert table.S.tobytes() == expected.tobytes()
    if isinstance(a, LinearKernel):
        assert np.any(table.s < 0.0)


def test_march_tables_carry_no_channels():
    grid = TimeGrid(1.0, 64)
    A = rotated_symmetric(3)
    A_off = A.copy()
    A_off[0, 1] = np.nextafter(A_off[0, 1], np.inf)
    kernels = [
        ScalarTypeKernel(ExponentialKernel(), [[-1.0, 0.4], [0.0, -2.0]]),
        ScalarTypeKernel(ExponentialKernel(), A_off),
        NonscalarKernel([ScalarTypeKernel(ExponentialKernel(), A)]),
    ]
    for kernel in kernels:
        table = compute_resolvent(kernel, grid)
        assert table.lam is None and table.V is None and table.s is None
        np.testing.assert_array_equal(table.norms(), operator_2norm(table.S))


def test_a_table_holds_all_three_channel_arrays_or_none():
    table = compute_resolvent(diag5_kernel(), TimeGrid(1.0, 16))
    fields = (table.grid, table.S, table.U, table.kernel, table.scheme, table.cell_weights)
    with pytest.raises(ValueError, match="come together"):
        ResolventTable(*fields, lam=table.lam, V=table.V)


# --- growth bounds --------------------------------------------------------------


def test_bound_fit_identity_table():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
    fit = exponential_bound_fit(compute_resolvent(kern, TimeGrid(1.0, 64)))
    assert fit.M == pytest.approx(1.0, abs=1e-12)
    assert -0.01 <= fit.w <= 0.01


def test_bound_fit_ou_table():
    fit = exponential_bound_fit(compute_resolvent(ou_kernel(), TimeGrid(1.0, 256)))
    assert -1.05 <= fit.w <= -0.95
    assert 1.0 <= fit.M <= 1.1


def test_bound_fit_follows_slowest_mode():
    kern = ScalarTypeKernel(ConstantKernel(1.0), np.diag([-1.0, -5.0]))
    table = compute_resolvent(kern, TimeGrid(1.0, 256))
    fit = exponential_bound_fit(table)
    assert fit.w == pytest.approx(-1.0, abs=0.05)
    assert fit.M == pytest.approx(1.0, abs=0.1)


def test_bound_holds_at_every_node_and_bounds_sup():
    table = compute_resolvent(diag5_kernel(), TimeGrid(2.0, 128))
    fit = exponential_bound_fit(table)
    t = table.grid.nodes()
    norms = np.array([np.linalg.norm(S, 2) for S in table.S])
    assert np.all(norms <= fit.M * np.exp(fit.w * t) * (1.0 + 1e-12))
    assert table.sup_norm() <= fit.M * np.exp(max(fit.w, 0.0) * table.grid.T) + 1e-12


def test_bound_holds_as_evaluated_on_random_tables():
    # without a correction the fitted M fell one ulp short at some node in 53 of these
    # 300 tables; the bound must hold exactly as a caller evaluates it
    rng = np.random.default_rng(0)
    for _ in range(300):
        d, N, k = int(rng.integers(1, 4)), int(rng.choice([8, 16, 64, 128])), rng.integers(3)
        a = [
            FractionalKernel(rng.uniform(0.2, 1.8)),
            ExponentialKernel(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)),
            ConstantKernel(rng.uniform(0.1, 2.0)),
        ][int(k)]
        kern = ScalarTypeKernel(a, rng.normal(size=(d, d)))
        scheme = ("product", "conv")[int(rng.integers(2))]
        table = compute_resolvent(kern, TimeGrid(1.0, N), scheme=scheme)
        fit = exponential_bound_fit(table)
        t = table.grid.nodes()
        assert np.all(operator_2norm(table.S) <= fit.M * np.exp(fit.w * t))


def test_contractivity_for_cp_kernel_and_dissipative_operator():
    # completely positive kernel, symmetric A <= 0: every channel stays in [0, 1]
    rng = np.random.default_rng(8)
    M = rng.standard_normal((4, 4))
    A = -(M @ M.T) / 4.0
    table = compute_resolvent(ScalarTypeKernel(FractionalKernel(0.5), A), TimeGrid(1.0, 256))
    norms = np.array([np.linalg.norm(S, 2) for S in table.S])
    assert np.all(norms <= 1.0 + 1e-8)


# --- kernels: smoothness metadata ------------------------------------------------


def test_scalar_type_smoothness_flags():
    assert ScalarTypeKernel(ExponentialKernel(), [[-1.0]]).smoothness == "W11"
    assert ScalarTypeKernel(FractionalKernel(0.5), [[-1.0]]).smoothness == "L1loc"
    kern = ScalarTypeKernel(ExponentialKernel(2.0, 3.0), [[1.0]])
    assert kern.value_at_zero()[0, 0] == pytest.approx(2.0)
    assert kern.derivative(0.0)[0, 0] == pytest.approx(-6.0)
    with pytest.raises(SmoothnessError):
        ScalarTypeKernel(FractionalKernel(0.5), [[-1.0]]).value_at_zero()


def test_nonscalar_w11_consistency():
    # A0 + t M: the value at zero and the derivative integrate back to the values
    A0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    M = np.array([[-1.0, 0.0], [0.5, -2.0]])
    constant = ScalarTypeKernel(ConstantKernel(), A0)
    kern = NonscalarKernel([constant, ScalarTypeKernel(LinearKernel(), M)])
    assert kern.smoothness == "W11"
    t = TimeGrid(1.0, 64).nodes()[1:]
    np.testing.assert_array_equal(kern.value_at_zero(), A0)
    np.testing.assert_array_equal(kern.derivative(t), np.broadcast_to(M, (64, 2, 2)))
    gap = kern.value(t) - kern.value_at_zero() - np.multiply.outer(t, M)
    assert np.max(np.abs(gap)) < 1e-12
    # a tabulated term is regular at zero but has no derivative
    tabulated = ScalarTypeKernel(TabulatedKernel([0.0, 1.0], [1.0, 0.5]), M)
    kern = NonscalarKernel([constant, tabulated])
    assert kern.smoothness == "L1loc"
    np.testing.assert_array_equal(kern.value_at_zero(), A0 + M)
    with pytest.raises(SmoothnessError):
        kern.derivative(0.5)


# --- operator norm ----------------------------------------------------------------


def test_operator_2norm_against_svd():
    rng = np.random.default_rng(17)
    for d in (1, 2, 5, 8):
        for _ in range(5):
            M = rng.standard_normal((d, d))
            assert operator_2norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
    assert operator_2norm(np.zeros((3, 3))) == 0.0
    # nearly equal leading singular values
    assert operator_2norm(np.diag([1.0, 1.0 - 1e-8, 0.5])) == pytest.approx(1.0, rel=1e-12)
    assert operator_2norm(np.array([[0.5, 0.2], [0.2, 0.5]])) == pytest.approx(0.7, rel=1e-12)
    assert isinstance(operator_2norm(np.eye(2)), float)
    # a (k, m, n) stack gives one norm per matrix
    stack = rng.standard_normal((4, 3, 5))
    norms = operator_2norm(stack)
    assert norms.shape == (4,)
    for M, norm in zip(stack, norms):
        assert norm == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-12)
