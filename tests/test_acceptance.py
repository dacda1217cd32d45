"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its elapsed time
(run with -s to see them all).  Statistical criteria use fixed seeds and are
deterministic.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from stochvolterra import (
    ConstantDiffusion,
    ConstantKernel,
    CovOperator,
    ExponentialKernel,
    FractionalKernel,
    HSOperator,
    ItoTestFunction,
    LinearKernel,
    NoiseSpec,
    NonscalarKernel,
    ScalarTypeKernel,
    TimeGrid,
    check_complete_positivity,
    compute_resolvent,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    mild_solution,
    mittag_leffler,
    resolvent_residuals,
    sample_wiener,
    sample_wiener_batch,
    stochastic_convolution,
    verify_ito_identity,
    verify_volterra_identity,
    verify_weak_solution,
    yosida_convergence_study,
)
from stochvolterra import grids
from stochvolterra.cli import main
from stochvolterra.convolution import _convolve_at, _left_point_products, _node_weights


class Criterion:
    """Context manager: times the block and prints one PASS/FAIL line."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({elapsed:6.1f}s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget_s}s"
            )
        return False


def ou_kernel():
    return ScalarTypeKernel(ConstantKernel(1.0), [[-1.0]])


def diag5_kernel():
    return ScalarTypeKernel(ExponentialKernel(), -np.diag(np.arange(1.0, 6.0)))


def test_criterion_01_scalar_closed_forms():
    with Criterion(1, "scalar relaxation closed forms", 2.0):
        from stochvolterra import solve_scalar_resolvent

        grid = TimeGrid(1.0, 1024)
        path = solve_scalar_resolvent(ConstantKernel(1.0), 1.0, grid)
        assert np.max(np.abs(path.s - np.exp(-grid.nodes()))) < 1e-5

        grid6 = TimeGrid(6.0, 1024)
        path6 = solve_scalar_resolvent(LinearKernel(), 1.0, grid6)
        assert np.max(np.abs(path6.s - np.cos(grid6.nodes()))) < 5e-4


def test_criterion_02_mittag_leffler_cross_check():
    with Criterion(2, "fractional relaxation vs Mittag-Leffler", 4.0):
        from stochvolterra import solve_scalar_resolvent

        errs = {}
        for n in (2048, 4096):
            grid = TimeGrid(1.0, n)
            t = grid.nodes()
            path = solve_scalar_resolvent(FractionalKernel(0.5), 1.0, grid)
            closed = np.exp(t) * np.array([math.erfc(math.sqrt(x)) for x in t])
            errs[n] = float(np.max(np.abs(path.s - closed)))
        assert errs[2048] < 1e-2
        assert errs[2048] / errs[4096] >= 1.5
        # the series oracle agrees with the closed form it replaces
        for x in (0.25, 1.0):
            assert mittag_leffler(0.5, -math.sqrt(x)) == pytest.approx(
                math.exp(x) * math.erfc(math.sqrt(x)), rel=1e-12
            )


def test_criterion_03_resolvent_equation_residuals():
    with Criterion(3, "resolvent equation residuals and refinement", 5.0):
        for make in (ou_kernel, diag5_kernel):
            res = {}
            for n in (256, 512):
                table = compute_resolvent(make(), TimeGrid(1.0, n))
                r = resolvent_residuals(table)
                assert r.res_second < 1e-12
                res[n] = r.res_first
            assert 1.8 <= res[256] / res[512] <= 2.5
        # the conv scheme's defining equation is machine-exact too
        conv_table = compute_resolvent(ou_kernel(), TimeGrid(1.0, 256), scheme="conv")
        assert resolvent_residuals(conv_table).res_second < 1e-12


def test_criterion_04_spectral_oracle_equivalence():
    with Criterion(4, "spectral vs direct construction, symmetric 5x5", 2.0):
        rng = np.random.default_rng(1905)
        M = rng.standard_normal((5, 5))
        A = -(M @ M.T) / 5.0
        grid = TimeGrid(1.0, 512)
        a = ExponentialKernel()
        kernel = ScalarTypeKernel(a, A)
        spectral = compute_resolvent(kernel, grid)  # A is exactly symmetric: channels
        direct = grids.march(kernel.cell_weights(grid), "product")
        worst = max(float(np.linalg.norm(d)) for d in (direct - spectral.S))
        assert worst < 1e-10


def test_criterion_05_covariance_formula():
    with Criterion(5, "covariance: exact flat case and OU Monte Carlo", 60.0):
        # zero kernel: trapezoid is exact, covariance is t * B Q B'
        kern0 = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((2, 2)))
        table0 = compute_resolvent(kern0, TimeGrid(1.0, 64))
        B2 = HSOperator(np.array([[1.0, 0.5], [0.0, 2.0]]))
        Q2 = CovOperator(np.array([1.0, 2.0]))
        got = covariance_quadrature(table0, B2, Q2, 32)
        expected = 0.5 * (B2.matrix * Q2.q) @ B2.matrix.T
        assert np.max(np.abs(got - expected)) < 1e-12

        # OU benchmark: sample covariance within 5% of the quadrature value
        table = compute_resolvent(ou_kernel(), TimeGrid(1.0, 256))
        B = HSOperator(np.eye(1))
        Q = CovOperator(np.ones(1))
        spec = NoiseSpec(cov=Q, truncation=1, seed=7771)
        for t_target in (0.5, 1.0):
            idx = int(round(t_target / table.grid.h))
            quad = covariance_quadrature(table, B, Q, idx)
            est = covariance_monte_carlo(table, B, Q, spec, 20000, idx)
            rel = np.linalg.norm(est.sample_cov - quad) / np.linalg.norm(quad)
            assert rel < 0.05


def test_criterion_06_convolution_identity():
    with Criterion(6, "convolution identity, 100 paths, OU and nonscalar", 30.0):
        grid = TimeGrid(1.0, 256)

        table_ou = compute_resolvent(ou_kernel(), grid, scheme="conv")
        psi_ou = ConstantDiffusion(np.eye(1))
        spec_ou = NoiseSpec(cov=CovOperator(np.ones(1)), truncation=1, seed=606)
        for pid in range(100):
            inc = sample_wiener(spec_ou, grid, path_id=pid)
            path = stochastic_convolution(table_ou, psi_ou, inc)
            rep = verify_volterra_identity(path, table_ou.kernel, psi_ou, inc)
            assert rep.sup_residual < 1e-10

        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        M = np.array([[-1.0, 0.0], [0.5, -2.0]])
        kern = NonscalarKernel(
            [ScalarTypeKernel(ConstantKernel(), R), ScalarTypeKernel(LinearKernel(), M)]
        )
        table2 = compute_resolvent(kern, grid, scheme="conv")
        psi2 = ConstantDiffusion(np.array([[1.0, 0.0], [0.3, 0.7]]))
        spec2 = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=707)
        for pid in range(100):
            inc = sample_wiener(spec2, grid, path_id=pid)
            path = stochastic_convolution(table2, psi2, inc)
            rep = verify_volterra_identity(path, kern, psi2, inc)
            assert rep.sup_residual < 1e-10


def test_criterion_07_ito_identity():
    with Criterion(7, "integration-by-parts identity: exact case and order", 60.0):
        # flat case: zero kernel, constant test function, machine exactness
        d = 2
        kern0 = ScalarTypeKernel(ConstantKernel(1.0), np.zeros((d, d)))
        grid = TimeGrid(1.0, 128)
        table0 = compute_resolvent(kern0, grid)
        spec0 = NoiseSpec(cov=CovOperator(np.ones(d)), truncation=d, seed=5)
        inc = sample_wiener(spec0, grid, path_id=1)
        B0 = np.array([[1.0, 0.2], [0.0, 0.7]])
        x_path = mild_solution(table0, np.array([1.0, -0.5]), ConstantDiffusion(B0), inc)
        rep = verify_ito_identity(
            x_path, kern0, B0, ItoTestFunction.constant(np.array([0.3, 1.1])), inc
        )
        assert rep.sup_abs_residual < 1e-12

        # smooth scalar-type case: rms decreases at order >= 1/2 and the mean
        # over 1000 paths is statistically zero
        a = ExponentialKernel()
        A = np.array([[-1.0, 0.4], [0.0, -2.0]])
        kern = ScalarTypeKernel(a, A)
        B = np.array([[0.8, 0.0], [0.3, 0.5]])
        xi = ItoTestFunction(
            np.array([1.0, 0.5]), phi=lambda t: math.exp(t), phi_dot=lambda t: math.exp(t)
        )
        X0 = np.array([1.0, -1.0])
        spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=2024)
        rms = {}
        for n in (128, 256, 512):
            tab = compute_resolvent(kern, TimeGrid(1.0, n))
            stats = ito_identity_statistics(tab, B, xi, X0, spec, 1000)
            rms[n] = stats.rms
            assert abs(stats.mean) <= 3.0 * stats.std_error
        assert rms[128] / rms[256] >= math.sqrt(2.0) * 0.95
        assert rms[256] / rms[512] >= math.sqrt(2.0) * 0.95


def test_criterion_08_weak_solution_identity():
    with Criterion(8, "weak-form identity, 100 paths", 10.0):
        rng = np.random.default_rng(27)
        M = rng.standard_normal((3, 3))
        A = -(M @ M.T) / 3.0
        a = ExponentialKernel()
        grid = TimeGrid(1.0, 128)
        table = compute_resolvent(ScalarTypeKernel(a, A), grid, scheme="conv")
        psi = ConstantDiffusion(rng.standard_normal((3, 2)))
        spec = NoiseSpec(cov=CovOperator(np.ones(2)), truncation=2, seed=818)
        xi = rng.standard_normal(3)
        for pid in range(100):
            inc = sample_wiener(spec, grid, path_id=pid)
            path = stochastic_convolution(table, psi, inc)
            rep = verify_weak_solution(path, table.kernel, xi, psi, inc)
            assert rep.sup_residual < 1e-10


def test_criterion_09_complete_positivity():
    with Criterion(9, "complete positivity classification", 5.0):
        mus = [0.5, 1.0, 2.0, 5.0]
        assert check_complete_positivity(
            ExponentialKernel(), mu_list=mus, T=5.0, N=1024
        ).consistent
        assert check_complete_positivity(
            FractionalKernel(0.5), mu_list=mus, T=2.0, N=1024
        ).consistent
        report = check_complete_positivity(LinearKernel(), mu_list=[1.0], T=4.0, N=2048)
        assert not report.consistent
        assert report.witness is not None
        path = report.probes[0].path
        i2 = int(round(2.0 / report.grid.h))
        assert abs(path.s[i2] - math.cos(2.0)) < 1e-3


def test_criterion_10_yosida_convergence():
    with Criterion(10, "regularized-operator convergence and uniform bound", 120.0):
        A = -np.diag(np.arange(1.0, 6.0))
        psi = ConstantDiffusion(np.eye(5))
        spec = NoiseSpec(cov=CovOperator(np.ones(5)), truncation=5, seed=515151)
        study = yosida_convergence_study(
            ExponentialKernel(),
            A,
            psi,
            spec,
            [0.2, 0.1, 0.05, 0.025],
            TimeGrid(1.0, 128),
            5000,
        )
        assert np.all(np.diff(study.e_S) < 0)
        assert np.all(np.diff(study.e_W) < 0)
        assert np.all(np.diff(study.e_AW) < 0)
        ratios = study.e_S[:-1] / study.e_S[1:]
        assert np.all(ratios >= 1.6) and np.all(ratios <= 2.4)
        assert study.bound_M <= 1.1
        assert study.bound_w <= 0.05


def test_criterion_11_gaussian_statistics():
    with Criterion(11, "Gaussian moments and the Ito isometry", 60.0):
        A2 = np.array([[-1.0, 0.3], [0.0, -0.5]])
        table = compute_resolvent(
            ScalarTypeKernel(ExponentialKernel(), A2), TimeGrid(1.0, 128)
        )
        B = np.array([[1.0, 0.1], [-0.2, 0.7]])
        Q = CovOperator(np.array([1.0, 0.5]))
        spec = NoiseSpec(cov=Q, truncation=2, seed=31415)
        dw = sample_wiener_batch(spec, table.grid, range(10000))
        X = _convolve_at(_node_weights(table.S, B, table.grid.N), dw, table.grid.N)
        Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        skew = np.mean(Z**3, axis=0)
        kurt = np.mean(Z**4, axis=0) - 3.0
        assert np.all(np.abs(skew) < 0.08)
        assert np.all(np.abs(kurt) < 0.15)

        # isometry of the plain integral at 5% with 2e4 paths
        grid = TimeGrid(1.0, 64)
        spec_iso = NoiseSpec(cov=Q, truncation=2, seed=999)
        dw_iso = sample_wiener_batch(spec_iso, grid, range(20000))
        c_iso = _left_point_products(ConstantDiffusion(B).values_on_grid(grid), dw_iso)
        observed = float(np.mean(np.sum(np.sum(c_iso, axis=2) ** 2, axis=1)))
        predicted = ConstantDiffusion(B).integrated_hs_norm_sq(grid, Q)
        assert abs(observed - predicted) / predicted < 0.05


def test_criterion_12_cli_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)  # three workers on any machine
    ou = {"benchmark": "ou1"}
    noise = {"q": [1.0], "seed": 7}
    psi = {"variant": "constant", "matrix": [[1.0]]}
    small = {"T": 1.0, "N": 64}
    configs = {
        "scalar_resolvent": {
            "experiment": "scalar_resolvent",
            "kernel": {"variant": "constant", "c": 1.0},
            "mu": 1.0,
            "grid": {"T": 1.0, "N": 256},
        },
        "cp_check": {
            "experiment": "cp_check",
            "kernel": {"variant": "fractional", "alpha": 0.5},
            "grid": {"T": 1.0, "N": 256},
            "mu_list": [0.5, 1.0],
        },
        "resolvent": {
            "experiment": "resolvent",
            "kernel": {"variant": "exponential"},
            "operator": {"benchmark": "diag5"},
            "grid": small,
        },
        "convolve": {
            "experiment": "convolve",
            "kernel": {"variant": "constant", "c": 1.0},
            "operator": ou,
            "grid": small,
            "noise": noise,
            "psi": psi,
            "x0": [1.0],
        },
        "covariance": {
            "experiment": "covariance",
            "kernel": {"variant": "constant", "c": 1.0},
            "operator": ou,
            "grid": small,
            "noise": noise,
            "psi": psi,
            "mc": {"n_paths": 400},
            "t_index": 64,
        },
        "verify_volterra": {
            "experiment": "verify_volterra",
            "kernel": {"variant": "constant", "c": 1.0},
            "operator": ou,
            "grid": small,
            "noise": noise,
            "psi": psi,
            "mc": {"n_paths": 5},
        },
        "verify_ito": {
            "experiment": "verify_ito",
            "kernel": {"variant": "exponential"},
            "operator": {"matrix": [[-1.0]]},
            "grid": small,
            "noise": noise,
            "psi": psi,
            "xi": {"xi0": [1.0], "phi": "exp"},
            "x0": [1.0],
            "mc": {"n_paths": 50},
        },
        "yosida": {
            "experiment": "yosida",
            "kernel": {"variant": "exponential"},
            "operator": ou,
            "grid": {"T": 1.0, "N": 32},
            "noise": noise,
            "psi": psi,
            "lambdas": [0.2, 0.1],
            "mc": {"n_paths": 40},
        },
    }
    with Criterion(12, "byte-identical CLI reruns for every experiment", 10.0):
        for name, cfg in configs.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            runs = []
            for run, threads in (("a", "1"), ("b", "1"), ("c", "3")):
                out = tmp_path / f"{name}_{run}"
                code = main(
                    ["--config", str(cfg_path), "--out", str(out), "--threads", threads]
                )
                assert code == 0, name
                runs.append((out / f"{name}.csv").read_bytes())
            assert runs[0] == runs[1] == runs[2], name
        capsys.readouterr()  # swallow the path listings the runner prints
