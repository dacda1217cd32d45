"""The four benchmark workloads: config generators, sizes and correctness gates.

Each workload is one CLI experiment.  `make_config(name, seed)` returns the
JSON configuration handed to `stochvolterra.cli.run_experiment`; the seed only
picks the noise seed, so sizes are the same on every seed and the same seed
always gives the same configuration.  `check(name, out_dir)` reads the files
the experiment wrote and returns the list of gates it missed (empty when the
output is correct).
"""

import csv
import json
import math
import random
from pathlib import Path

DIAG5 = [-1.0, -2.0, -3.0, -4.0, -5.0]
IDENTITY5 = [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]


def noise_seed(name, seed):
    """Deterministic per-workload noise seed derived from the benchmark seed."""
    return random.Random(f"{name}:{seed}").randrange(2**31)


def _resolvent_fractional(seed, small):
    # no random input: the seed does not change this configuration
    return {
        "experiment": "resolvent",
        "kernel": {"variant": "fractional", "alpha": 0.5},
        "operator": {"benchmark": "diag5"},
        "grid": {"T": 1.0, "N": 64 if small else 1024},
        "scheme": "product",
    }


def _ito_mc(seed, small):
    return {
        "experiment": "verify_ito",
        "kernel": {"variant": "exponential"},
        "operator": {"matrix": [[-1.0, 0.4], [0.0, -2.0]]},
        "grid": {"T": 1.0, "N": 32 if small else 128},
        "noise": {"seed": noise_seed("ito_mc", seed), "q": [1.0, 1.0]},
        "psi": {"variant": "constant", "matrix": [[0.8, 0.0], [0.3, 0.5]]},
        "xi": {"xi0": [1.0, 0.5], "phi": "exp"},
        "x0": [1.0, -1.0],
        "mc": {"n_paths": 100 if small else 1000},
        "scheme": "product",
    }


def _covariance_mc(seed, small):
    n = 32 if small else 256
    return {
        "experiment": "covariance",
        "kernel": {"variant": "constant", "c": 1.0},
        "operator": {"benchmark": "diag5"},
        "grid": {"T": 1.0, "N": n},
        "noise": {"seed": noise_seed("covariance_mc", seed), "cylindrical": 5},
        "psi": {"variant": "constant", "matrix": IDENTITY5},
        "mc": {"n_paths": 200 if small else 20000},
        "t_index": n,
    }


def _yosida_study(seed, small):
    return {
        "experiment": "yosida",
        "kernel": {"variant": "exponential"},
        "operator": {"benchmark": "diag5"},
        "grid": {"T": 1.0, "N": 32 if small else 128},
        "noise": {"seed": noise_seed("yosida_study", seed), "cylindrical": 5},
        "psi": {"variant": "constant", "matrix": IDENTITY5},
        "lambdas": [0.2, 0.1, 0.05, 0.025],
        "mc": {"n_paths": 100 if small else 1000},
    }


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of messages for the gates missed
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(x) if x else math.nan for x in row] for row in rows[1:]]


def _results(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())["results"]


def _erfcx(x):
    return math.exp(x * x) * math.erfc(x)


def _check_resolvent_fractional(out_dir):
    failures = []
    results = _results(out_dir)
    if not results["res_second"] < 1e-12:
        failures.append(f"res_second {results['res_second']:g} >= 1e-12")
    if not results["bound_M"] >= 1.0:
        failures.append(f"bound_M {results['bound_M']:g} < 1")
    header, rows = _read_csv(Path(out_dir) / "resolvent.csv")
    # S is diagonal with channel s(t) = E_1/2(-lam sqrt t) = erfcx(lam sqrt t)
    worst = 0.0
    for k, a in enumerate(DIAG5):
        col = header.index(f"S_{k}_{k}")
        for row in rows:
            worst = max(worst, abs(row[col] - _erfcx(-a * math.sqrt(row[0]))))
    if not worst < 1e-2:
        failures.append(f"max |S_kk - erfcx| {worst:g} >= 1e-2")
    return failures


def _check_ito_mc(out_dir):
    results = _results(out_dir)
    if abs(results["mean"]) <= 3.0 * results["std_error"]:
        return []
    return [f"|mean| {abs(results['mean']):g} > 3 SE ({3.0 * results['std_error']:g})"]


def _frobenius(m):
    return math.sqrt(sum(x * x for row in m for x in row))


def _check_covariance_mc(out_dir):
    failures = []
    _, rows = _read_csv(Path(out_dir) / "covariance.csv")
    d = len(DIAG5)
    quad = [[0.0] * d for _ in range(d)]
    mc = [[0.0] * d for _ in range(d)]
    for i, j, q, m, _ in rows:
        quad[int(i)][int(j)] = q
        mc[int(i)][int(j)] = m
    # constant c = 1 kernel: S(t) = exp(A t), so the covariance at T = 1 is
    # diag((1 - exp(-2 lam)) / (2 lam)) for A = -diag(lam)
    exact = [[0.0] * d for _ in range(d)]
    for k, a in enumerate(DIAG5):
        exact[k][k] = (1.0 - math.exp(2.0 * a)) / (-2.0 * a)
    diff = [[mc[i][j] - quad[i][j] for j in range(d)] for i in range(d)]
    rel_mc = _frobenius(diff) / _frobenius(quad)
    if not rel_mc < 0.05:
        failures.append(f"MC vs quadrature relative error {rel_mc:g} >= 0.05")
    diff = [[quad[i][j] - exact[i][j] for j in range(d)] for i in range(d)]
    rel_quad = _frobenius(diff) / _frobenius(exact)
    if not rel_quad < 1e-4:
        failures.append(f"quadrature vs closed form relative error {rel_quad:g} >= 1e-4")
    return failures


def _check_yosida_study(out_dir):
    failures = []
    results = _results(out_dir)
    _, rows = _read_csv(Path(out_dir) / "yosida.csv")
    columns = {"e_S": 1, "e_W": 2, "e_AW": 3}
    for name, col in columns.items():
        values = [row[col] for row in rows]
        if not all(b < a for a, b in zip(values, values[1:])):
            failures.append(f"{name} not strictly decreasing: {values}")
    e_S = [row[1] for row in rows]
    ratios = [a / b for a, b in zip(e_S, e_S[1:])]
    if not all(1.6 <= r <= 2.4 for r in ratios):
        failures.append(f"e_S ratios {ratios} outside [1.6, 2.4]")
    if not results["bound_M"] <= 1.1:
        failures.append(f"bound_M {results['bound_M']:g} > 1.1")
    if not results["bound_w"] <= 0.05:
        failures.append(f"bound_w {results['bound_w']:g} > 0.05")
    return failures


WORKLOADS = {
    "resolvent_fractional": {
        "make": _resolvent_fractional,
        "check": _check_resolvent_fractional,
        "threads": 1,
        "why": "resolvent marching, residuals and growth-bound fit do almost all "
        "the work, and the CLI writes its largest CSV (1025 rows x 51 numbers).",
    },
    "ito_mc": {
        "make": _ito_mc,
        "check": _check_ito_mc,
        "threads": 1,
        "why": "the Ito identity over 1000 paths: convolution history sums "
        "(_convolve_paths and the drift loop) dominate; noise and resolvent are small.",
    },
    "covariance_mc": {
        "make": _covariance_mc,
        "check": _check_covariance_mc,
        "threads": 1,
        "why": "20000 paths convolved at one node: Wiener sampling dominates, and "
        "a primitive that computed every node would show here.",
    },
    "yosida_study": {
        "make": _yosida_study,
        "check": _check_yosida_study,
        "threads": 1,
        "why": "the only workload running the yosida layer: one noise batch "
        "convolved against five tables, 516 operator norms and a positivity probe.",
    },
}


def make_config(name, seed, small=False):
    """The configuration of workload `name` for `seed`; `small` shrinks N and P
    for quick self-tests (its outputs are not held to the gates)."""
    return WORKLOADS[name]["make"](seed, small)


def check(name, out_dir):
    return WORKLOADS[name]["check"](out_dir)


def sizes(config):
    """N, d, P, K and scheme of a configuration, as the experiment resolves them."""
    op = config["operator"]
    d = len(op["matrix"]) if "matrix" in op else len(DIAG5)
    noise = config.get("noise", {})
    K = noise.get("cylindrical") or len(noise.get("q", []))
    default_scheme = "conv" if config["experiment"].startswith("verify") else "product"
    return {
        "N": config["grid"]["N"],
        "d": d,
        "P": config["mc"]["n_paths"] if "mc" in config else 1,
        "K": K,
        "scheme": config.get("scheme", default_scheme),
    }
