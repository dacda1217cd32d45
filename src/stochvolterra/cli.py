"""Reproducible experiment runner.

One experiment per invocation: a JSON configuration file is validated
strictly (unknown keys anywhere are errors), dispatched to the library, and
the results are written as CSV files plus a manifest echoing the fully
resolved configuration and the package version.  Identical configurations
produce byte-identical CSV output, independent of the thread count.

Exit codes: 0 success, 2 configuration parse error, 3 validation error,
4 numerical failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .convolution import (
    MIN_COVARIANCE_PATHS,
    ItoTestFunction,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    mild_solution,
    stochastic_convolution,
    verify_volterra_identity,
)
from .errors import ConfigError, StochVolterraError
from .grids import TimeGrid
from .kernels import (
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    LinearKernel,
    TabulatedKernel,
    check_complete_positivity,
    solve_scalar_resolvent,
)
from .noise import ConstantDiffusion, NoiseSpec, StepDiffusion, sample_wiener
from .resolvent import (
    ScalarTypeKernel,
    compute_resolvent,
    exponential_bound_fit,
    resolvent_residuals,
)
from .spaces import CovOperator, HSOperator
from .yosida import yosida_convergence_study

EXPERIMENTS = (
    "scalar_resolvent",
    "cp_check",
    "resolvent",
    "convolve",
    "covariance",
    "verify_ito",
    "verify_volterra",
    "yosida",
)

BENCHMARK_OPERATORS = {
    "ou1": [[-1.0]],
    "diag5": [
        [-1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, -2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -4.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -5.0],
    ],
}

_PHI_FORMS = {
    "constant": (lambda t: 1.0, lambda t: 0.0),
    "exp": (lambda t: float(np.exp(t)), lambda t: float(np.exp(t))),
}


def _fmt(x):
    return format(float(x), ".17g")


def _integer(value, name):
    """A JSON integer (or integral float) as an int; anything else is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _require_keys(section, name, required, optional=()):
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in section '{name}'")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing key '{sorted(missing)[0]}' in section '{name}'")


def _build_kernel(section):
    _require_keys(
        section,
        "kernel",
        ["variant"],
        ["alpha", "c", "b", "times", "values"],
    )
    variant = section["variant"]
    try:
        if variant == "fractional":
            return FractionalKernel(section["alpha"])
        if variant == "exponential":
            return ExponentialKernel(section.get("c", 1.0), section.get("b", 1.0))
        if variant == "constant":
            return ConstantKernel(section.get("c", 1.0))
        if variant == "linear":
            return LinearKernel()
        if variant == "tabulated":
            return TabulatedKernel(section["times"], section["values"])
    except KeyError as exc:
        raise ConfigError(f"kernel variant '{variant}' is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid kernel: {exc}") from exc
    raise ConfigError(f"unknown kernel variant '{variant}'")


def _build_operator(section):
    _require_keys(section, "operator", [], ["matrix", "benchmark"])
    if ("matrix" in section) == ("benchmark" in section):
        raise ConfigError("operator needs exactly one of 'matrix' or 'benchmark'")
    if "benchmark" in section:
        name = section["benchmark"]
        if name not in BENCHMARK_OPERATORS:
            raise ConfigError(f"unknown operator benchmark '{name}'")
        return np.array(BENCHMARK_OPERATORS[name])
    A = np.array(section["matrix"], dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError("operator matrix must be square")
    return A


def _build_grid(section):
    _require_keys(section, "grid", ["T", "N"])
    try:
        return TimeGrid(float(section["T"]), _integer(section["N"], "grid.N"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _build_noise(section, seed_override):
    _require_keys(section, "noise", ["seed"], ["q", "cylindrical", "truncation"])
    if ("q" in section) == ("cylindrical" in section):
        raise ConfigError("noise needs exactly one of 'q' or 'cylindrical'")
    seed = _integer(section["seed"] if seed_override is None else seed_override, "noise.seed")
    try:
        if "q" in section:
            cov = CovOperator(np.array(section["q"], dtype=float))
        else:
            cov = CovOperator.cylindrical_truncation(
                _integer(section["cylindrical"], "noise.cylindrical")
            )
        truncation = _integer(section.get("truncation", cov.dim), "noise.truncation")
        return NoiseSpec(cov=cov, truncation=truncation, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise: {exc}") from exc


def _build_psi(section):
    _require_keys(section, "psi", ["variant"], ["matrix", "breakpoints", "matrices"])
    variant = section["variant"]
    try:
        if variant == "constant":
            return ConstantDiffusion(np.array(section["matrix"], dtype=float))
        if variant == "step":
            return StepDiffusion(
                section["breakpoints"],
                [np.array(m, dtype=float) for m in section["matrices"]],
            )
    except KeyError as exc:
        raise ConfigError(f"psi variant '{variant}' is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid psi: {exc}") from exc
    raise ConfigError(f"unknown psi variant '{variant}'")


def _build_xi(section):
    _require_keys(section, "xi", ["xi0"], ["phi"])
    form = section.get("phi", "constant")
    if form not in _PHI_FORMS:
        raise ConfigError(f"unknown phi form '{form}' (have {sorted(_PHI_FORMS)})")
    phi, phi_dot = _PHI_FORMS[form]
    return ItoTestFunction(np.array(section["xi0"], dtype=float), phi, phi_dot)


def _scheme(config, default):
    scheme = config.get("scheme", default)
    if scheme not in ("product", "conv"):
        raise ConfigError(f"unknown scheme '{scheme}'")
    return scheme


_COMMON_KEYS = ["experiment", "out_dir"]

_EXPERIMENT_KEYS = {
    "scalar_resolvent": (["kernel", "mu", "grid"], []),
    "cp_check": (["kernel", "grid"], ["mu_list", "tol"]),
    "resolvent": (["kernel", "operator", "grid"], ["scheme"]),
    "convolve": (["kernel", "operator", "grid", "noise", "psi"], ["scheme", "path_id", "x0"]),
    "covariance": (["kernel", "operator", "grid", "noise", "psi", "mc", "t_index"], ["scheme"]),
    "verify_ito": (["kernel", "operator", "grid", "noise", "psi", "xi", "x0", "mc"], ["scheme"]),
    "verify_volterra": (["kernel", "operator", "grid", "noise", "psi", "mc"], ["scheme"]),
    "yosida": (["kernel", "operator", "grid", "noise", "psi", "lambdas", "mc"], ["scheme"]),
}


def _n_paths(config):
    _require_keys(config["mc"], "mc", ["n_paths"])
    n = _integer(config["mc"]["n_paths"], "mc.n_paths")
    least = MIN_COVARIANCE_PATHS if config["experiment"] == "covariance" else 1
    if n < least:
        raise ConfigError(f"mc.n_paths must be at least {least}, got {n}")
    return n


def validate_config(config, seed_override=None):
    """Strict validation; returns the resolved configuration that is echoed
    into the manifest (defaults filled in, seed override applied)."""
    if not isinstance(config, dict):
        raise ConfigError("top-level configuration must be an object")
    if "experiment" not in config:
        raise ConfigError("missing key 'experiment'")
    experiment = config["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{experiment}'")
    required, optional = _EXPERIMENT_KEYS[experiment]
    _require_keys(config, "top level", ["experiment"] + required, optional + ["out_dir"])

    resolved = json.loads(json.dumps(config))  # deep copy of plain data
    _build_kernel(resolved["kernel"])
    resolved["grid"]["N"] = _build_grid(resolved["grid"]).N
    if "operator" in resolved:
        _build_operator(resolved["operator"])
    if "noise" in resolved:
        spec = _build_noise(resolved["noise"], seed_override)
        resolved["noise"]["seed"] = spec.seed
        resolved["noise"]["truncation"] = spec.truncation
        if "cylindrical" in resolved["noise"]:
            resolved["noise"]["cylindrical"] = spec.cov.dim
    if "psi" in resolved:
        _build_psi(resolved["psi"])
    if "xi" in resolved:
        _build_xi(resolved["xi"])
    if "mc" in resolved:
        resolved["mc"]["n_paths"] = _n_paths(resolved)
    if "path_id" in resolved:
        resolved["path_id"] = _integer(resolved["path_id"], "path_id")
        if not 0 <= resolved["path_id"] < 2**64:
            raise ConfigError("path_id must lie in [0, 2**64)")
    if "scheme" in optional:
        resolved["scheme"] = _scheme(
            resolved, "conv" if experiment.startswith("verify") else "product"
        )
    if experiment == "scalar_resolvent":
        resolved["mu"] = float(resolved["mu"])
    if experiment == "cp_check":
        resolved.setdefault("mu_list", [0.5, 1.0, 2.0, 5.0, 10.0])
        grid = _build_grid(resolved["grid"])
        resolved.setdefault("tol", 1e-8 + 10.0 * grid.h)
    if experiment == "covariance":
        resolved["t_index"] = _integer(resolved["t_index"], "t_index")
        if not (0 <= resolved["t_index"] <= resolved["grid"]["N"]):
            raise ConfigError("t_index out of range")
    if experiment == "yosida":
        lams = [float(l) for l in resolved["lambdas"]]
        if not lams or any(l <= 0 for l in lams):
            raise ConfigError("lambdas must be positive")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ConfigError("lambdas must decrease strictly")
        resolved["lambdas"] = lams
    return resolved


# ---------------------------------------------------------------------------
# experiment bodies: each returns ({filename: [csv lines]}, results-for-manifest)
# ---------------------------------------------------------------------------


def _run_scalar_resolvent(cfg, threads):
    kernel = _build_kernel(cfg["kernel"])
    grid = _build_grid(cfg["grid"])
    path = solve_scalar_resolvent(kernel, cfg["mu"], grid)
    lines = ["t,s"]
    for t, s in zip(grid.nodes(), path.s):
        lines.append(f"{_fmt(t)},{_fmt(s)}")
    return {"scalar_resolvent.csv": lines}, {"s_final": path.s[-1]}


def _run_cp_check(cfg, threads):
    kernel = _build_kernel(cfg["kernel"])
    report = check_complete_positivity(
        kernel,
        mu_list=cfg["mu_list"],
        T=cfg["grid"]["T"],
        N=cfg["grid"]["N"],
        tol=cfg["tol"],
    )
    lines = ["mu,min_s,t_at_min,first_violation_t"]
    for p in report.probes:
        first = "" if p.first_violation_t is None else _fmt(p.first_violation_t)
        lines.append(f"{_fmt(p.mu)},{_fmt(p.min_s)},{_fmt(p.t_at_min)},{first}")
    return {"cp_check.csv": lines}, {"verdict": report.verdict}


def _table(cfg):
    kernel = ScalarTypeKernel(_build_kernel(cfg["kernel"]), _build_operator(cfg["operator"]))
    return compute_resolvent(kernel, _build_grid(cfg["grid"]), scheme=cfg["scheme"])


def _run_resolvent(cfg, threads):
    table = _table(cfg)
    d = table.dim
    header = ["t"]
    header += [f"S_{i}_{j}" for i in range(d) for j in range(d)]
    header += [f"U_{i}_{j}" for i in range(d) for j in range(d)]
    lines = [",".join(header)]
    for n, t in enumerate(table.grid.nodes()):
        row = [_fmt(t)]
        row += [_fmt(x) for x in table.S[n].ravel()]
        row += [_fmt(x) for x in table.U[n].ravel()]
        lines.append(",".join(row))
    res = resolvent_residuals(table)
    bound = exponential_bound_fit(table)
    results = {
        "res_first": res.res_first,
        "res_second": res.res_second,
        "bound_M": bound.M,
        "bound_w": bound.w,
        "u_lipschitz": table.u_lipschitz(),
    }
    return {"resolvent.csv": lines}, results


def _run_convolve(cfg, threads):
    table = _table(cfg)
    spec = _build_noise(cfg["noise"], None)
    psi = _build_psi(cfg["psi"])
    inc = sample_wiener(spec, table.grid, path_id=cfg.get("path_id", 0))
    if "x0" in cfg:
        values = mild_solution(table, np.array(cfg["x0"], dtype=float), psi, inc).values
    else:
        values = stochastic_convolution(table, psi, inc).values
    d = table.dim
    lines = [",".join(["t"] + [f"X_{i}" for i in range(d)])]
    for n, t in enumerate(table.grid.nodes()):
        lines.append(",".join([_fmt(t)] + [_fmt(x) for x in values[n]]))
    return {"convolve.csv": lines}, {}


def _run_covariance(cfg, threads):
    table = _table(cfg)
    spec = _build_noise(cfg["noise"], None)
    psi = _build_psi(cfg["psi"])
    if not isinstance(psi, ConstantDiffusion):
        raise ConfigError("covariance experiment needs a constant psi")
    B = HSOperator(psi.B)
    t_index = cfg["t_index"]
    quad = covariance_quadrature(table, B, spec.cov, t_index)
    est = covariance_monte_carlo(
        table, B, spec.cov, spec, cfg["mc"]["n_paths"], t_index, threads=threads
    )
    lines = ["i,j,quadrature,mc,std_error"]
    d = table.dim
    for i in range(d):
        for j in range(d):
            lines.append(
                f"{i},{j},{_fmt(quad[i, j])},{_fmt(est.sample_cov[i, j])},"
                f"{_fmt(est.std_error[i, j])}"
            )
    return {"covariance.csv": lines}, {"n_paths": est.n_paths}


def _run_verify_volterra(cfg, threads):
    table = _table(cfg)
    spec = _build_noise(cfg["noise"], None)
    psi = _build_psi(cfg["psi"])
    n_paths = cfg["mc"]["n_paths"]
    lines = ["path_id,sup_residual"]
    worst = 0.0
    for pid in range(n_paths):
        inc = sample_wiener(spec, table.grid, path_id=pid)
        path = stochastic_convolution(table, psi, inc)
        report = verify_volterra_identity(path, table.kernel, psi, inc)
        worst = max(worst, report.sup_residual)
        lines.append(f"{pid},{_fmt(report.sup_residual)}")
    return {"verify_volterra.csv": lines}, {"max_sup_residual": worst}


def _run_verify_ito(cfg, threads):
    table = _table(cfg)
    spec = _build_noise(cfg["noise"], None)
    psi = _build_psi(cfg["psi"])
    if not isinstance(psi, ConstantDiffusion):
        raise ConfigError("verify_ito needs a constant psi")
    xi = _build_xi(cfg["xi"])
    stats = ito_identity_statistics(
        table,
        psi.B,
        xi,
        np.array(cfg["x0"], dtype=float),
        spec,
        cfg["mc"]["n_paths"],
        threads=threads,
    )
    lines = ["path_id,final_residual"]
    for pid, r in enumerate(stats.final_residuals):
        lines.append(f"{pid},{_fmt(r)}")
    results = {"mean": stats.mean, "std_error": stats.std_error, "rms": stats.rms}
    return {"verify_ito.csv": lines}, results


def _run_yosida(cfg, threads):
    kernel = _build_kernel(cfg["kernel"])
    A = _build_operator(cfg["operator"])
    spec = _build_noise(cfg["noise"], None)
    psi = _build_psi(cfg["psi"])
    study = yosida_convergence_study(
        kernel,
        A,
        psi,
        spec,
        cfg["lambdas"],
        _build_grid(cfg["grid"]),
        cfg["mc"]["n_paths"],
        scheme=cfg["scheme"],
        threads=threads,
    )
    lines = ["lambda,e_S,e_W,e_AW"]
    for lam, es, ew, eaw in zip(study.lambdas, study.e_S, study.e_W, study.e_AW):
        lines.append(f"{_fmt(lam)},{_fmt(es)},{_fmt(ew)},{_fmt(eaw)}")
    results = {"bound_M": study.bound_M, "bound_w": study.bound_w}
    return {"yosida.csv": lines}, results


_RUNNERS = {
    "scalar_resolvent": _run_scalar_resolvent,
    "cp_check": _run_cp_check,
    "resolvent": _run_resolvent,
    "convolve": _run_convolve,
    "covariance": _run_covariance,
    "verify_ito": _run_verify_ito,
    "verify_volterra": _run_verify_volterra,
    "yosida": _run_yosida,
}


def run_experiment(config, out_dir, threads=1, seed_override=None):
    """Validate, run, and write outputs plus the manifest.

    Returns the list of written file paths.  Nothing is written until the
    whole computation has succeeded.
    """
    resolved = validate_config(config, seed_override=seed_override)
    files, results = _RUNNERS[resolved["experiment"]](resolved, threads)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, lines in files.items():
        path = out_dir / name
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    manifest = {
        "manifest_version": 1,
        "package_version": __version__,
        "experiment": resolved["experiment"],
        "config": resolved,
        "outputs": sorted(files),
        "results": results,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(str(manifest_path))
    return written


def _load_config(path):
    try:
        text = Path(path).read_text()
        data = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    if isinstance(data, dict) and "manifest_version" in data:
        if "config" not in data:
            raise ConfigError("manifest file has no 'config' section")
        return data["config"]
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stochvolterra",
        description="Run one reproducible stochastic-Volterra experiment",
    )
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output directory (default ./out)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or (config.get("out_dir") if isinstance(config, dict) else None) or "out"
    try:
        written = run_experiment(
            config, out_dir, threads=max(args.threads, 1), seed_override=args.seed
        )
    except ConfigError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 3
    except (StochVolterraError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
