"""Reproducible experiment runner.

One experiment per invocation: a JSON configuration file is validated
strictly (unknown keys anywhere are errors), dispatched to the library, and
the results are written as CSV files plus a manifest echoing the fully
resolved configuration and the package version.  Runners return numbers; one
writer streams them a row or a chunk of rows at a time, every cell to 17
significant digits, so identical configurations produce byte-identical CSV
output, independent of the thread count.

Validation is the only parsing pass: it builds each section once into the
object the runner takes and checks sizes across sections, so every
configuration fault is reported before any computation starts.

Exit codes: 0 success, 2 configuration parse error or output fault (an output
location that cannot be a directory, checked before any computation, or a
failed write), 3 validation error, 4 numerical failure or exhausted memory.
"""

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .convolution import (
    MIN_COVARIANCE_PATHS,
    MIN_ITO_PATHS,
    ItoTestFunction,
    _per_path,
    _volterra_sups,
    covariance_monte_carlo,
    covariance_quadrature,
    ito_identity_statistics,
    mild_solution,
    stochastic_convolution,
)
from .errors import ConfigError, StochVolterraError
from .grids import TimeGrid
from .kernels import (
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    LinearKernel,
    TabulatedKernel,
    _probe_settings,
    check_complete_positivity,
    solve_scalar_resolvent,
)
from .noise import ConstantDiffusion, NoiseSpec, StepDiffusion, _check_integrand, sample_wiener
from .resolvent import (
    MIN_BOUND_FIT_CELLS,
    MIN_RESOLVENT_CELLS,
    SCHEMES,
    ScalarTypeKernel,
    compute_resolvent,
    exponential_bound_fit,
    resolvent_residuals,
)
from .spaces import CovOperator, _integer_in, _square, _vector
from .yosida import _check_lambdas, yosida_convergence_study

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


def _integer(value, name, least=-math.inf, most=math.inf):
    """A JSON integer (or integral float) in [least, most] as an int, checked by
    `spaces._integer_in`; anything else is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return _integer_in(value, name, least, most)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _number(value, name):
    """A finite JSON number as a float; strings, bools and anything else are a
    ConfigError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):  # False for nan and inf
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, depth):
    """True for lists nested `depth` deep whose leaves are all ints or floats
    (not bools, which numpy would upcast in a mixed list)."""
    if depth == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, (list, tuple)) and all(_numbers(v, depth - 1) for v in value)


def _array(value, name, ndim):
    """Lists of finite numbers nested `ndim` deep, as a float array."""
    try:
        a = np.array(value)
    except ValueError:  # ragged nesting
        a = np.array(None)
    kind_ok = a.dtype.kind in "iuf" and _numbers(value, ndim)
    if not kind_ok or a.ndim != ndim or not np.all(np.isfinite(a)):
        kind = ("a list", "a matrix", "a list of matrices")[ndim - 1]
        raise ConfigError(f"{name} must be {kind} of finite numbers")
    return a.astype(float)


def _choice(value, options, name):
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"unknown {name} {value!r} (have {sorted(options)})")
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


def _section(name, build, *args):
    """build(*args), with a ValueError or TypeError it raises reported as a
    ConfigError naming the section."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


# each variant's required keys, optional keys and builder; a key of another variant is unknown
_KERNELS = {
    "fractional": (("alpha",), (), lambda s: FractionalKernel(_number(s["alpha"], "kernel.alpha"))),
    "exponential": ((), ("c", "b"), lambda s: ExponentialKernel(
        _number(s.get("c", 1.0), "kernel.c"), _number(s.get("b", 1.0), "kernel.b")
    )),
    "constant": ((), ("c",), lambda s: ConstantKernel(_number(s.get("c", 1.0), "kernel.c"))),
    "linear": ((), (), lambda s: LinearKernel()),
    "tabulated": (("times", "values"), (), lambda s: TabulatedKernel(
        _array(s["times"], "kernel.times", 1), _array(s["values"], "kernel.values", 1)
    )),
}

_PSIS = {
    "constant": (("matrix",), (), lambda s: ConstantDiffusion(
        _array(s["matrix"], "psi.matrix", 2)
    )),
    "step": (("breakpoints", "matrices"), (), lambda s: StepDiffusion(
        _array(s["breakpoints"], "psi.breakpoints", 1), _array(s["matrices"], "psi.matrices", 3)
    )),
}


def _variant(section, name, variants):
    """The object built from a section by the builder of its variant in `variants`, after
    checking that the section holds that variant's required keys and no others."""
    _require_keys(section, name, ["variant"], section)  # an object naming a variant
    required, optional, build = variants[_choice(section["variant"], variants, f"{name} variant")]
    _require_keys(section, name, ("variant",) + required, optional)
    return build(section)


def _grid(section, min_cells):
    _require_keys(section, "grid", ["T", "N"])
    N = _integer(section["N"], "grid.N", min_cells)
    return TimeGrid(_number(section["T"], "grid.T"), N)


def _operator(section):
    _require_keys(section, "operator", [], ["matrix", "benchmark"])
    if ("matrix" in section) == ("benchmark" in section):
        raise ConfigError("operator needs exactly one of 'matrix' or 'benchmark'")
    if "benchmark" in section:
        name = _choice(section["benchmark"], BENCHMARK_OPERATORS, "operator benchmark")
        return np.array(BENCHMARK_OPERATORS[name])
    return _square(_array(section["matrix"], "operator.matrix", 2), "operator.matrix")


def _noise(section, seed_override):
    _require_keys(section, "noise", ["seed"], ["q", "cylindrical", "truncation"])
    if ("q" in section) == ("cylindrical" in section):
        raise ConfigError("noise needs exactly one of 'q' or 'cylindrical'")
    seed = _integer(section["seed"] if seed_override is None else seed_override, "noise.seed")
    if "q" in section:
        cov = CovOperator(_array(section["q"], "noise.q", 1))
    else:
        cov = CovOperator.cylindrical_truncation(
            _integer(section["cylindrical"], "noise.cylindrical")
        )
    truncation = _integer(section.get("truncation", cov.dim), "noise.truncation")
    return NoiseSpec(cov=cov, truncation=truncation, seed=seed)


def _xi(section, d):
    _require_keys(section, "xi", ["xi0"], ["phi"])
    phi, phi_dot = _PHI_FORMS[_choice(section.get("phi", "constant"), _PHI_FORMS, "phi form")]
    return ItoTestFunction(_vector(_array(section["xi0"], "xi.xi0", 1), "xi.xi0", d), phi, phi_dot)


def _resolve(config, seed_override):
    """Check a configuration and build each of its sections once.

    Returns the echo written to the manifest (defaults filled in, seed override
    applied, integer fields as ints) and the runner's keyword arguments.  Every
    fault, sizes that disagree across sections included, is a ConfigError.
    """
    if not isinstance(config, dict):
        raise ConfigError("top-level configuration must be an object")
    if "experiment" not in config:
        raise ConfigError("missing key 'experiment'")
    name = _choice(config["experiment"], EXPERIMENTS, "experiment")
    exp = EXPERIMENTS[name]
    optional = exp.optional + ("out_dir",) + (("scheme",) if exp.scheme else ())
    _require_keys(config, "top level", ("experiment",) + exp.required, optional)
    if not isinstance(config.get("out_dir", ""), str):
        raise ConfigError("out_dir must be a string")

    echo = json.loads(json.dumps(config))  # deep copy of plain data
    kernel = _section("kernel", _variant, echo["kernel"], "kernel", _KERNELS)
    grid = _section("grid", _grid, echo["grid"], exp.min_cells)
    echo["grid"]["N"] = grid.N
    args = {"kernel": kernel, "grid": grid}
    if exp.scheme:
        scheme = _choice(echo.get("scheme", exp.scheme), SCHEMES, "scheme")
        args["scheme"] = echo["scheme"] = scheme
    if "mu" in echo:
        args["mu"] = echo["mu"] = _number(echo["mu"], "mu")
    if "mu_list" in exp.optional:
        mus = _array(echo["mu_list"], "mu_list", 1) if "mu_list" in echo else None
        tol = _number(echo["tol"], "tol") if "tol" in echo else None
        mus, tol = _section("cp_check", _probe_settings, mus, tol, grid.h)
        args["mu_list"], args["tol"] = echo["mu_list"], echo["tol"] = mus, tol
    if "operator" in echo:
        A = args["operator"] = _section("operator", _operator, echo["operator"])
        d = A.shape[0]
    if "noise" in echo:  # every experiment with noise also has an operator and a psi
        spec = args["noise"] = _section("noise", _noise, echo["noise"], seed_override)
        echo["noise"].update(seed=spec.seed, truncation=spec.truncation)
        if "cylindrical" in echo["noise"]:
            echo["noise"]["cylindrical"] = spec.cov.dim
        psi = _section("psi", _variant, echo["psi"], "psi", _PSIS)
        args["psi"] = _section("psi", _check_integrand, psi, d, spec.cov)
        if exp.constant_psi and not isinstance(psi, ConstantDiffusion):
            raise ConfigError(f"{name} needs a constant psi")
    if "xi" in echo:
        args["xi"] = _section("xi", _xi, echo["xi"], d)
        if not kernel.differentiable:
            raise ConfigError(f"verify_ito needs a differentiable kernel, got {kernel.label()}")
    if "x0" in echo:
        args["x0"] = _section("x0", _vector, _array(echo["x0"], "x0", 1), "x0", d)
    if "mc" in echo:
        _require_keys(echo["mc"], "mc", ["n_paths"])
        n_paths = _integer(echo["mc"]["n_paths"], "mc.n_paths", exp.min_paths)
        args["n_paths"] = echo["mc"]["n_paths"] = n_paths
    if "t_index" in echo:
        args["t_index"] = echo["t_index"] = _integer(echo["t_index"], "t_index", 0, grid.N)
    if "path_id" in echo:
        args["path_id"] = echo["path_id"] = _integer(echo["path_id"], "path_id", 0, 2**64 - 1)
    if "lambdas" in echo:
        lams = _section("lambdas", _check_lambdas, _array(echo["lambdas"], "lambdas", 1))
        args["lambdas"] = echo["lambdas"] = lams.tolist()
    return echo, args


def validate_config(config, seed_override=None):
    """Strict validation; returns the resolved configuration that is echoed
    into the manifest (defaults filled in, seed override applied)."""
    return _resolve(config, seed_override)[0]


# ---------------------------------------------------------------------------
# experiment bodies: each takes the resolved objects and returns numbers,
# ({filename: (header, rows)}, results-for-manifest); rows is any iterable of
# number sequences (None for an empty cell), and `_write_csv` formats them
# ---------------------------------------------------------------------------


def _run_scalar_resolvent(kernel, mu, grid, threads):
    path = solve_scalar_resolvent(kernel, mu, grid)
    rows = zip(grid.nodes(), path.s)
    return {"scalar_resolvent.csv": (["t", "s"], rows)}, {"s_final": path.s[-1]}


def _run_cp_check(kernel, grid, mu_list, tol, threads):
    report = check_complete_positivity(kernel, mu_list=mu_list, T=grid.T, N=grid.N, tol=tol)
    header = ["mu", "min_s", "t_at_min", "first_violation_t"]
    rows = [(p.mu, p.min_s, p.t_at_min, p.first_violation_t) for p in report.probes]
    return {"cp_check.csv": (header, rows)}, {"verdict": report.verdict}


def _table(kernel, operator, grid, scheme):
    return compute_resolvent(ScalarTypeKernel(kernel, operator), grid, scheme=scheme)


def _run_resolvent(kernel, operator, grid, scheme, threads):
    table = _table(kernel, operator, grid, scheme)
    res = resolvent_residuals(table)
    bound = exponential_bound_fit(table)
    results = {
        "res_first": res.res_first,
        "res_second": res.res_second,
        "bound_M": bound.M,
        "bound_w": bound.w,
        "u_lipschitz": table.u_lipschitz(),
    }
    d, n = table.dim, grid.N + 1
    entries = [f"{i}_{j}" for i in range(d) for j in range(d)]
    header = ["t"] + [f"S_{ij}" for ij in entries] + [f"U_{ij}" for ij in entries]
    # stacked after the residuals, whose temporary arrays set the peak memory
    rows = np.column_stack([grid.nodes(), table.S.reshape(n, -1), table.U.reshape(n, -1)])
    return {"resolvent.csv": (header, rows)}, results


def _run_convolve(kernel, operator, grid, noise, psi, scheme, threads, path_id=0, x0=None):
    table = _table(kernel, operator, grid, scheme)
    inc = sample_wiener(noise, grid, path_id=path_id)
    if x0 is None:
        values = stochastic_convolution(table, psi, inc).values
    else:
        values = mild_solution(table, x0, psi, inc).values
    header = ["t"] + [f"X_{i}" for i in range(table.dim)]
    return {"convolve.csv": (header, np.column_stack([grid.nodes(), values]))}, {}


def _run_covariance(kernel, operator, grid, noise, psi, n_paths, t_index, scheme, threads):
    table = _table(kernel, operator, grid, scheme)
    quad = covariance_quadrature(table, psi.B, noise.cov, t_index)
    est = covariance_monte_carlo(table, psi.B, noise.cov, noise, n_paths, t_index, threads=threads)
    header = ["i", "j", "quadrature", "mc", "std_error"]
    i, j = np.indices(quad.shape).reshape(2, -1)
    rows = zip(i, j, quad.ravel(), est.sample_cov.ravel(), est.std_error.ravel())
    return {"covariance.csv": (header, rows)}, {"n_paths": est.n_paths}


def _run_verify_volterra(kernel, operator, grid, noise, psi, n_paths, scheme, threads):
    table = _table(kernel, operator, grid, scheme)
    vals = psi.values_on_grid(grid)  # once per stream, not per block
    sups = _per_path(lambda dw: _volterra_sups(table, vals, dw), noise, grid, n_paths, threads)
    results = {"max_sup_residual": float(np.max(sups))}
    rows = enumerate(sups.tolist())
    return {"verify_volterra.csv": (["path_id", "sup_residual"], rows)}, results


def _run_verify_ito(kernel, operator, grid, noise, psi, xi, x0, n_paths, scheme, threads):
    table = _table(kernel, operator, grid, scheme)
    stats = ito_identity_statistics(table, psi.B, xi, x0, noise, n_paths, threads=threads)
    rows = enumerate(stats.final_residuals.tolist())
    results = {"mean": stats.mean, "std_error": stats.std_error, "rms": stats.rms}
    return {"verify_ito.csv": (["path_id", "final_residual"], rows)}, results


def _run_yosida(kernel, operator, grid, noise, psi, lambdas, n_paths, scheme, threads):
    study = yosida_convergence_study(
        kernel, operator, psi, noise, lambdas, grid, n_paths, scheme=scheme, threads=threads
    )
    rows = zip(study.lambdas, study.e_S, study.e_W, study.e_AW)
    results = {"bound_M": study.bound_M, "bound_w": study.bound_w}
    return {"yosida.csv": (["lambda", "e_S", "e_W", "e_AW"], rows)}, results


@dataclass(frozen=True)
class _Experiment:
    """An experiment's runner, top-level keys, default table scheme (None: it
    builds no table and takes no 'scheme' key), the least grid.N and
    mc.n_paths its library calls accept, and whether psi must be constant."""

    run: object
    required: tuple
    optional: tuple = ()
    scheme: str | None = None
    min_cells: int = 1
    min_paths: int = 1
    constant_psi: bool = False


_CELLS = MIN_RESOLVENT_CELLS
_TABLE = ("kernel", "operator", "grid")
_NOISY = _TABLE + ("noise", "psi")

EXPERIMENTS = {
    "scalar_resolvent": _Experiment(_run_scalar_resolvent, ("kernel", "mu", "grid")),
    "cp_check": _Experiment(_run_cp_check, ("kernel", "grid"), ("mu_list", "tol")),
    "resolvent": _Experiment(_run_resolvent, _TABLE, (), "product", MIN_BOUND_FIT_CELLS),
    "convolve": _Experiment(_run_convolve, _NOISY, ("path_id", "x0"), "product", _CELLS),
    "covariance": _Experiment(
        _run_covariance, _NOISY + ("mc", "t_index"), (), "product", _CELLS,
        MIN_COVARIANCE_PATHS, constant_psi=True,
    ),
    "verify_ito": _Experiment(
        _run_verify_ito, _NOISY + ("xi", "x0", "mc"), (), "conv", _CELLS, MIN_ITO_PATHS, True
    ),
    "verify_volterra": _Experiment(_run_verify_volterra, _NOISY + ("mc",), (), "conv", _CELLS),
    "yosida": _Experiment(
        _run_yosida, _NOISY + ("lambdas", "mc"), (), "product", MIN_BOUND_FIT_CELLS
    ),
}


def _check_out_dir(out_dir):
    """Raise NotADirectoryError if out_dir, or else its nearest existing
    ancestor, is not a directory (so out_dir cannot be made one), and OSError
    if out_dir is no path at all (an embedded NUL byte)."""
    try:
        place = out_dir.resolve()
    except ValueError as exc:
        raise OSError(f"output location {str(out_dir)!r} is not a path: {exc}") from exc
    while not place.exists():
        place = place.parent
    if not place.is_dir():
        raise NotADirectoryError(f"output location {place} is not a directory")


_CSV_CELLS = 1 << 16  # varying cells of an array formatted by one `%` call and one write


def _write_csv(path, header, rows):
    """Write the header line, then one line per row, each number to 17
    significant digits and None as an empty cell.  A row of numbers takes one
    "%.17g,..." template, which prints each as format(x, ".17g") does; an iterable
    of rows is formatted one row at a time.  In a 2-D float64 array of rows, each
    column whose entries all have row 0's bits (-0.0 is not +0.0) is formatted once,
    into the template, and the rest go from Python floats (`tolist`) a chunk of rows
    at a time: the template repeated once per row of the chunk, one `%` call and one
    write for at most _CSV_CELLS varying cells, so memory stays bounded on any table."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    if isinstance(rows, np.ndarray) and len(rows):
        bits = rows.view(np.uint64)
        const = np.all(bits == bits[0], axis=0)
        cells = [("%.17g" % x).replace("%", "%%") for x in rows[0].tolist()]
        line = ",".join(c if k else "%.17g" for c, k in zip(cells, const)) + "\n"
        rows = rows[:, ~const]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            step = max(1, _CSV_CELLS // max(1, rows.shape[1]))
            for p in range(0, len(rows), step):
                chunk = rows[p : p + step]
                f.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            return
        for row in rows:
            try:
                f.write(line % tuple(row.tolist() if isinstance(row, np.ndarray) else row))
            except TypeError:  # a None cell
                f.write(",".join("" if x is None else format(float(x), ".17g") for x in row) + "\n")


def run_experiment(config, out_dir, threads=1, seed_override=None):
    """Validate, check the output location, run, and write outputs plus the
    manifest (last).

    Returns the list of written file paths.  Nothing is written until the
    whole computation has succeeded; an unusable output location raises
    OSError before it starts, as does a failed write.  A manifest only sits
    next to the files it lists: an existing one is removed before the first
    write, and a failed write removes every file this run wrote.
    """
    resolved, args = _resolve(config, seed_override)
    out_dir = Path(out_dir)
    _check_out_dir(out_dir)
    files, results = EXPERIMENTS[resolved["experiment"]].run(threads=threads, **args)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    manifest = {
        "manifest_version": 1,
        "package_version": __version__,
        "experiment": resolved["experiment"],
        "config": resolved,
        "outputs": sorted(files),
        "results": results,
    }
    written = []
    try:
        for name, (header, rows) in files.items():
            written.append(out_dir / name)
            _write_csv(written[-1], header, rows)
        written.append(manifest_path)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError:
        for path in written:  # the last may be partly written, or a directory
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    return [str(path) for path in written]


def _load_config(path):
    try:
        text = Path(path).read_text()
        data = json.loads(text)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
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
    except OSError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return 2
    except (StochVolterraError, np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
