"""Measurement of one workload: repeats, gates, metrics and the environment.

`run(name, seed, seconds, trace)` returns the result object the benchmark
prints last.  Untraced (`trace=False`) it reports the end-to-end metrics;
traced it reports the per-layer metrics, from an untraced and a traced half of
the run plus a 1- against 2-thread timing of Wiener sampling.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_REPEATS = 3
# the layer self times of a traced experiment must sum to its wall time
# within this share (plus one millisecond for the benchmark's own call)
SELF_TIME_TOLERANCE = 0.01
# seconds the calibration takes when the machine runs at reference speed;
# end-to-end times are scaled to that speed (see README.md)
CALIBRATION_REFERENCE_S = 0.16
SETUP_PER_REPEAT = 2

SETUP_CODE = """\
import json, sys, time
from stochvolterra.cli import validate_config
validate_config(json.loads(sys.argv[1]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "paths_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

SPAN_TIMES = [
    "resolvent.compute_resolvent",
    "resolvent.resolvent_residuals",
    "resolvent.exponential_bound_fit",
    "resolvent.u_lipschitz",
    "convolution.ito_identity_statistics",
    "convolution.covariance_monte_carlo",
    "convolution.covariance_quadrature",
    "convolution._convolve_paths",
    "convolution._convolve_at",
    "noise.sample_wiener_batch",
    "kernels.cell_moments",
    "kernels.check_complete_positivity",
]

SPAN_CALLS = {
    "resolvent.compute_resolvent_calls": "resolvent.compute_resolvent",
    "resolvent.operator_2norm_calls": "resolvent.operator_2norm",
    "resolvent.kernel_value_calls": "resolvent.value",
    "resolvent.kernel_derivative_calls": "resolvent.derivative",
    "convolution._convolve_paths_calls": "convolution._convolve_paths",
}


def import_cli():
    """Import `stochvolterra.cli` from this checkout's source, or exit."""
    package = SRC / "stochvolterra"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import stochvolterra.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's source")
    return cli


def measure_setup(config):
    """Seconds from spawning an interpreter to `stochvolterra.cli` imported
    and the config validated (both processes read the same monotonic clock)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(config)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout) - start


def calibration():
    """Seconds taken by fixed reference work that runs no stochvolterra code.

    It mixes the three kinds of work the experiments do: Philox normals, a
    lag-sum loop of small einsums, and an interpreter loop.  Its arrays stay
    under 1 MB so that it does not raise the peak memory of the process.
    """
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=7))
    z = np.empty((100, 128, 5))
    for _ in range(40):
        rng.standard_normal(out=z)
    S = np.linspace(-1.0, 1.0, 129 * 25).reshape(129, 5, 5)
    for n in range(1, 129):
        np.einsum("jab,pjb->pa", S[n:0:-1], z[:80, :n])
    total = 0
    for i in range(800_000):
        total += i * i % 7
    return time.perf_counter() - start


def _digest(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return h.hexdigest()


def run_repeats(cli, name, config, seconds, min_repeats, recorder=None, end_to_end=False):
    """Run the experiment back to back until `seconds` have passed.

    Only the `run_experiment` call is timed; reading and checking the outputs
    happens between calls.  Each entry holds the timings, the output digest
    and the gates missed, or the error the call raised.  With `end_to_end`,
    set-up times and then one calibration are measured after each repeat (and
    one calibration before the first).  Each entry gets `speed`, the reference
    calibration time over the mean of the two calibrations around the repeat,
    and `setup_speed`, the same over the calibration next to its set-ups.
    """
    out_dir = OUT / f"{name}-{os.getpid()}"
    threads = workloads.WORKLOADS[name]["threads"]
    runs = []
    deadline = time.perf_counter() + seconds
    last_calibration = calibration() if end_to_end else None
    while len(runs) < min_repeats or time.perf_counter() < deadline:
        shutil.rmtree(out_dir, ignore_errors=True)
        if recorder is not None:
            recorder.experiment = len(runs)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            written = cli.run_experiment(config, out_dir, threads=threads)
        except Exception:  # counted as a failed experiment, the run goes on
            runs.append({"error": traceback.format_exc()})
            print(runs[-1]["error"], file=sys.stderr)
        else:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            runs.append({
                "wall": wall,
                "cpu": cpu,
                "digest": _digest(written),
                "bytes": sum(Path(p).stat().st_size for p in written),
                "failures": workloads.check(name, out_dir),
            })
        if end_to_end:
            setups = [measure_setup(config) for _ in range(SETUP_PER_REPEAT)]
            now = calibration()
            runs[-1].update(
                speed=2.0 * CALIBRATION_REFERENCE_S / (last_calibration + now),
                setup=setups,
                setup_speed=CALIBRATION_REFERENCE_S / now,
            )
            last_calibration = now
    shutil.rmtree(out_dir, ignore_errors=True)
    return runs


def count_failures(runs, reference):
    """Mark runs that raised, missed a gate or wrote other bytes than `reference`."""
    failed = 0
    for r in runs:
        if "error" not in r and r["digest"] != reference:
            r["failures"].append("output bytes differ from the first repeat")
        if "error" in r or r["failures"]:
            failed += 1
    return failed


def thread_speedup(seed):
    """Wiener sampling on the covariance_mc inputs: time at 1 thread over time at 2."""
    from stochvolterra.grids import TimeGrid
    from stochvolterra.noise import NoiseSpec, sample_wiener_batch
    from stochvolterra.spaces import CovOperator

    config = workloads.make_config("covariance_mc", seed)
    K = config["noise"]["cylindrical"]
    spec = NoiseSpec(CovOperator.cylindrical_truncation(K), K, config["noise"]["seed"])
    grid = TimeGrid(config["grid"]["T"], config["grid"]["N"])
    times = {}
    for threads in (1, 2):
        start = time.perf_counter()
        sample_wiener_batch(spec, grid, range(config["mc"]["n_paths"]), threads=threads)
        times[threads] = time.perf_counter() - start
    return times[1] / times[2]


def layer_metrics(summary, size):
    """Per-layer metrics of one traced experiment."""
    metrics = {f"{layer}.self_s": s for layer, s in summary["layer_self"].items()}
    for span in SPAN_TIMES:
        metrics[f"{span}_s"] = summary["span_time"].get(span, 0.0)
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = summary["span_calls"].get(span, 0)
    sampled = summary["span_calls"].get("noise.sample_wiener_batch", 0)
    sample_s = metrics["noise.sample_wiener_batch_s"]
    normals = sampled * size["P"] * size["K"] * size["N"]
    metrics["noise.normals_per_s"] = normals / sample_s if sampled else 0.0
    return metrics


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "cli.bytes_written": "B",
    **{f"{span}_s": "s" for span in SPAN_TIMES},
    **{metric: "count" for metric in SPAN_CALLS},
    "noise.normals_per_s": "1/s",
    "noise.thread_speedup": "ratio",
    "trace.overhead_s": "s",
}


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or "unknown"


def environment(name, seed, config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": workloads.WORKLOADS[name]["threads"],
        "workload": name,
        "seed": seed,
        "sizes": workloads.sizes(config),
        "config": config,
        "why": workloads.WORKLOADS[name]["why"],
    }


def _with_units(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def self_times_account_for(wall, summary):
    """True when the layer self times of one traced experiment sum to its wall time."""
    self_sum = sum(summary["layer_self"].values())
    return abs(wall - self_sum) <= SELF_TIME_TOLERANCE * wall + 1e-3


def _succeeded(runs):
    ok = [r for r in runs if "error" not in r]
    if not ok:
        raise SystemExit("error: every experiment raised; see the tracebacks above")
    return ok


def _end_to_end(cli, name, config, seconds, record):
    runs = run_repeats(cli, name, config, seconds, MIN_REPEATS, end_to_end=True)
    ok = _succeeded(runs)
    # raw medians are kept in the record; the reported times are scaled to
    # reference speed repeat by repeat, then the median is taken
    record["raw_medians"] = {
        "wall": statistics.median(r["wall"] for r in ok),
        "cpu": statistics.median(r["cpu"] for r in ok),
        "setup": statistics.median(s for r in runs for s in r["setup"]),
    }
    wall = statistics.median(r["wall"] * r["speed"] for r in ok)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu"] * r["speed"] for r in ok),
        "paths_per_s": workloads.sizes(config)["P"] / wall,
        "setup_s": statistics.median(
            s * r["setup_speed"] for r in runs for s in r["setup"]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return runs, _with_units(values, END_TO_END_UNITS), True


def _per_layer(cli, name, seed, config, seconds, record):
    plain = run_repeats(cli, name, config, seconds / 2, 1)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        traced = run_repeats(cli, name, config, seconds / 2, 1, recorder)
    record["spans"] = recorder.as_records()
    accounted = True
    per_experiment = []
    for i, r in enumerate(traced):
        if "error" in r:
            continue
        summary = spans.summarize(recorder.spans, i)
        accounted &= self_times_account_for(r["wall"], summary)
        values = layer_metrics(summary, workloads.sizes(config))
        values["cli.bytes_written"] = r["bytes"]
        per_experiment.append(values)
    plain_wall = statistics.median(r["wall"] for r in _succeeded(plain))
    traced_wall = statistics.median(r["wall"] for r in _succeeded(traced))
    values = {k: statistics.median(v[k] for v in per_experiment) for k in per_experiment[0]}
    values["noise.thread_speedup"] = thread_speedup(seed)
    values["trace.overhead_s"] = traced_wall - plain_wall
    return plain + traced, _with_units(values, PER_LAYER_UNITS), accounted


def run(name, seed, seconds, trace):
    """Measure one workload; returns the printed result and the full record,
    which is also written to `.perfbench-out/`."""
    cli = import_cli()
    config = workloads.make_config(name, seed)
    record = {"environment": environment(name, seed, config), "seconds": seconds}
    if trace:
        runs, metrics, accounted = _per_layer(cli, name, seed, config, seconds, record)
    else:
        runs, metrics, accounted = _end_to_end(cli, name, config, seconds, record)
    # the first repeat's bytes are the reference; the traced run's first is untraced
    failed = count_failures(runs, next(r["digest"] for r in runs if "error" not in r))
    result = {
        "correct": failed == 0 and accounted,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    record.update(runs=runs, self_times_account_for_wall=accounted, result=result)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record
