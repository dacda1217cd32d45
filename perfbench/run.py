"""Benchmark of the stochvolterra CLI experiments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ito_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs its experiment back to back for `--seconds` seconds and
prints its metrics, one per line with units, then as the last line one JSON
object with the keys correct, attempted, failed and metrics.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones.  `all` runs
every workload in its own process and prints one combined JSON object.  The
full record (environment, sizes, config, every repeat, spans) is written to
`.perfbench-out/`.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads


def _print_result(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name:22s} {metric:40s} {m['value']:>16.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name:22s} {'failed_share':40s} {share:>16.6g} ({result['failed']} of {result['attempted']})")


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        _print_result(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # pin BLAS to one thread before numpy is first imported (by bench)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import bench

    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(f"# {args.workload}: {env['why']}")
    print(f"# sizes {json.dumps(env['sizes'])}, threads {env['threads']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']['name']} "
          f"{env['blas']['version']}, nproc {env['nproc']}, git {env['git_revision']}")
    walls = [r["wall"] for r in record["runs"] if "wall" in r]
    print(f"# {len(walls)} timed repeats, wall s min {min(walls):.4g} max {max(walls):.4g}")
    for r in record["runs"]:
        for problem in r.get("failures", []):
            print(f"# gate missed: {problem}")
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
