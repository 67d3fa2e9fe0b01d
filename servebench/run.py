#!/usr/bin/env python3
"""Serving benchmark entry point (see servebench/README.md).

    python3 servebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a FlexCore checkout.  Builds the library and the
benchmark program from source into .bench_build/ (the first run compiles,
later runs only re-check), serves the workload, validates the traced run's
Chrome trace with the repository's own `trace_dump --validate`, and prints
the result as one JSON object on the last line of standard output.  Exits
non-zero when a correctness check fails or nothing can be built.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the two targets the benchmark runs."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "serve_bench",
                    "trace_dump", "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {(m["name"], m["unit"]) for m in group}


def run_workload(name, workload, args):
    """Serves one workload; returns its result object, or None on error."""
    cmd = [str(BUILD / "serve_bench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--rate-fps", str(workload["open_loop_fps"]),
           "--ser-max", str(workload["ser_max"])]
    trace_file = BUILD / "traces" / f"{name}-seed{args.seed}.json"
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: serve_bench exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"run.py: serve_bench exited {proc.returncode} without a result")
        return None
    result = json.loads(lines[-1])

    problems = []
    if proc.returncode != 0:
        problems.append("serve_bench reported a correctness failure")
    got = {(metric, m["unit"]) for metric, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
    if args.trace:
        check = subprocess.run([str(BUILD / "flexcore" / "trace_dump"),
                                "--validate", str(trace_file)],
                               stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            problems.append("trace_dump --validate rejected the trace")
    for p in problems:
        log(f"run.py: FAILED ({name}): {p}")
    result["correct"] = result["correct"] and not problems
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run every workload "
                         "(metrics then print as <workload>.<metric>)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: {ROOT} is not a FlexCore checkout (no CMakeLists.txt/src)")
        return 2
    workloads = json.loads((HERE / "manifest.json").read_text())["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        log(f"run.py: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads)}, all")
        return 2

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 3

    results = {}
    for name in names:
        result = run_workload(name, workloads[name], args)
        if result is None:
            return 4
        results[name] = result
    if len(names) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m
                        for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
