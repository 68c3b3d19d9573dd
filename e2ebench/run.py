#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one measurement.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds a Release tree under .bench_build/
(the repository's src/ libraries plus bench_e2e); later calls only rebuild
what changed. bench_e2e's stdout is passed through, so the last line is the
result object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
the Chrome-trace span file lands in .bench_build/e2ebench/traces/.

    python3 e2ebench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
                            [--record FILE]

runs every workload in BENCHMARK.json once and prints only the
"workload metric value unit" lines; it exits non-zero if any correctness
check fails or any request fails. --record appends each metric's value to
FILE ({"workload": {"metric": [values]}}), the input of compare.py.

    python3 e2ebench/run.py --smoke [--binary PATH]

runs every workload in BENCHMARK.json at 1% of its work, traced and not,
and fails unless every correctness check passes and the printed metric names
are exactly the ones BENCHMARK.json declares (the bench_e2e_smoke test).
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """The environment for child processes, with temporary files (the
    compiler's included) kept inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds bench_e2e; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/CMakeLists.txt under {ROOT}: not a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=child_env())
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j4", "--target", "bench_e2e"],
            check=True, stdout=sys.stderr, env=child_env())
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    return BUILD / "bench_e2e"


def run_once(binary, workload, seed, seconds, trace, scale=None):
    """Runs bench_e2e; returns (stdout lines, parsed result or None)."""
    tmp = BUILD / "tmp" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", str(tmp)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{workload}.json")]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    logs = BUILD / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    log_path = logs / f"{workload}-trace{trace}.stderr"
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  timeout=RUN_TIMEOUT_S, check=False,
                                  env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        return lines, None
    try:
        return lines, json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_all(binary, args):
    record = {}
    if args.record and pathlib.Path(args.record).is_file():
        record = json.loads(pathlib.Path(args.record).read_text())
    ok = True
    for workload in workloads():
        lines, result = run_once(binary, workload, args.seed, args.seconds,
                                 args.trace)
        for line in lines:
            if line.startswith(workload + " ") or line.startswith("# problem"):
                print(line, flush=True)
        if result is None or not result["correct"] or result["failed"]:
            print(f"{workload}: FAILED correctness or requests", flush=True)
            ok = False
            continue
        for name, metric in result["metrics"].items():
            record.setdefault(workload, {}).setdefault(name, []).append(
                metric["value"])
    if args.record:
        pathlib.Path(args.record).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: sorted(m["name"] for m in spec["end_to_end"]),
                1: sorted(m["name"] for m in spec["per_layer"])}
    jobs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    # Two runs at a time keep the test under 10 s on 4 cores; each run's
    # checks are deterministic, so sharing the cores cannot fail them.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(
            lambda job: run_once(binary, job[0], 1, 0.2, job[1], scale=0.01),
            jobs))
    ok = True
    for (workload, trace), (lines, result) in zip(jobs, outcomes):
        problems = []
        if result is None:
            problems.append("no result line")
        else:
            if not result["correct"]:
                problems.append("correctness check failed")
            if result["failed"] != 0:
                problems.append(f"{result['failed']} requests failed")
            names = sorted(result["metrics"])
            if names != expected[trace]:
                missing = set(expected[trace]) - set(names)
                extra = set(names) - set(expected[trace])
                problems.append(f"metric names differ: missing "
                                f"{sorted(missing)}, extra {sorted(extra)}")
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        print(f"smoke {workload} trace={trace}: {status}")
        if problems:
            ok = False
            print("\n".join(l for l in lines if l.startswith("# ")))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_e2e, do not build")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    if args.all:
        return run_all(binary, args)
    if not args.workload:
        fail("--workload is required")
    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    if result is None:
        fail("bench_e2e produced no result")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
