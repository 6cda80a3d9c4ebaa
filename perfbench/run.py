#!/usr/bin/env python3
"""Benchmark entry point: builds the workload binary from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload waves --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --steadiness 10 [--seconds 10] [--workloads a,b]

A measuring run prints notes, provenance lines, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, measured on the named
workload in PROCESSES processes. With --trace 1 they are the per-layer
metrics: the named workload runs its traced passes for a quarter of
--seconds each, every other workload for a tenth, so one traced run prints
every per-layer metric and every workload's budget.

Processes run only the named workload, so peak_rss_mb is the workload's.
The build goes to .bench_build/perfbench (Release), journals and span dumps
to .bench_build/run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["pipeline", "waves", "churn", "mirror"]
DEFAULT_SEED = 1
# A second seed for the steadiness mode, never used while tuning the
# benchmark.
HELD_OUT_SEED = 9973
# Time a measuring run may take after its build, across all its processes.
RUN_TIMEOUT_S = 170
# An untraced run is split over this many processes of the workload, each
# with one set-up and a timed pass of --seconds / PROCESSES. On a shared VM a
# process runs in a fast or a slow mode (up to 1.6x apart, steady within the
# process, changing from process to process), so each figure of a run is the
# best of its processes; set-up time and peak RSS are their medians.
PROCESSES = 8
COMBINE = {
    "throughput_per_s": max,
    "latency_p50_us": min,
    "latency_p99_us": min,
    "setup_s": statistics.median,
    "peak_rss_mb": statistics.median,
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; quiet on success."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources under {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                if cmd[1] == "-S":  # a failed configure must not be reused
                    (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                tail = build_log.read_text(errors="replace")[-4000:]
                raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")


def source_identity():
    """git describe when the tree is a git checkout, else a content hash."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256 " + digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, tiny=False, deadline=None):
    """Runs one workload process; returns (notes, provenance, result)."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--work-dir", str(WORK_DIR)]
    if tiny:
        cmd.append("--tiny")
    timeout = RUN_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    notes, provenance, result = [], None, None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        elif line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            notes.append(line)
    if result is None or provenance is None:
        raise BenchError(f"{workload}: no result line\n{proc.stdout[-2000:]}")
    return notes, provenance, result


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload, seed, seconds, trace, deadline=None):
    """One benchmark run: returns (notes, provenance lines, result)."""
    if trace:
        jobs = [(w, seconds * (0.25 if w == workload else 0.1))
                for w in [workload] + [x for x in WORKLOADS if x != workload]]
    else:
        jobs = [(workload, seconds / PROCESSES)] * PROCESSES
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    notes, provs, results = [], [], []
    for i, (w, secs) in enumerate(jobs):
        n, prov, result = run_binary(w, seed, secs, trace, deadline=deadline)
        notes += n if trace else [f"process {i + 1}: {line}" for line in n]
        provs.append(prov)
        results.append(result)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    if trace:
        for result in results:
            merged["metrics"].update(result["metrics"])
    else:
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            merged["metrics"][name] = {"value": COMBINE[name](values),
                                       "unit": m["unit"]}
    return notes, provs, merged


def check_names(result, trace):
    """Every metric of the mode is present with its unit, and nothing else."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {k}" for k in want if k not in got]
    problems += [f"unexpected {k}" for k in got if k not in want]
    problems += [f"{k}: unit {got[k]} != {want[k]}" for k in want
                 if k in got and got[k] != want[k]]
    return problems


def measuring_run(args):
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    identity = source_identity()
    notes, provs, result = measure(args.workload, args.seed, args.seconds,
                                   args.trace == 1, deadline)
    problems = check_names(result, args.trace == 1)
    if problems:
        raise BenchError("metric set differs from BENCHMARK.json: " +
                         "; ".join(problems))
    for line in notes:
        print(line)
    for prov in provs:
        prov["source"] = identity
        prov["run_seconds"] = args.seconds
        print("provenance " + json.dumps(prov))
    print(json.dumps(result))


def self_test():
    """Tiny runs of every workload in both modes: every metric is printed
    with its unit, no op fails, and every oracle holds."""
    build()
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            if trace:
                _, _, result = run_binary(workload, DEFAULT_SEED, 0.5, True,
                                          tiny=True)
                want = {k: u for k, u in expected_metrics(True).items()
                        if k.startswith(workload + ".")}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                problems = [f"{k}: {got.get(k)} != {u}"
                            for k, u in want.items() if got.get(k) != u]
                problems += [f"unexpected {k}" for k in got if k not in want]
            else:
                _, _, result = run_binary(workload, DEFAULT_SEED, 0.5, False,
                                          tiny=True)
                problems = check_names(result, False)
            if result["failed"] != 0:
                problems.append(f"{result['failed']} failed ops")
            if not result["correct"]:
                problems.append("an oracle failed")
            mode = "traced" if trace else "untraced"
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {workload} {mode}: {status}")
            failures += bool(problems)
    print(f"self-test: {'passed' if failures == 0 else 'FAILED'}")
    return 1 if failures else 0


def steadiness(runs, seconds, workloads):
    """Runs each workload `runs` times on the default and the held-out seed;
    prints each end-to-end metric's median, quartiles and range."""
    build()
    for workload in workloads:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            values, failed = {}, 0
            for _ in range(runs):
                _, _, result = measure(workload, seed, seconds, False)
                failed += result["failed"] + (not result["correct"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {runs} runs of {seconds} s, "
                  f"{failed} failed ops or oracles")
            for name, v in values.items():
                med = statistics.median(v)
                q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                             else (med, med, med))
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {name:18s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  min {min(v):14.6g}  max {max(v):14.6g}"
                      f"  (q3-q1)/median {spread:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    start = time.monotonic()
    try:
        if args.self_test:
            return self_test()
        if args.steadiness:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            steadiness(args.steadiness, args.seconds or spec["run_seconds"],
                       args.workloads.split(","))
            return 0
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required for a measuring run")
        if not 0 < args.seconds <= 60:
            parser.error("--seconds must be in (0, 60]")
        measuring_run(args)
        return 0
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        log(f"perfbench: {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    sys.exit(main())
