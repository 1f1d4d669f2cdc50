#!/usr/bin/env python3
"""Runs one workload of the intrinsic-cost control-plane benchmark.

    python3 perfbench/run.py --workload pod_burst --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the
control plane from src/) into .bench_build/, runs cpbench, checks that the
metrics it printed are exactly the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and prints cpbench's
JSON result as the last line of stdout. Exits non-zero, without a result,
when the sources are missing, the build fails, or cpbench breaks; exits 1
with correct=false when a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "cpbench"
WORKLOADS = ("pod_burst", "tenant_flood", "api_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cpbench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: control-plane sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "cpbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_cpbench(argv, work_dir):
    """Runs cpbench; returns (exit code, parsed last stdout line or None)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run([str(BINARY)] + argv + ["--work-dir", str(work_dir)],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: cpbench timed out")
        return None, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build():
        log("perfbench: build failed")
        return 3
    code, result = run_cpbench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        BUILD_DIR / ("work-%d" % os.getpid()))
    if result is None or code not in (0, 1):
        log("perfbench: cpbench failed (exit %s) without a result" % code)
        return 4
    expected = declared_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
            % (missing, extra, wrong))
        return 4
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
