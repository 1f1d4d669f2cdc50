#!/usr/bin/env python3
"""Smoke-sized self-test of every benchmark workload.

    python3 perfbench/selftest.py

For each workload, at tiny sizes: an untraced and a traced run must pass
their correctness checks and print exactly the metrics BENCHMARK.json
declares; a run with a seeded mismatch (--fault: a tenant Pod deleted behind
the benchmark's back, or a stray write to a client-owned key) must be caught,
i.e. report correct=false and exit 1. Exits non-zero on any failure.
"""

import os
import sys

import run


def check(workload, extra, want_correct, trace, failures):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"] + extra
    work_dir = run.BUILD_DIR / ("selftest-%d" % os.getpid())
    code, result = run.run_cpbench(argv, work_dir)
    label = "%s trace=%d%s" % (workload, trace, " " + " ".join(extra) if extra else "")
    problems = []
    if result is None:
        problems.append("no result (exit %s)" % code)
    else:
        if result.get("correct") is not want_correct:
            problems.append("correct=%s, want %s" % (result.get("correct"), want_correct))
        if code != (0 if want_correct else 1):
            problems.append("exit %s" % code)
        if result.get("attempted", 0) < 1:
            problems.append("nothing attempted")
        if want_correct:
            got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
            if got != run.declared_metrics(trace):
                problems.append("metrics differ from BENCHMARK.json")
    print("%s %s%s" % ("FAIL" if problems else "ok  ", label,
                       ": " + "; ".join(problems) if problems else ""), flush=True)
    if problems:
        failures.append(label)


def main():
    if not run.build():
        print("build failed", file=sys.stderr)
        return 3
    failures = []
    for workload in run.WORKLOADS:
        check(workload, [], True, 0, failures)
        check(workload, [], True, 1, failures)
        check(workload, ["--fault"], False, 0, failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
