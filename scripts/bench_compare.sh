#!/usr/bin/env bash
# Hot-path benchmark comparison: builds the current checkout (head) and, when
# possible, its parent commit (baseline) in a temporary copy, runs the storage +
# queue microbenches (3 repetitions; each axis records its median and cv) plus
# the quick fig9/fig11/scale_tenants harnesses on both, and writes
# BENCH_storage.json with both sets of numbers side by side. Every axis whose
# head median is slower than the baseline's by more than max(10%, 2·cv) is
# listed under "regressions".
#
#   scripts/bench_compare.sh                 # baseline = HEAD~1
#   BASELINE_REF=main~2 scripts/bench_compare.sh
#
# The head's bench/ sources are copied into the baseline copy so both
# builds run the *same* benchmark binary names and arguments
# (micro_substrate.cpp carries a detection shim for pre-refactor KvStore
# APIs). If the baseline cannot be built (shallow clone, source
# incompatibility), the script degrades to head-only output rather than fail.
set -uo pipefail
cd "$(dirname "$0")/.."

BASELINE_REF="${BASELINE_REF:-HEAD~1}"
OUT="${OUT:-BENCH_storage.json}"
# BM_DispatchAdmit runs as a /0 (untraced) vs /1 (traced) axis on checkouts
# that have vc::trace; BM_TraceRecord is the raw per-event Emit cost.
# BM_TimerArmCancel/N arms and cancels one executor timer among N armed ones.
# The Pod-path layers: codec (BM_PodEncode, BM_PodDecode), the apiserver
# Create verb (BM_ApiServerCreate) and the scheduler's filter pass over N
# nodes (BM_SchedulerFilter/N). BM_InformerDelivery/N times N Pod Creates
# until each reached a SharedInformer handler.
FILTER='BM_WatchFanout|BM_ListZeroCopy|BM_ApiServerListSelective|BM_KvPut|BM_KvGet|BM_KvList|BM_FairQueueDequeue|BM_DispatchAdmit|BM_TraceRecord|BM_TimerArmCancel|BM_PodEncode|BM_PodDecode|BM_ApiServerCreate|BM_SchedulerFilter|BM_InformerDelivery'
NPROC="$(nproc)"
REPS=3

build_and_run() {  # $1 = source dir, $2 = result json, $3 = text-output dir
  local src="$1" out="$2" txt="$3"
  mkdir -p "$src/build-bench" "$txt"
  cmake -S "$src" -B "$src/build-bench" -DCMAKE_BUILD_TYPE=Release \
        > "$src/build-bench/configure.log" 2>&1 || return 1
  cmake --build "$src/build-bench" -j "$NPROC" \
        --target micro_substrate fig9_throughput fig11_fairness scale_tenants \
                 frontend_scaleout \
        > "$src/build-bench/build.log" 2>&1 || return 1
  "$src/build-bench/bench/micro_substrate" \
      --benchmark_filter="$FILTER" \
      --benchmark_out="$out" --benchmark_out_format=json \
      --benchmark_repetitions="$REPS" || return 1
  "$src/build-bench/bench/fig9_throughput" --quick > "$txt/fig9" 2>&1 || return 1
  # Fairness ablation and tenant-scale sweep guard the reconciler runtime:
  # fig11 exercises the WRR/FIFO split end to end, scale_tenants the
  # many-registered-tenants dequeue path.
  "$src/build-bench/bench/fig11_fairness" --quick > "$txt/fig11" 2>&1 || return 1
  "$src/build-bench/bench/scale_tenants" --quick > "$txt/scale_tenants" 2>&1 || return 1
  # Serving-tier macro bench: frontends={1,2,4} read-throughput axis + the APF
  # flood p99 bars (compiles to a stub on pre-serving-tier baselines).
  "$src/build-bench/bench/frontend_scaleout" --quick > "$txt/frontend_scaleout" 2>&1 || return 1
}

echo "==> head: building + running storage benches"
HEAD_JSON="$(mktemp)"
HEAD_TXT="$(mktemp -d)"
if ! build_and_run "$PWD" "$HEAD_JSON" "$HEAD_TXT"; then
  echo "error: head benchmark run failed" >&2
  exit 1
fi

BASE_JSON=""
BASE_TXT=""
BASE_DIR=""
if git rev-parse --verify -q "$BASELINE_REF" > /dev/null; then
  BASE_DIR="$(mktemp -d)"
  echo "==> baseline ($BASELINE_REF): building in $BASE_DIR"
  if git archive "$BASELINE_REF" | tar -x -C "$BASE_DIR"; then
    # Same bench sources on both sides so names/args line up.
    rm -rf "$BASE_DIR/bench"
    cp -r bench "$BASE_DIR/bench"
    BASE_JSON="$(mktemp)"
    BASE_TXT="$(mktemp -d)"
    if ! build_and_run "$BASE_DIR" "$BASE_JSON" "$BASE_TXT"; then
      echo "warning: baseline build/run failed; emitting head-only results" >&2
      BASE_JSON=""
      BASE_TXT=""
    fi
  else
    echo "warning: could not export $BASELINE_REF; head-only results" >&2
  fi
else
  echo "warning: baseline ref $BASELINE_REF not found; head-only results" >&2
fi

python3 - "$HEAD_JSON" "$BASE_JSON" "$OUT" "$BASELINE_REF" "$HEAD_TXT" "$BASE_TXT" "$REPS" <<'EOF'
import json, os, subprocess, sys

head_path, base_path, out_path, base_ref, head_txt, base_txt, reps = sys.argv[1:8]

def load(path):
    """Per axis: the median over the repetitions (times and counters) plus the
    coefficient of variation of both times. Axis names drop the "/real_time"
    tag google-benchmark inserts, e.g. "BM_KvPut/threads:4"."""
    if not path:
        return {}
    with open(path) as f:
        raw = json.load(f)
    out = {}
    for b in raw.get("benchmarks", []):
        agg = b.get("aggregate_name")
        if b.get("run_type") != "aggregate" or agg not in ("median", "cv"):
            continue
        e = out.setdefault(b["run_name"].replace("/real_time", ""), {})
        if agg == "median":
            e.update({
                "real_time": b["real_time"],
                "cpu_time": b["cpu_time"],
                "time_unit": b["time_unit"],
                **{k: b[k] for k in ("items_per_second", "bytes_per_second",
                                     "decode_reduction", "decoded_bytes") if k in b},
            })
        else:
            e["real_time_cv"] = round(b["real_time"], 4)
            e["cpu_time_cv"] = round(b["cpu_time"], 4)
    return out

head, base = load(head_path), load(base_path)
rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                     text=True).stdout.strip()
if subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                  capture_output=True, text=True).stdout.strip():
    rev += "+uncommitted"  # head = the working tree, not HEAD itself
def read_text(dirname, name):
    if not dirname:
        return None
    try:
        with open(os.path.join(dirname, name)) as f:
            return f.read().splitlines()
    except OSError:
        return None

base_commit = subprocess.run(["git", "rev-parse", base_ref], capture_output=True,
                             text=True).stdout.strip()
report = {
    "head_commit": rev,
    "baseline_ref": base_ref if base else None,
    "baseline_commit": base_commit if base else None,
    "repetitions": int(reps),
    "statistic": "median of the repetitions; *_cv = stddev / mean",
    "regression_rule": "head real_time slower than baseline by more than "
                       "max(10%, 2 x the larger real_time_cv of the two sides)",
    "regressions": [],
    "benchmarks": {},
}
for fig in ("fig9", "fig11", "scale_tenants", "frontend_scaleout"):
    report[f"{fig}_quick"] = {"head": read_text(head_txt, fig),
                              "baseline": read_text(base_txt, fig)}
for name in sorted(set(head) | set(base)):
    entry = {"head": head.get(name), "baseline": base.get(name)}
    h, b = head.get(name), base.get(name)
    if h and b and b["real_time"] > 0:
        entry["speedup"] = round(b["real_time"] / h["real_time"], 3)
        slowdown = h["real_time"] / b["real_time"] - 1
        bound = max(0.10, 2 * max(h.get("real_time_cv", 0), b.get("real_time_cv", 0)))
        if slowdown > bound:
            report["regressions"].append(
                {"axis": name, "slowdown": round(slowdown, 3), "bound": round(bound, 3)})
    report["benchmarks"][name] = entry
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"==> wrote {out_path}")
for name, e in report["benchmarks"].items():
    s = e.get("speedup")
    print(f"    {name}: " + (f"{s}x vs baseline" if s else "head-only"))
print(f"==> regressions: {len(report['regressions'])}")
for r in report["regressions"]:
    print(f"    {r['axis']}: {r['slowdown']:+.1%} slower (bound {r['bound']:.1%})")
EOF
STATUS=$?

if [ -n "$BASE_DIR" ] && [ -d "$BASE_DIR" ]; then
  rm -rf "$BASE_DIR"
fi
exit $STATUS
