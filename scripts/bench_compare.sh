#!/usr/bin/env bash
# Hot-path benchmark comparison: builds the current checkout (head) and, when
# possible, its parent commit (baseline) in a temporary copy, runs the storage +
# queue microbenches 5 times per side, alternating head and
# baseline runs and which of the two goes first, plus the quick
# fig9/fig11/scale_tenants harnesses once per side, and writes
# BENCH_storage.json with both sets of numbers side by side. Each axis reports
# its median and cv per side and, from the runs paired by repetition, the
# median of the paired baseline/head time ratios ("speedup") with their
# interquartile range. Every axis whose median paired slowdown exceeds
# max(10%, the slowdowns' interquartile range) is listed under "regressions".
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
# until each reached a SharedInformer handler. BM_ReconcilerThroughput/W runs
# 1024 keys through a Reconciler with W workers and a no-op reconcile.
FILTER='BM_WatchFanout|BM_ListZeroCopy|BM_ApiServerListSelective|BM_KvPut|BM_KvGet|BM_KvList|BM_FairQueueDequeue|BM_DispatchAdmit|BM_TraceRecord|BM_TimerArmCancel|BM_PodEncode|BM_PodDecode|BM_ApiServerCreate|BM_SchedulerFilter|BM_InformerDelivery|BM_ReconcilerThroughput'
NPROC="$(nproc)"
REPS=5

build() {  # $1 = source dir
  local src="$1"
  mkdir -p "$src/build-bench"
  cmake -S "$src" -B "$src/build-bench" -DCMAKE_BUILD_TYPE=Release \
        > "$src/build-bench/configure.log" 2>&1 || return 1
  cmake --build "$src/build-bench" -j "$NPROC" \
        --target micro_substrate fig9_throughput fig11_fairness scale_tenants \
                 frontend_scaleout \
        > "$src/build-bench/build.log" 2>&1 || return 1
}

micro() {  # $1 = source dir, $2 = result json (one repetition)
  "$1/build-bench/bench/micro_substrate" \
      --benchmark_filter="$FILTER" \
      --benchmark_out="$2" --benchmark_out_format=json > /dev/null
}

figs() {  # $1 = source dir, $2 = text-output dir
  local src="$1" txt="$2"
  mkdir -p "$txt"
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

echo "==> head: building"
if ! build "$PWD"; then
  echo "error: head build failed" >&2
  exit 1
fi
RUNS="$(mktemp -d)"
HEAD_TXT="$RUNS/head-figs"
BASE_TXT=""
BASE_DIR=""
if git rev-parse --verify -q "$BASELINE_REF" > /dev/null; then
  BASE_DIR="$(mktemp -d)"
  echo "==> baseline ($BASELINE_REF): building in $BASE_DIR"
  if git archive "$BASELINE_REF" | tar -x -C "$BASE_DIR"; then
    # Same bench sources on both sides so names/args line up.
    rm -rf "$BASE_DIR/bench"
    cp -r bench "$BASE_DIR/bench"
    if build "$BASE_DIR"; then
      BASE_TXT="$RUNS/base-figs"
    else
      echo "warning: baseline build failed; emitting head-only results" >&2
    fi
  else
    echo "warning: could not export $BASELINE_REF; head-only results" >&2
  fi
else
  echo "warning: baseline ref $BASELINE_REF not found; head-only results" >&2
fi

# Paired repetitions: head and baseline alternate, and so does which of the
# two runs first, so a drift of the machine over the run hits both sides.
for ((rep = 1; rep <= REPS; rep++)); do
  order="head base"
  if ((rep % 2 == 0)); then order="base head"; fi
  for side in $order; do
    if [ "$side" = head ]; then
      echo "==> repetition $rep/$REPS: head"
      micro "$PWD" "$RUNS/head-$rep.json" || { echo "error: head run failed" >&2; exit 1; }
    elif [ -n "$BASE_TXT" ]; then
      echo "==> repetition $rep/$REPS: baseline"
      if ! micro "$BASE_DIR" "$RUNS/base-$rep.json"; then
        echo "warning: baseline run failed; emitting head-only results" >&2
        BASE_TXT=""
      fi
    fi
  done
done
echo "==> figure harnesses"
figs "$PWD" "$HEAD_TXT" || { echo "error: head figure run failed" >&2; exit 1; }
if [ -n "$BASE_TXT" ] && ! figs "$BASE_DIR" "$BASE_TXT"; then
  echo "warning: baseline figure run failed" >&2
  BASE_TXT=""
fi
if [ -z "$BASE_TXT" ]; then rm -f "$RUNS"/base-*.json; fi

python3 - "$RUNS" "$OUT" "$BASELINE_REF" "$HEAD_TXT" "$BASE_TXT" "$REPS" <<'EOF'
import glob, json, os, statistics, subprocess, sys

runs, out_path, base_ref, head_txt, base_txt, reps = sys.argv[1:7]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def load(side):
    """Per axis: the real/cpu time of every repetition, by repetition number.
    Axis names drop the "/real_time" tag google-benchmark inserts, e.g.
    "BM_KvPut/threads:4"."""
    out = {}
    for path in glob.glob(os.path.join(runs, f"{side}-*.json")):
        rep = int(os.path.basename(path)[len(side) + 1:-len(".json")])
        with open(path) as f:
            raw = json.load(f)
        for b in raw.get("benchmarks", []):
            if b.get("run_type") != "iteration":
                continue
            e = out.setdefault(b["run_name"].replace("/real_time", ""), {})
            e[rep] = b
    return out

def summary(by_rep):
    """Median over the repetitions (times and counters) and the coefficient
    of variation of both times."""
    bs = list(by_rep.values())
    med = lambda k: statistics.median(b[k] for b in bs)
    cv = lambda k: (statistics.stdev(b[k] for b in bs) / statistics.mean(b[k] for b in bs)
                    if len(bs) > 1 else 0.0)
    e = {"real_time": med("real_time"), "cpu_time": med("cpu_time"),
         "time_unit": bs[0]["time_unit"], "real_time_cv": round(cv("real_time"), 4),
         "cpu_time_cv": round(cv("cpu_time"), 4), "repetitions": len(bs)}
    for k in ("items_per_second", "bytes_per_second", "decode_reduction", "decoded_bytes"):
        if k in bs[0]:
            e[k] = med(k)
    return e

head_runs, base_runs = load("head"), load("base")
head = {name: summary(r) for name, r in head_runs.items()}
base = {name: summary(r) for name, r in base_runs.items()}
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
    "pairing": "repetition i of head and of baseline run back to back; the "
               "side that runs first alternates",
    "statistic": "median of the repetitions; *_cv = stddev / mean; speedup = "
                 "median over paired repetitions of baseline/head real_time, "
                 "speedup_iqr = its interquartile range",
    "regression_rule": "median paired slowdown (head/baseline real_time - 1) "
                       "above max(10%, the interquartile range of the paired "
                       "slowdowns)",
    "regressions": [],
    "benchmarks": {},
}
for fig in ("fig9", "fig11", "scale_tenants", "frontend_scaleout"):
    report[f"{fig}_quick"] = {"head": read_text(head_txt, fig),
                              "baseline": read_text(base_txt, fig)}
for name in sorted(set(head) | set(base)):
    entry = {"head": head.get(name), "baseline": base.get(name)}
    pairs = sorted(set(head_runs.get(name, {})) & set(base_runs.get(name, {})))
    if pairs:
        hr, br = head_runs[name], base_runs[name]
        speedups = [br[i]["real_time"] / hr[i]["real_time"] for i in pairs]
        slowdowns = [hr[i]["real_time"] / br[i]["real_time"] - 1 for i in pairs]
        q1, q3 = quartiles(speedups)
        entry["speedup"] = round(statistics.median(speedups), 3)
        entry["speedup_iqr"] = [round(q1, 3), round(q3, 3)]
        entry["pairs"] = len(pairs)
        s1, s3 = quartiles(slowdowns)
        slowdown = statistics.median(slowdowns)
        bound = max(0.10, s3 - s1)
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
    print(f"    {name}: " + (f"{s}x vs baseline (IQR {e['speedup_iqr'][0]}-{e['speedup_iqr'][1]})"
                             if s else "head-only"))
print(f"==> regressions: {len(report['regressions'])}")
for r in report["regressions"]:
    print(f"    {r['axis']}: {r['slowdown']:+.1%} slower (bound {r['bound']:.1%})")
EOF
STATUS=$?

if [ -n "$BASE_DIR" ] && [ -d "$BASE_DIR" ]; then
  rm -rf "$BASE_DIR"
fi
rm -rf "$RUNS"
exit $STATUS
