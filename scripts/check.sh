#!/usr/bin/env bash
# Local CI: configure + build + run the full test suite.
#
#   scripts/check.sh          # RelWithDebInfo build + full suite, then the
#                             # concurrency-labelled suites under tsan + asan
#   scripts/check.sh tsan     # ThreadSanitizer build, full suite (slow)
#   scripts/check.sh asan     # Address+UBSan build, full suite
#   scripts/check.sh all      # all three full suites
set -euo pipefail
cd "$(dirname "$0")/.."

# A failing test prints its per-thread vc::trace rings (tests/test_main.cpp),
# so a flaky concurrency failure in CI ships its own interleaving.
export VC_TRACE_DUMP_ON_FAILURE=1

run_preset() {
  local preset="$1"; shift
  echo "==> configure [$preset]"
  cmake --preset "$preset"
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> test [$preset] $*"
  ctest --preset "$preset" -j "$(nproc)" "$@"
}

case "${1:-default}" in
  default)
    run_preset default
    # The common/executor/kv/kv_durability/fairqueue/dispatch/informer/
    # read_path/storage/trace/runtime/syncer/futurework/scheduler/kubelet
    # suites carry the `concurrency` label; any data race in the shared
    # executor stack, the kv store (commit, Get, List and paging under its one
    # store lock), the storage fan-out, the informer's watch delivery, or the
    # reconciler runtime (which every control loop runs on: the scheduler,
    # the kubelets, and the syncer for every kind, custom resources included)
    # is a hard failure. The storage/dispatch suites also drain the vc::trace
    # history and have the checker certify ordering (no-gap/no-dup,
    # read-your-write, span pairing, commit monotonicity) on the
    # tsan-interleaved runs.
    run_preset tsan -L concurrency
    # Same suites under ASan+UBSan: tsan proves ordering, asan proves watch
    # events, list snapshots and WAL batches that alias the store's value
    # blobs never outlive them, and the WAL codecs stay in bounds.
    run_preset asan -L concurrency
    ;;
  tsan)    run_preset tsan ;;
  asan)    run_preset asan ;;
  all)     run_preset default; run_preset tsan; run_preset asan ;;
  *) echo "usage: $0 [default|tsan|asan|all]" >&2; exit 2 ;;
esac
