// History checker over drained vc::trace records (cf. pmwcas's
// LinearCheckerLogWriter: the tracer doubles as an invoke/response log, and
// this checker replays it to certify concurrency contracts that tsan cannot
// express — ordering, not just data-race freedom).
//
// Invariants validated over one drained window:
//   1. Completeness — a window with dropped records is never certified; every
//      other verdict would be vacuous over a history with holes.
//   2. Watch no-gap/no-dup — per watcher, exactly one of deliver/bookmark/skip
//      was recorded per store revision after registration, with revisions
//      contiguous and strictly increasing (the fan-out totality makes this
//      sound: kSkip records make "this revision was considered and was
//      invisible" explicit, so a missing revision is a real gap).
//   3. Read-your-write — every kCacheServe has observed revision >= target:
//      WaitFresh never served a cache state older than the write the reader
//      just made.
//   4. Dispatcher invoke/response — per trace id, kExecute precedes kAccount
//      and no slot is released twice or released without being granted. Open
//      spans (execute without account) at window end are fine.
//   5. Per-band concurrency — a timestamp sweep over kExecute/kAccount
//      (both recorded under the dispatcher lock, so the interleaving is a
//      total order) computes the max overlap per band, which tests compare
//      against the configured assured shares.
//   6. (opt-in) Commit monotonicity for kPut/kDelete — commit records are
//      stamped under the store lock, so the checker asserts the one commit
//      stream is strictly revision-increasing in drained order and dense (no
//      duplicate or skipped mint). Only valid when all records come from a
//      single store, so tests enable it explicitly via CheckOptions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace vc::trace {

struct CheckOptions {
  // Validate per-key revision monotonicity of store mutations. Off by
  // default: tenant control planes run many stores whose key paths collide.
  bool single_store = false;
  // Band count for the concurrency sweep (kExecute/kAccount arg = band).
  int num_bands = 4;
};

struct CheckReport {
  bool certified = false;          // true iff no violations AND no drops
  uint64_t dropped = 0;            // from the drained window
  std::vector<std::string> violations;

  // Coverage counters, so tests can assert the checker actually saw work
  // (an empty history certifies trivially — that must be detectable).
  size_t records = 0;
  size_t watch_deliveries = 0;     // kDeliver records checked
  size_t watchers = 0;             // distinct watcher ids seen
  size_t fresh_serves = 0;         // kCacheServe records checked
  size_t dispatch_spans = 0;       // completed execute→account pairs
  size_t commits = 0;              // kPut/kDelete commits (single_store mode)
  std::vector<int> max_concurrency;  // per band, from the sweep

  std::string Summary() const;
};

// Replays `drained` and validates the invariants above.
CheckReport CheckHistory(const DrainResult& drained,
                         const CheckOptions& opts = {});

// Convenience: Drain() + CheckHistory in one call (tests' common shape).
CheckReport DrainAndCheck(const CheckOptions& opts = {});

}  // namespace vc::trace
