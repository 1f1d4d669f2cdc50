#include "common/trace_check.h"

#include <algorithm>
#include <sstream>

namespace vc::trace {

namespace {

// Bounded violation list: a broken run can produce thousands of identical
// findings; the first few plus a count are what a test failure needs.
constexpr size_t kMaxViolations = 16;

void AddViolation(CheckReport* report, size_t* suppressed, std::string v) {
  if (report->violations.size() < kMaxViolations) {
    report->violations.push_back(std::move(v));
  } else {
    ++*suppressed;
  }
}

}  // namespace

std::string CheckReport::Summary() const {
  std::ostringstream os;
  os << (certified ? "CERTIFIED" : "NOT certified") << ": " << records
     << " records, " << dropped << " dropped, " << watchers << " watchers ("
     << watch_deliveries << " deliveries), " << fresh_serves
     << " fresh serves, " << dispatch_spans << " dispatch spans, " << commits
     << " commits";
  if (!max_concurrency.empty()) {
    os << ", band overlap [";
    for (size_t i = 0; i < max_concurrency.size(); ++i) {
      os << (i ? " " : "") << max_concurrency[i];
    }
    os << "]";
  }
  for (const std::string& v : violations) os << "\n  violation: " << v;
  return os.str();
}

CheckReport CheckHistory(const DrainResult& drained, const CheckOptions& opts) {
  CheckReport report;
  report.dropped = drained.dropped;
  report.records = drained.records.size();
  report.max_concurrency.assign(opts.num_bands > 0 ? opts.num_bands : 0, 0);
  size_t suppressed = 0;

  // 2. Watch no-gap/no-dup: per watcher, the offered revisions (deliver,
  // bookmark, or explicit skip) are contiguous from the first one seen.
  struct WatcherState {
    int64_t last = 0;
    bool started = false;
  };
  std::map<uint64_t, WatcherState> watchers;

  // 4. Dispatcher invoke/response pairing per trace id.
  std::map<uint64_t, int> open_spans;  // trace id -> open execute count

  // 5. Per-band overlap sweep input: (t, is_account, band). kExecute/kAccount
  // are recorded under the dispatcher lock, so timestamp order is the true
  // interleaving; equal timestamps break account-first (no phantom overlap).
  struct SpanEvent {
    uint64_t t;
    bool account;
    uint64_t band;
  };
  std::vector<SpanEvent> span_events;

  for (const TraceRecord& r : drained.records) {
    switch (r.verb) {
      case Verb::kDeliver:
      case Verb::kBookmark:
      case Verb::kSkip: {
        if (r.component != Component::kWatch) break;
        WatcherState& w = watchers[r.arg];
        if (!w.started) {
          w.started = true;
        } else if (r.revision <= w.last) {
          AddViolation(&report, &suppressed,
                       "watch dup: watcher " + std::to_string(r.arg) +
                           " offered rev " + std::to_string(r.revision) +
                           " after rev " + std::to_string(w.last) + " — " +
                           FormatRecord(r));
        } else if (r.revision != w.last + 1) {
          AddViolation(&report, &suppressed,
                       "watch gap: watcher " + std::to_string(r.arg) +
                           " jumped rev " + std::to_string(w.last) + " -> " +
                           std::to_string(r.revision) + " — " +
                           FormatRecord(r));
        }
        w.last = r.revision;
        if (r.verb == Verb::kDeliver) report.watch_deliveries++;
        break;
      }
      case Verb::kCacheServe: {
        report.fresh_serves++;
        if (r.revision < static_cast<int64_t>(r.arg)) {
          AddViolation(&report, &suppressed,
                       "read-your-write: served cache rev " +
                           std::to_string(r.revision) + " < target " +
                           std::to_string(r.arg) + " — " + FormatRecord(r));
        }
        break;
      }
      case Verb::kExecute: {
        if (r.trace_id != 0) open_spans[r.trace_id]++;
        span_events.push_back({r.t_mono_ns, false, r.arg});
        break;
      }
      case Verb::kAccount: {
        if (r.trace_id != 0) {
          auto it = open_spans.find(r.trace_id);
          if (it == open_spans.end() || it->second == 0) {
            AddViolation(&report, &suppressed,
                         "dispatch: slot released without a matching grant — " +
                             FormatRecord(r));
          } else {
            it->second--;
            report.dispatch_spans++;
          }
        }
        span_events.push_back({r.t_mono_ns, true, r.arg});
        break;
      }
      default:
        break;
    }
  }
  report.watchers = watchers.size();

  std::stable_sort(span_events.begin(), span_events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.account && !b.account;  // release before grant
                   });
  std::vector<int> inflight(report.max_concurrency.size(), 0);
  for (const SpanEvent& e : span_events) {
    if (e.band >= inflight.size()) continue;
    int& n = inflight[e.band];
    if (e.account) {
      if (n > 0) --n;
    } else {
      ++n;
      report.max_concurrency[e.band] = std::max(report.max_concurrency[e.band], n);
    }
  }

  // 6. (opt-in) Store commit monotonicity. Commit records (kPut/kDelete) are
  // stamped under the store lock, so drained (timestamp) order is commit
  // order and the revisions must form one stream that is
  //   (a) strictly increasing in drained order: a revision at or below its
  //       predecessor was committed out of order ("not after") or minted
  //       twice;
  //   (b) dense: no revision is skipped (a lost commit).
  if (opts.single_store) {
    std::vector<int64_t> commit_revs;
    int64_t last = 0;
    for (const TraceRecord& r : drained.records) {
      if (r.component != Component::kKv) continue;
      if (r.verb != Verb::kPut && r.verb != Verb::kDelete) continue;
      if (report.commits > 0 && r.revision == last) {
        AddViolation(&report, &suppressed,
                     "store: commit rev " + std::to_string(r.revision) +
                         " minted twice — " + FormatRecord(r));
      } else if (report.commits > 0 && r.revision < last) {
        AddViolation(&report, &suppressed,
                     "store: commit rev " + std::to_string(r.revision) +
                         " not after rev " + std::to_string(last) + " — " +
                         FormatRecord(r));
      }
      report.commits++;
      last = r.revision;
      commit_revs.push_back(r.revision);
    }
    std::sort(commit_revs.begin(), commit_revs.end());
    for (size_t i = 1; i < commit_revs.size(); ++i) {
      if (commit_revs[i] > commit_revs[i - 1] + 1) {
        AddViolation(&report, &suppressed,
                     "store: commit revs jump " + std::to_string(commit_revs[i - 1]) +
                         " -> " + std::to_string(commit_revs[i]) +
                         " (lost commit in between)");
      }
    }
  }

  if (suppressed > 0) {
    report.violations.push_back("... and " + std::to_string(suppressed) +
                                " more violations suppressed");
  }

  // 1. Completeness: drops make every other verdict vacuous.
  if (report.dropped > 0) {
    report.violations.insert(
        report.violations.begin(),
        "history incomplete: " + std::to_string(report.dropped) +
            " records overwritten before drain — refusing to certify");
  }
  report.certified = report.violations.empty();
  return report;
}

CheckReport DrainAndCheck(const CheckOptions& opts) {
  return CheckHistory(Drain(), opts);
}

}  // namespace vc::trace
