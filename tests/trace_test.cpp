// vc::trace + history checker: hot-path recording, ring overflow accounting,
// drain/reset protocol, metrics export, and the checker's verdicts over both
// clean and seeded-fault histories.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/trace_check.h"
#include "kv/kvstore.h"

namespace vc::trace {
namespace {

constexpr size_t kRing = internal::kRingSize;

TEST(TraceTest, RecordRoundTripsThroughDrain) {
  Reset();
  const uint64_t id = NewTraceId();
  ASSERT_NE(id, 0u);
  Emit(Component::kKv, Verb::kPut, id, 42, "/registry/pods/default/nginx", 7);
  DrainResult d = Drain();
  EXPECT_EQ(d.dropped, 0u);
  ASSERT_FALSE(d.records.empty());
  const TraceRecord* r = nullptr;
  for (const TraceRecord& rec : d.records) {
    if (rec.trace_id == id) r = &rec;
  }
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->component, Component::kKv);
  EXPECT_EQ(r->verb, Verb::kPut);
  EXPECT_EQ(r->revision, 42);
  EXPECT_EQ(r->arg, 7u);
  // Keys longer than kKeyBytes keep their tail (the discriminating part).
  EXPECT_EQ(r->key_len, std::string("/registry/pods/default/nginx").size());
  EXPECT_EQ(r->key, std::string("/registry/pods/default/nginx")
                        .substr(std::string("/registry/pods/default/nginx").size() -
                                kKeyBytes));
  EXPECT_GT(r->t_mono_ns, 0u);
  // A second drain sees nothing new.
  EXPECT_EQ(Drain().records.size(), 0u);
}

TEST(TraceTest, TraceIdsAreUniqueAcrossThreadsAndBelow2To53) {
  constexpr int kThreads = 8;
  constexpr int kIds = 2000;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  ParallelFor(kThreads, [&](int t) {
    ids[t].reserve(kIds);
    for (int i = 0; i < kIds; ++i) ids[t].push_back(NewTraceId());
  });
  std::set<uint64_t> all;
  for (const auto& v : ids) {
    for (uint64_t id : v) {
      EXPECT_NE(id, 0u);
      EXPECT_LT(id, 1ull << 53);  // survives a double-valued metric exactly
      EXPECT_TRUE(all.insert(id).second) << "duplicate id " << id;
    }
  }
}

// Ring overflow: writing more than kRingSize records without draining
// overwrites the oldest, Drain() reports exactly how many, and the dropped
// count shows up in the "trace" MetricsRegistry block.
TEST(TraceTest, RingOverflowIsDetectedAndExported) {
  Reset();
  const size_t kTotal = kRing + 1000;
  for (size_t i = 0; i < kTotal; ++i) {
    Emit(Component::kTest, Verb::kPut, 1, static_cast<int64_t>(i), "k");
  }
  // The live gauge sees the overflow before any drain.
  EXPECT_GE(DroppedTotal(), 1000u);
  std::map<std::string, double> m = MetricsRegistry::Global().Collect();
  auto it = m.find("trace.dropped_total");
  ASSERT_NE(it, m.end());
  EXPECT_GE(it->second, 1000.0);
  bool have_per_thread = false;
  for (const auto& [name, value] : m) {
    if (name.rfind("trace.t", 0) == 0 &&
        name.find(".dropped") != std::string::npos && value >= 1000.0) {
      have_per_thread = true;
    }
  }
  EXPECT_TRUE(have_per_thread) << "no per-thread dropped counter exported";

  DrainResult d = Drain();
  EXPECT_EQ(d.dropped, 1000u);
  EXPECT_EQ(d.records.size(), kRing);
  // The survivors are the NEWEST records (oldest-overwrite), in order.
  int64_t expect = 1000;
  for (const TraceRecord& r : d.records) {
    if (r.thread != d.records.front().thread) continue;
    EXPECT_EQ(r.revision, expect++);
  }

  // The checker refuses to certify a window with drops, no matter how clean
  // the surviving records look.
  CheckReport report = CheckHistory(d);
  EXPECT_FALSE(report.certified);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("incomplete"), std::string::npos);
}

TEST(TraceTest, DisabledEmitRecordsNothing) {
  Reset();
  SetEnabled(false);
  Emit(Component::kTest, Verb::kPut, 99, 1, "k");
  SetEnabled(true);
  for (const TraceRecord& r : Drain().records) EXPECT_NE(r.trace_id, 99u);
}

TEST(TraceTest, TraceScopeNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  const uint64_t outer = NewTraceId();
  const uint64_t inner = NewTraceId();
  {
    TraceScope a(outer);
    EXPECT_EQ(CurrentTraceId(), outer);
    {
      TraceScope b(inner);
      EXPECT_EQ(CurrentTraceId(), inner);
      TraceScope moved = std::move(b);  // move keeps the scope active once
      EXPECT_EQ(CurrentTraceId(), inner);
    }
    EXPECT_EQ(CurrentTraceId(), outer);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceTest, DumpTextRendersRecentRecordsPerThread) {
  Reset();
  TraceScope scope(NewTraceId());
  Emit(Component::kDispatch, Verb::kExecute, CurrentTraceId(), 0, "flow-a", 2);
  std::ostringstream os;
  DumpText(os, /*max_per_thread=*/8);
  const std::string text = os.str();
  EXPECT_NE(text.find("dispatch/execute"), std::string::npos);
  EXPECT_NE(text.find("flow-a"), std::string::npos);
  EXPECT_NE(text.find("--- thread t"), std::string::npos);
  // Non-consuming: the record is still drainable afterwards.
  bool found = false;
  for (const TraceRecord& r : Drain().records) {
    if (r.verb == Verb::kExecute && r.key == "flow-a") found = true;
  }
  EXPECT_TRUE(found);
}

// End-to-end over the real store: concurrent writers + watchers, then the
// checker certifies no-gap/no-dup per watcher and store commit monotonicity.
TEST(TraceTest, CheckerCertifiesCleanConcurrentHistory) {
  Reset();
  kv::KvStore store;
  auto ch = *store.Watch("/t/", 0, /*buffer_capacity=*/1 << 12);
  ParallelFor(4, [&](int t) {
    TraceScope scope(NewTraceId());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(store.Put("/t/k" + std::to_string(t), "v").ok());
    }
  });
  store.FlushWatchDispatch();
  CheckOptions opts;
  opts.single_store = true;
  CheckReport report = DrainAndCheck(opts);
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_EQ(report.watchers, 1u);
  EXPECT_EQ(report.watch_deliveries, 400u);
}

// The acceptance gate for the checker itself: a silently dropped delivery
// (TestDropNextDeliveries — no offer, no trace record) must be flagged as a
// per-watcher gap. If this test fails, the checker is vacuous.
TEST(TraceTest, CheckerFlagsSeededDeliveryGap) {
  Reset();
  kv::KvStore store;
  auto ch = *store.Watch("/g/", 0, /*buffer_capacity=*/1 << 12);
  ASSERT_TRUE(store.Put("/g/a", "1").ok());
  store.FlushWatchDispatch();
  store.TestDropNextDeliveries(1);
  ASSERT_TRUE(store.Put("/g/b", "2").ok());  // this delivery is lost
  ASSERT_TRUE(store.Put("/g/c", "3").ok());
  store.FlushWatchDispatch();
  CheckReport report = DrainAndCheck();
  EXPECT_FALSE(report.certified) << report.Summary();
  bool gap = false;
  for (const std::string& v : report.violations) {
    if (v.find("watch gap") != std::string::npos) gap = true;
  }
  EXPECT_TRUE(gap) << report.Summary();
}

// Synthetic histories drive the invariants the store should never produce.
TraceRecord WatchRec(Verb v, uint64_t watcher, int64_t rev, uint64_t t) {
  TraceRecord r;
  r.component = Component::kWatch;
  r.verb = v;
  r.arg = watcher;
  r.revision = rev;
  r.t_mono_ns = t;
  return r;
}

TEST(TraceTest, CheckerFlagsSyntheticDupAndReadYourWriteViolation) {
  DrainResult h;
  h.records.push_back(WatchRec(Verb::kDeliver, 1, 1, 10));
  h.records.push_back(WatchRec(Verb::kDeliver, 1, 1, 20));  // duplicate
  TraceRecord serve;
  serve.component = Component::kWatchCache;
  serve.verb = Verb::kCacheServe;
  serve.revision = 5;   // observed
  serve.arg = 9;        // target: served stale!
  serve.t_mono_ns = 30;
  h.records.push_back(serve);
  CheckReport report = CheckHistory(h);
  EXPECT_FALSE(report.certified);
  bool dup = false, ryw = false;
  for (const std::string& v : report.violations) {
    if (v.find("watch dup") != std::string::npos) dup = true;
    if (v.find("read-your-write") != std::string::npos) ryw = true;
  }
  EXPECT_TRUE(dup) << report.Summary();
  EXPECT_TRUE(ryw) << report.Summary();
}

// The seeded-fault gate for the commit-monotonicity pass: a kv commit stream
// drained as revisions 1, 3, 2, 4, 4, 6 holds one of each fault the pass
// exists to catch — an out-of-order commit, a double mint and a lost commit.
TEST(TraceTest, CheckerFlagsSyntheticCommitInversionDupAndGap) {
  DrainResult h;
  uint64_t t = 0;
  for (int64_t rev : {1, 3, 2, 4, 4, 6}) {
    TraceRecord r;
    r.component = Component::kKv;
    r.verb = rev == 2 ? Verb::kDelete : Verb::kPut;
    r.revision = rev;
    r.t_mono_ns = t += 10;
    h.records.push_back(r);
  }
  CheckOptions opts;
  opts.single_store = true;
  CheckReport report = CheckHistory(h, opts);
  EXPECT_FALSE(report.certified);
  EXPECT_EQ(report.commits, 6u);
  ASSERT_EQ(report.violations.size(), 3u) << report.Summary();
  bool inversion = false, dup = false, gap = false;
  for (const std::string& v : report.violations) {
    if (v.find("not after") != std::string::npos) inversion = true;
    if (v.find("minted twice") != std::string::npos) dup = true;
    if (v.find("lost commit") != std::string::npos) gap = true;
  }
  EXPECT_TRUE(inversion) << report.Summary();
  EXPECT_TRUE(dup) << report.Summary();
  EXPECT_TRUE(gap) << report.Summary();
  // The same stream in order is clean.
  h.records.erase(h.records.begin() + 1, h.records.end());
  for (int64_t rev = 2; rev <= 6; ++rev) {
    TraceRecord r = h.records.front();
    r.revision = rev;
    r.t_mono_ns = t += 10;
    h.records.push_back(r);
  }
  EXPECT_TRUE(CheckHistory(h, opts).certified);
}

TEST(TraceTest, CheckerPairsDispatchSpansAndMeasuresOverlap) {
  DrainResult h;
  auto span = [](Verb v, uint64_t trace, uint64_t band, uint64_t t) {
    TraceRecord r;
    r.component = Component::kDispatch;
    r.verb = v;
    r.trace_id = trace;
    r.arg = band;
    r.t_mono_ns = t;
    return r;
  };
  // Two overlapping executes in band 0, one after; an account with no grant.
  h.records.push_back(span(Verb::kExecute, 11, 0, 10));
  h.records.push_back(span(Verb::kExecute, 12, 0, 20));
  h.records.push_back(span(Verb::kAccount, 11, 0, 30));
  h.records.push_back(span(Verb::kAccount, 12, 0, 40));
  h.records.push_back(span(Verb::kExecute, 13, 0, 50));
  h.records.push_back(span(Verb::kAccount, 13, 0, 60));
  CheckReport ok = CheckHistory(h);
  EXPECT_TRUE(ok.certified) << ok.Summary();
  EXPECT_EQ(ok.dispatch_spans, 3u);
  ASSERT_GE(ok.max_concurrency.size(), 1u);
  EXPECT_EQ(ok.max_concurrency[0], 2);

  h.records.push_back(span(Verb::kAccount, 99, 1, 70));  // release w/o grant
  CheckReport bad = CheckHistory(h);
  EXPECT_FALSE(bad.certified);
}

}  // namespace
}  // namespace vc::trace
