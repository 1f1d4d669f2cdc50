// Tests for the shared reconciler runtime (controllers/runtime.h): per-item
// backoff, the backoff policy, held slots, promote-or-drop dedup
// between the delayed and ready sets, drain-on-stop with in-flight retries,
// and the uniform metrics block. Runs under tsan via the `concurrency` ctest
// label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "controllers/runtime.h"
#include "manual_time.h"

namespace vc::controllers {
namespace {

Reconciler::Options Opts(const std::string& name, int workers = 1) {
  Reconciler::Options o;
  o.name = name;
  o.workers = workers;
  return o;
}

// Spins until pred() holds or the deadline passes.
template <typename Pred>
bool WaitFor(Pred pred, Duration timeout = Seconds(5)) {
  Stopwatch sw(RealClock::Get());
  while (!pred()) {
    if (sw.Elapsed() > timeout) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ItemBackoffTest, ExponentialGrowthAndCap) {
  ItemBackoff b(Millis(10), Millis(80));
  EXPECT_EQ(b.Next("k"), Millis(10));
  EXPECT_EQ(b.Next("k"), Millis(20));
  EXPECT_EQ(b.Next("k"), Millis(40));
  EXPECT_EQ(b.Next("k"), Millis(80));
  EXPECT_EQ(b.Next("k"), Millis(80));  // capped
  EXPECT_EQ(b.Failures("k"), 5);
  b.Forget("k");
  EXPECT_EQ(b.Failures("k"), 0);
  EXPECT_EQ(b.Next("k"), Millis(10));
}

TEST(ItemBackoffTest, IndependentPerKey) {
  ItemBackoff b(Millis(10), Seconds(1));
  b.Next("a");
  b.Next("a");
  EXPECT_EQ(b.Next("b"), Millis(10));
}

TEST(ReconcilerTest, ReconcilesEnqueuedKeys) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("basic", 2), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return true;
               }));
  r.Start();
  for (int i = 0; i < 10; ++i) r.Enqueue("t", "k" + std::to_string(i));
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 10; }));
  r.Stop();
  EXPECT_EQ(runs.load(), 10);
  EXPECT_GE(r.reconciles(), 10u);
}

TEST(ReconcilerTest, RetryBacksOffUntilSuccess) {
  std::atomic<int> attempts{0};
  Reconciler r(Opts("retry"), Reconciler::SyncFn([&](const std::string&) {
                 return attempts.fetch_add(1) + 1 >= 3;
               }));
  r.Start();
  r.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return attempts.load() >= 3; }));
  r.Stop();
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(r.retries(), 2u);
  EXPECT_GE(r.reconciles(), 3u);
}

// A hold keeps the item's slot on the runtime's clock: with one worker the
// second key is dispatched only once the first key's hold has passed, and
// reconcile_latency counts the hold.
TEST(ReconcilerTest, HoldKeepsSlotUntilClockPassesIt) {
  ManualClock clock;
  MetricsRegistry reg;
  std::atomic<int> runs{0};
  Reconciler::Options o = Opts("hold", 1);
  o.clock = &clock;
  o.registry = &reg;
  Reconciler r(std::move(o), [&](const Reconciler::Item&) {
    runs.fetch_add(1);
    return ReconcileResult::Done(Millis(10));
  });
  r.Start();
  r.Enqueue("t", "a");
  r.Enqueue("t", "b");
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  Settle(&clock);
  // One worker, "a" still holding: "b" must still be queued.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(r.Len(), 1u);
  EXPECT_EQ(r.InFlight(), 1);
  EXPECT_EQ(r.reconciles(), 0u);
  AdvanceAndSettle(&clock, Millis(9));  // short of the hold
  EXPECT_EQ(runs.load(), 1);
  AdvanceAndSettle(&clock, Millis(1));  // "a" releases its slot to "b"
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(r.reconciles(), 1u);
  AdvanceAndSettle(&clock, Millis(10));
  EXPECT_EQ(r.reconciles(), 2u);
  EXPECT_EQ(r.InFlight(), 0);
  std::map<std::string, double> m = reg.Collect();
  EXPECT_EQ(m["hold.reconcile_latency_count"], 2.0);
  EXPECT_GE(m["hold.reconcile_latency_p50_s"], 0.010);
  r.Stop();
}

// Stop does not wait out a pending hold: it finishes the held reconcile at
// once, counts it, and drops the retry it asked for.
TEST(ReconcilerTest, StopFinishesPendingHoldWithoutAdvancing) {
  ManualClock clock;
  std::atomic<int> runs{0};
  Reconciler::Options o = Opts("hold-stop", 2);
  o.clock = &clock;
  Reconciler r(std::move(o), [&](const Reconciler::Item& item) {
    runs.fetch_add(1);
    return item.key == "a" ? ReconcileResult::Done(Seconds(3600))
                           : ReconcileResult::Retry(Seconds(3600));
  });
  r.Start();
  r.Enqueue("t", "a");
  r.Enqueue("t", "b");
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 2; }));
  Settle(&clock);
  EXPECT_EQ(r.InFlight(), 2);
  const TimePoint before = clock.Now();
  r.Stop();
  EXPECT_EQ(clock.Now(), before);
  EXPECT_EQ(r.reconciles(), 2u);
  EXPECT_EQ(r.retries(), 1u);
  EXPECT_EQ(r.InFlight(), 0);
  EXPECT_EQ(r.Len(), 0u);
  AdvanceAndSettle(&clock, Seconds(7200));  // the cancelled holds stay silent
  EXPECT_EQ(runs.load(), 2);
}

// The delayed-add contract the scheduler and kubelets used to get from a
// separate delaying queue: EnqueueAfter holds the key back until its delay
// has passed on the runtime's clock, while an immediate Enqueue runs now.
TEST(DelayingQueueTest, AddAfterDelaysDelivery) {
  ManualClock clock;
  std::mutex mu;
  std::vector<std::string> order;
  Reconciler::Options o = Opts("add-after");
  o.clock = &clock;
  Reconciler r(std::move(o), Reconciler::SyncFn([&](const std::string& key) {
                 std::lock_guard<std::mutex> l(mu);
                 order.push_back(key);
                 return true;
               }));
  auto seen = [&] {
    std::lock_guard<std::mutex> l(mu);
    return order;
  };
  r.Start();
  r.EnqueueAfter("later", Millis(50));
  r.Enqueue("now");
  ASSERT_TRUE(WaitFor([&] { return seen().size() >= 1; }));
  Settle(&clock);
  EXPECT_EQ(seen(), std::vector<std::string>{"now"});
  AdvanceAndSettle(&clock, Millis(40));  // short of the delay
  EXPECT_EQ(seen(), std::vector<std::string>{"now"});
  AdvanceAndSettle(&clock, Millis(10));  // the delay has passed
  EXPECT_EQ(seen(), (std::vector<std::string>{"now", "later"}));
  r.Stop();
}

// The retry contract the scheduler and kubelets used to get from a separate
// rate-limiting queue: a failed key comes back only after its per-item
// backoff, and a success forgets the backoff so the next failure starts
// again from the base delay.
TEST(RateLimitingQueueTest, RetriesComeBackWithBackoff) {
  ManualClock clock;
  std::atomic<int> attempts{0};
  Reconciler::Options o = Opts("rate-limited");
  o.clock = &clock;
  o.backoff_base = Millis(5);
  o.backoff_max = Millis(100);
  // Attempts 1 and 3 fail, 2 and 4 succeed.
  Reconciler r(std::move(o), Reconciler::SyncFn([&](const std::string&) {
                 return attempts.fetch_add(1) % 2 == 1;
               }));
  r.Start();
  for (int round = 1; round <= 2; ++round) {
    r.Enqueue("k");
    ASSERT_TRUE(WaitFor([&] { return attempts.load() >= 2 * round - 1; }));
    Settle(&clock);
    EXPECT_EQ(attempts.load(), 2 * round - 1);
    EXPECT_EQ(r.retries(), static_cast<uint64_t>(round));
    AdvanceAndSettle(&clock, Millis(4));  // short of the base backoff
    EXPECT_EQ(attempts.load(), 2 * round - 1);
    AdvanceAndSettle(&clock, Millis(1));  // base backoff, not doubled
    EXPECT_EQ(attempts.load(), 2 * round);
  }
  r.Stop();
}

// Regression (promote): EnqueueAfter followed by an immediate Enqueue of the
// same key runs the key ONCE — the delayed entry is promoted, and its timer
// must not produce a second run when it fires.
TEST(ReconcilerTest, EnqueuepromotesPendingDelayedAdd) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("promote"), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return true;
               }));
  r.Start();
  r.EnqueueAfter("t", "k", Millis(50));
  r.Enqueue("t", "k");  // supersedes the delayed add
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));  // past deadline
  EXPECT_EQ(runs.load(), 1) << "stale delayed timer re-ran a promoted key";
  r.Stop();
}

// A non-positive delay is an immediate Enqueue: the key runs without the
// (manual) clock moving.
TEST(ReconcilerTest, EnqueueAfterZeroDelayRunsNow) {
  ManualClock clock;
  std::atomic<int> runs{0};
  Reconciler::Options o = Opts("zero-delay");
  o.clock = &clock;
  Reconciler r(std::move(o), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return true;
               }));
  r.Start();
  r.EnqueueAfter("t", "k", Duration::zero());
  EXPECT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  r.Stop();
}

// Regression (drop): EnqueueAfter of a key already sitting in the ready set is
// dropped — the queued run covers it.
TEST(ReconcilerTest, EnqueueAfterDroppedWhenAlreadyQueued) {
  std::atomic<int> k_runs{0};
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  Reconciler r(Opts("drop", 1), Reconciler::SyncFn([&](const std::string& key) {
                 if (key == "blocker") {
                   blocker_started.store(true);
                   while (!release.load()) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   }
                 } else {
                   k_runs.fetch_add(1);
                 }
                 return true;
               }));
  r.Start();
  r.Enqueue("t", "blocker");
  ASSERT_TRUE(WaitFor([&] { return blocker_started.load(); }));
  r.Enqueue("t", "k");                // queued behind the blocker
  r.EnqueueAfter("t", "k", Millis(5));  // dropped: already queued
  release.store(true);
  EXPECT_TRUE(WaitFor([&] { return k_runs.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(k_runs.load(), 1) << "delayed duplicate ran a queued key twice";
  r.Stop();
}

// Stop while reconciles are failing (and therefore arming backoff timers)
// must drain cleanly: no hang, no use-after-stop reconcile, timers swept.
TEST(ReconcilerTest, StopWithInflightRetriesDrainsCleanly) {
  std::atomic<int> runs{0};
  Reconciler r(Opts("stop-drain", 4), Reconciler::SyncFn([&](const std::string&) {
                 runs.fetch_add(1);
                 return false;  // always retry
               }));
  r.Start();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 25; ++i) {
      r.Enqueue("t" + std::to_string(t), "k" + std::to_string(i));
    }
  }
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 20; }));
  r.Stop();
  const int after = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runs.load(), after) << "reconcile ran after Stop() returned";
  EXPECT_EQ(r.InFlight(), 0);
}

// A delay that an Enqueue promoted, or an earlier EnqueueAfter replaced,
// leaves its timer armed (it fires as a no-op). Stop must cancel those too:
// one firing after destruction would touch freed memory (ASan).
TEST(ReconcilerTest, StopCancelsSupersededDelayTimers) {
  ManualClock clock;
  // Held past the runtime, so its timers could still fire into it.
  std::shared_ptr<Executor> exec = Executor::SharedFor(&clock);
  std::atomic<int> runs{0};
  auto r = std::make_unique<Reconciler>(
      [&] {
        Reconciler::Options o = Opts("superseded");
        o.clock = &clock;
        return o;
      }(),
      Reconciler::SyncFn([&](const std::string&) {
        runs.fetch_add(1);
        return true;
      }));
  r->Start();
  r->EnqueueAfter("t", "promoted", Millis(30));
  r->Enqueue("t", "promoted");  // its 30 ms timer is now stale
  r->EnqueueAfter("t", "replaced", Millis(40));
  r->EnqueueAfter("t", "replaced", Millis(20));  // its 40 ms timer is now stale
  ASSERT_TRUE(WaitFor([&] { return runs.load() >= 1; }));
  r->Stop();
  r.reset();
  AdvanceAndSettle(&clock, Millis(50));  // past every deadline
  EXPECT_EQ(runs.load(), 1);
}

TEST(ReconcilerTest, StopIsIdempotentAndStopsFreshRuntime) {
  Reconciler r(Opts("idle"),
               Reconciler::SyncFn([](const std::string&) { return true; }));
  r.Stop();  // never started
  r.Start();
  r.Stop();
  r.Stop();
}

TEST(ReconcilerTest, KeyTenantMapsSingleArgEnqueue) {
  std::mutex mu;
  std::vector<std::string> tenants;
  Reconciler::Options o = Opts("keyed", 1);
  o.key_tenant = NamespacedKeyTenant(
      [](const std::string& ns) { return "tenant-of-" + ns; });
  Reconciler r(std::move(o), [&](const Reconciler::Item& item) {
    std::lock_guard<std::mutex> l(mu);
    tenants.push_back(item.tenant);
    return ReconcileResult::Done();
  });
  r.Start();
  r.Enqueue("ns1/pod-a");
  EXPECT_TRUE(WaitFor([&] { return r.reconciles() >= 1; }));
  r.Stop();
  std::lock_guard<std::mutex> l(mu);
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0], "tenant-of-ns1");
}

// The uniform metrics block: every runtime-hosted loop is visible in one
// Collect() of the shared registry.
TEST(ReconcilerTest, MetricsBlocksVisibleInOneDump) {
  MetricsRegistry reg;
  Reconciler::Options oa = Opts("loop-a");
  oa.registry = &reg;
  Reconciler::Options ob = Opts("loop-b");
  ob.registry = &reg;
  Reconciler a(std::move(oa),
               Reconciler::SyncFn([](const std::string&) { return true; }));
  Reconciler b(std::move(ob), Reconciler::SyncFn([&](const std::string&) {
                 return false;  // retried
               }));
  a.Start();
  b.Start();
  a.Enqueue("t", "k");
  b.Enqueue("t", "k");
  EXPECT_TRUE(WaitFor([&] { return a.reconciles() >= 1 && b.retries() >= 1; }));
  std::map<std::string, double> m = reg.Collect();
  for (const char* loop : {"loop-a", "loop-b"}) {
    for (const char* metric : {"queue_depth", "in_flight", "reconciles",
                               "retries", "queue_latency_count",
                               "reconcile_latency_count"}) {
      EXPECT_EQ(m.count(std::string(loop) + "." + metric), 1u)
          << loop << "." << metric << " missing from dump";
    }
  }
  EXPECT_GE(m["loop-a.reconciles"], 1.0);
  EXPECT_GE(m["loop-b.retries"], 1.0);
  EXPECT_GE(m["loop-a.queue_latency_count"], 1.0);
  b.Stop();
  a.Stop();
}

// Same-name loops get uniquified blocks instead of clobbering each other.
TEST(ReconcilerTest, DuplicateNamesAreUniquified) {
  MetricsRegistry reg;
  Reconciler::Options o1 = Opts("dup");
  o1.registry = &reg;
  Reconciler::Options o2 = Opts("dup");
  o2.registry = &reg;
  Reconciler r1(std::move(o1),
                Reconciler::SyncFn([](const std::string&) { return true; }));
  Reconciler r2(std::move(o2),
                Reconciler::SyncFn([](const std::string&) { return true; }));
  std::map<std::string, double> m = reg.Collect();
  EXPECT_EQ(m.count("dup.queue_depth"), 1u);
  EXPECT_EQ(m.count("dup#2.queue_depth"), 1u);
}

}  // namespace
}  // namespace vc::controllers
