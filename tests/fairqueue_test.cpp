#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "client/fairqueue.h"
#include "common/executor.h"

namespace vc::client {
namespace {

FairQueue::Options FairOpts(bool fair) {
  FairQueue::Options o;
  o.fair = fair;
  return o;
}

TEST(FairQueueTest, SingleTenantFifo) {
  FairQueue q;
  q.Add("t1", "a");
  q.Add("t1", "b");
  EXPECT_EQ(q.Len(), 2u);
  auto i1 = q.Get();
  auto i2 = q.Get();
  EXPECT_EQ(i1->key, "a");
  EXPECT_EQ(i2->key, "b");
  q.Done(*i1);
  q.Done(*i2);
}

TEST(FairQueueTest, DedupPerTenantKey) {
  FairQueue q;
  q.Add("t1", "a");
  q.Add("t1", "a");
  q.Add("t2", "a");  // same key, different tenant: distinct item
  EXPECT_EQ(q.Len(), 2u);
  EXPECT_EQ(q.dedups(), 1u);
}

// The core fairness property (paper Fig. 11): a tenant with a huge backlog
// cannot starve a tenant with a small one — equal weights mean alternating
// dequeues regardless of backlog sizes.
TEST(FairQueueTest, RoundRobinInterleavesTenants) {
  FairQueue q;
  for (int i = 0; i < 100; ++i) q.Add("greedy", "g" + std::to_string(i));
  q.Add("regular", "r0");
  q.Add("regular", "r1");
  // The regular tenant's items surface within the first few dequeues.
  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) {
    auto item = q.Get();
    order.push_back(item->tenant);
    q.Done(*item);
  }
  int regular_seen = 0;
  for (int i = 0; i < 4; ++i) {
    if (order[static_cast<size_t>(i)] == "regular") regular_seen++;
  }
  EXPECT_GE(regular_seen, 1) << "regular tenant starved by greedy backlog";
  EXPECT_EQ(std::count(order.begin(), order.end(), "regular"), 2);
}

TEST(FairQueueTest, SharedFifoModeStarvesLateTenant) {
  FairQueue q(FairOpts(false));
  for (int i = 0; i < 50; ++i) q.Add("greedy", "g" + std::to_string(i));
  q.Add("regular", "r0");
  // FIFO: all 50 greedy items come out before the regular one.
  for (int i = 0; i < 50; ++i) {
    auto item = q.Get();
    EXPECT_EQ(item->tenant, "greedy");
    q.Done(*item);
  }
  EXPECT_EQ(q.Get()->tenant, "regular");
}

TEST(FairQueueTest, WeightedRoundRobinRespectsWeights) {
  FairQueue q;
  q.RegisterTenant("heavy", 3);
  q.RegisterTenant("light", 1);
  for (int i = 0; i < 30; ++i) {
    q.Add("heavy", "h" + std::to_string(i));
    q.Add("light", "l" + std::to_string(i));
  }
  std::map<std::string, int> first12;
  for (int i = 0; i < 12; ++i) {
    auto item = q.Get();
    first12[item->tenant]++;
    q.Done(*item);
  }
  // 3:1 ratio over full rounds.
  EXPECT_EQ(first12["heavy"], 9);
  EXPECT_EQ(first12["light"], 3);
}

TEST(FairQueueTest, EqualWeightsDegenerateToRoundRobin) {
  FairQueue q;
  for (const char* t : {"a", "b", "c"}) {
    for (int i = 0; i < 5; ++i) q.Add(t, std::string(t) + std::to_string(i));
  }
  std::vector<std::string> tenants;
  for (int i = 0; i < 9; ++i) {
    auto item = q.Get();
    tenants.push_back(item->tenant);
    q.Done(*item);
  }
  // Perfect a,b,c cycling.
  for (int i = 0; i < 9; i += 3) {
    std::set<std::string> round(tenants.begin() + i, tenants.begin() + i + 3);
    EXPECT_EQ(round.size(), 3u) << "round " << i / 3 << " not fair";
  }
}

TEST(FairQueueTest, EmptySubQueueForfeitsTurn) {
  FairQueue q;
  q.RegisterTenant("idle", 5);
  q.Add("busy", "b0");
  q.Add("busy", "b1");
  EXPECT_EQ(q.Get()->key, "b0");
  EXPECT_EQ(q.Get()->key, "b1");
}

TEST(FairQueueTest, ReAddDuringProcessingRequeues) {
  FairQueue q;
  q.Add("t", "k");
  auto item = q.Get();
  q.Add("t", "k");  // dirty while processing
  EXPECT_EQ(q.Len(), 0u);
  q.Done(*item);
  EXPECT_EQ(q.Len(), 1u);
  auto again = q.Get();
  EXPECT_EQ(again->key, "k");
  q.Done(*again);
  EXPECT_EQ(q.Len(), 0u);
}

TEST(FairQueueTest, DirtyWhileProcessingCollapsesManyAdds) {
  FairQueue q;
  q.Add("t", "k");
  auto item = q.Get();
  for (int i = 0; i < 10; ++i) q.Add("t", "k");
  q.Done(*item);
  EXPECT_EQ(q.Len(), 1u);  // one re-queue, not ten
}

TEST(FairQueueTest, EnqueueTimePreservedAcrossDedup) {
  ManualClock clock;
  FairQueue::Options opts;
  opts.clock = &clock;
  FairQueue q(opts);
  q.Add("t", "k");
  clock.Advance(Seconds(5));
  q.Add("t", "k");  // dedup: keeps original enqueue time
  auto item = q.Get();
  EXPECT_EQ(item->enqueue_time, TimePoint{});
}

TEST(FairQueueTest, UnregisterDropsPending) {
  FairQueue q;
  q.Add("gone", "a");
  q.Add("gone", "b");
  q.Add("stay", "c");
  q.UnregisterTenant("gone");
  EXPECT_EQ(q.Len(), 1u);
  EXPECT_EQ(q.Get()->tenant, "stay");
}

TEST(FairQueueTest, UnregisterWithQueuedAndInProcessingItems) {
  FairQueue q;
  q.Add("gone", "queued-a");
  q.Add("gone", "queued-b");
  auto in_flight = q.Get();  // "queued-a" now processing
  ASSERT_EQ(in_flight->tenant, "gone");
  q.Add("gone", "queued-a");  // dirty while processing: would requeue on Done
  q.Add("stay", "c");
  q.UnregisterTenant("gone");
  EXPECT_EQ(q.Len(), 1u);  // only the surviving tenant's item remains
  // Done on the detached tenant's in-flight item must not resurrect it: the
  // dirty mark was cleared by UnregisterTenant.
  q.Done(*in_flight);
  EXPECT_EQ(q.Len(), 1u);
  EXPECT_EQ(q.Get()->tenant, "stay");
}

TEST(FairQueueTest, ReRegisterUpdatesWeightLive) {
  FairQueue q;
  q.RegisterTenant("heavy", 1);
  q.RegisterTenant("light", 1);
  for (int i = 0; i < 40; ++i) {
    q.Add("heavy", "h" + std::to_string(i));
    q.Add("light", "l" + std::to_string(i));
  }
  // Weight change while items are queued takes effect at the next refill.
  q.RegisterTenant("heavy", 3);
  std::map<std::string, int> counts;
  for (int i = 0; i < 24; ++i) {
    auto item = q.Get();
    counts[item->tenant]++;
    q.Done(*item);
  }
  // 3:1 after at most one stale round: heavy gets well over half.
  EXPECT_GE(counts["heavy"], 16);
  EXPECT_LE(counts["light"], 8);
}

TEST(FairQueueTest, IsQueuedTracksDirtySet) {
  FairQueue q;
  EXPECT_FALSE(q.IsQueued("t", "k"));
  q.Add("t", "k");
  EXPECT_TRUE(q.IsQueued("t", "k"));
  auto item = q.Get();
  EXPECT_FALSE(q.IsQueued("t", "k"));  // processing, not queued
  q.Add("t", "k");
  EXPECT_TRUE(q.IsQueued("t", "k"));  // dirty: will re-run after Done
  q.Done(*item);
  EXPECT_TRUE(q.IsQueued("t", "k"));
}

TEST(FairQueueTest, ShutdownUnblocksAndDrains) {
  FairQueue q;
  q.Add("t", "a");
  q.ShutDown();
  EXPECT_TRUE(q.Get().has_value());  // drains
  EXPECT_FALSE(q.Get().has_value());
  q.Add("t", "late");
  EXPECT_EQ(q.Len(), 0u);
}

TEST(FairQueueTest, ManyTenantsManyWorkersAllProcessed) {
  FairQueue q;
  constexpr int kTenants = 20;
  constexpr int kKeysPer = 50;
  std::atomic<int> processed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      while (auto item = q.Get()) {
        processed++;
        q.Done(*item);
      }
    });
  }
  ParallelFor(kTenants, [&](int t) {
    for (int i = 0; i < kKeysPer; ++i) {
      q.Add("tenant-" + std::to_string(t), "key-" + std::to_string(i));
    }
  });
  while (q.Len() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  q.ShutDown();
  for (auto& w : workers) w.join();
  EXPECT_EQ(processed.load(), kTenants * kKeysPer);
}

// The client-go work-queue contract on a single sub-queue. This is the shape
// the scheduler and each kubelet run on: their Reconciler is fed by
// Enqueue(key) with no key_tenant, so every key lands in the "" sub-queue and
// the FairQueue behaves as one FIFO work queue.
constexpr char kOneFifo[] = "";

TEST(WorkQueueTest, FifoOrder) {
  FairQueue q;
  q.Add(kOneFifo, "a");
  q.Add(kOneFifo, "b");
  q.Add(kOneFifo, "c");
  EXPECT_EQ(q.Len(), 3u);
  EXPECT_EQ(q.Get()->key, "a");
  EXPECT_EQ(q.Get()->key, "b");
  EXPECT_EQ(q.Get()->key, "c");
}

TEST(WorkQueueTest, DeduplicatesQueuedItems) {
  FairQueue q;
  q.Add(kOneFifo, "a");
  q.Add(kOneFifo, "a");
  q.Add(kOneFifo, "a");
  EXPECT_EQ(q.Len(), 1u);
  EXPECT_EQ(q.adds(), 1u);
  EXPECT_EQ(q.dedups(), 2u);
}

// Re-adding an item while it is being processed does not create a second
// concurrent processor; the item is re-queued on Done.
TEST(WorkQueueTest, ReAddDuringProcessingRequeuesOnDone) {
  FairQueue q;
  q.Add(kOneFifo, "a");
  auto item = q.Get();
  q.Add(kOneFifo, "a");    // processing → goes dirty
  EXPECT_EQ(q.Len(), 0u);  // not yet re-queued
  q.Done(*item);
  EXPECT_EQ(q.Len(), 1u);
  auto again = q.Get();
  EXPECT_EQ(again->key, "a");
  q.Done(*again);
  EXPECT_EQ(q.Len(), 0u);
}

TEST(WorkQueueTest, GetBlocksUntilAdd) {
  FairQueue q;
  std::atomic<bool> got{false};
  std::thread t([&] {
    auto item = q.Get();
    EXPECT_TRUE(item.has_value());
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  q.Add(kOneFifo, "x");
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(WorkQueueTest, ShutdownUnblocksGetters) {
  FairQueue q;
  std::thread t([&] { EXPECT_FALSE(q.Get().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.ShutDown();
  t.join();
  EXPECT_TRUE(q.ShuttingDown());
  q.Add(kOneFifo, "late");  // dropped
  EXPECT_EQ(q.Len(), 0u);
}

TEST(WorkQueueTest, ShutdownDrainsRemainingItems) {
  FairQueue q;
  q.Add(kOneFifo, "a");
  q.Add(kOneFifo, "b");
  q.ShutDown();
  EXPECT_TRUE(q.Get().has_value());
  EXPECT_TRUE(q.Get().has_value());
  EXPECT_FALSE(q.Get().has_value());
}

TEST(WorkQueueTest, ConcurrentProducersConsumersProcessEverything) {
  FairQueue q;
  constexpr int kKeys = 500;
  std::atomic<int> processed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (auto item = q.Get()) {
        processed++;
        q.Done(*item);
      }
    });
  }
  ParallelFor(4, [&](int t) {
    for (int i = 0; i < kKeys; ++i) {
      q.Add(kOneFifo, "key-" + std::to_string(t) + "-" + std::to_string(i));
    }
  });
  while (q.Len() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  q.ShutDown();
  for (auto& w : workers) w.join();
  EXPECT_EQ(processed.load(), 4 * kKeys);
}

// Property sweep: under any tenant count, with equal weights, the max spread
// between per-tenant completion counts after N dequeues is bounded by 1 when
// every tenant has ample backlog.
class FairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairnessSweep, EqualWeightBoundedSpread) {
  const int tenants = GetParam();
  FairQueue q;
  for (int t = 0; t < tenants; ++t) {
    for (int i = 0; i < 100; ++i) {
      q.Add("t" + std::to_string(t), "k" + std::to_string(i));
    }
  }
  std::map<std::string, int> counts;
  const int dequeues = tenants * 10;
  for (int i = 0; i < dequeues; ++i) {
    auto item = q.Get();
    counts[item->tenant]++;
    q.Done(*item);
  }
  int mn = 1 << 30, mx = 0;
  for (auto& [t, c] : counts) {
    mn = std::min(mn, c);
    mx = std::max(mx, c);
  }
  EXPECT_EQ(counts.size(), static_cast<size_t>(tenants));
  EXPECT_LE(mx - mn, 1);
}

INSTANTIATE_TEST_SUITE_P(TenantCounts, FairnessSweep, ::testing::Values(2, 5, 16, 50, 100));

}  // namespace
}  // namespace vc::client
