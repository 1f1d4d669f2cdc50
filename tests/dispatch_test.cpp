// Serving-tier tests: the RequestDispatcher (server-side priority & fairness)
// and the multi-front-end FrontendTier built on it.
//
// The flood test reproduces the acceptance bar of the serving-tier work: a
// best-effort tenant saturating a shared front end must not move the p99 of
// system-band requests by more than 2x, because bands never borrow capacity
// from each other.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/types.h"
#include "apiserver/apiserver.h"
#include "apiserver/dispatch.h"
#include "apiserver/frontend_tier.h"
#include "apiserver/request_context.h"
#include "client/frontends.h"
#include "client/typed_client.h"
#include "common/executor.h"
#include "common/trace_check.h"

namespace vc::apiserver {
namespace {

using api::Pod;

Pod MakePod(const std::string& ns, const std::string& name) {
  Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  return p;
}

RequestContext BestEffort(const std::string& flow) {
  RequestContext ctx;
  ctx.identity.user = "tenant:" + flow;
  ctx.flow = flow;
  ctx.band = PriorityBand::kBestEffort;
  return ctx;
}

// --------------------------------------------------------------- classification

TEST(RequestContextTest, ClassifyBand) {
  EXPECT_EQ(ClassifyBand(RequestContext::Loopback()), PriorityBand::kSystem);
  EXPECT_EQ(ClassifyBand(RequestContext::System("scheduler")), PriorityBand::kLeader);
  RequestContext tenant;
  tenant.identity.user = "tenant:acme";
  EXPECT_EQ(ClassifyBand(tenant), PriorityBand::kWorkload);
  EXPECT_EQ(ClassifyBand(RequestContext{}), PriorityBand::kWorkload);  // anonymous
  RequestContext batch = tenant;
  batch.band = PriorityBand::kBestEffort;
  EXPECT_EQ(ClassifyBand(batch), PriorityBand::kBestEffort);
}

TEST(RequestContextTest, FlowDefaultsToUserAndOverrides) {
  RequestContext ctx;
  ctx.identity.user = "tenant:acme";
  EXPECT_EQ(ctx.FlowKey(), "tenant:acme");
  ctx.flow = "acme";
  EXPECT_EQ(ctx.FlowKey(), "acme");
}

// ------------------------------------------------------------------ dispatcher

TEST(DispatcherTest, UnlimitedBudgetNeverQueues) {
  RequestDispatcher d({});  // max_inflight = 0
  std::vector<RequestDispatcher::Ticket> held;
  for (int i = 0; i < 64; ++i) {
    Result<RequestDispatcher::Ticket> t = d.Admit(RequestContext::Loopback());
    ASSERT_TRUE(t.ok());
    held.push_back(std::move(*t));
  }
  EXPECT_EQ(d.Stats(PriorityBand::kSystem).admitted, 64u);
  EXPECT_EQ(d.Stats(PriorityBand::kSystem).queued, 0u);
}

TEST(DispatcherTest, AssuredSharesPartitionTheBudget) {
  RequestDispatcher::Options o;
  o.max_inflight = 10;
  RequestDispatcher d(o);  // shares 4:3:2:1
  EXPECT_EQ(d.AssuredShare(PriorityBand::kSystem), 4);
  EXPECT_EQ(d.AssuredShare(PriorityBand::kLeader), 3);
  EXPECT_EQ(d.AssuredShare(PriorityBand::kWorkload), 2);
  EXPECT_EQ(d.AssuredShare(PriorityBand::kBestEffort), 1);

  // Every band gets at least one slot even when the budget is tiny.
  RequestDispatcher::Options tiny;
  tiny.max_inflight = 2;
  RequestDispatcher d2(tiny);
  EXPECT_GE(d2.AssuredShare(PriorityBand::kBestEffort), 1);
}

TEST(DispatcherTest, BestEffortShedsWithRetryAfterWhenBandFull) {
  RequestDispatcher::Options o;
  o.max_inflight = 4;  // best-effort assured share = 1
  o.best_effort_max_wait = Millis(10);
  RequestDispatcher d(o);

  Result<RequestDispatcher::Ticket> held = d.Admit(BestEffort("acme"));
  ASSERT_TRUE(held.ok());
  Result<RequestDispatcher::Ticket> shed = d.Admit(BestEffort("acme"));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsTooManyRequests());
  EXPECT_NE(shed.status().message().find("retry-after"), std::string::npos);
  EXPECT_EQ(d.Stats(PriorityBand::kBestEffort).shed, 1u);

  // A saturated best-effort band takes nothing from the system band.
  Result<RequestDispatcher::Ticket> sys = d.Admit(RequestContext::Loopback());
  EXPECT_TRUE(sys.ok());
}

TEST(DispatcherTest, QueueLimitShedsArrivals) {
  RequestDispatcher::Options o;
  o.max_inflight = 4;  // workload assured share = 1
  o.queue_limit = 1;
  o.max_wait = Seconds(5);
  RequestDispatcher d(o);

  RequestContext tenant;
  tenant.identity.user = "tenant:acme";
  Result<RequestDispatcher::Ticket> held = d.Admit(tenant);
  ASSERT_TRUE(held.ok());

  std::thread waiter([&] {
    Result<RequestDispatcher::Ticket> t = d.Admit(tenant);
    EXPECT_TRUE(t.ok());  // granted when `held` releases
  });
  while (d.Stats(PriorityBand::kWorkload).queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queue is at its limit: the next arrival sheds immediately.
  Result<RequestDispatcher::Ticket> overflow = d.Admit(tenant);
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsTooManyRequests());

  held = RequestDispatcher::Ticket();  // release → waiter is granted
  waiter.join();
}

TEST(DispatcherTest, FairQueuingInterleavesFlowsWithinBand) {
  RequestDispatcher::Options o;
  o.max_inflight = 4;  // workload assured share = 1
  o.max_wait = Seconds(5);
  RequestDispatcher d(o);

  RequestContext greedy;
  greedy.identity.user = "tenant:greedy";
  RequestContext meek;
  meek.identity.user = "tenant:meek";

  Result<RequestDispatcher::Ticket> held = d.Admit(greedy);
  ASSERT_TRUE(held.ok());

  // 3 greedy waiters enqueue BEFORE the single meek waiter. Grants release
  // one at a time (band share = 1), so completion order == grant order.
  std::mutex mu;
  std::vector<std::string> order;
  std::vector<std::thread> threads;
  auto run = [&](const RequestContext& ctx, const std::string& tag) {
    Result<RequestDispatcher::Ticket> t = d.Admit(ctx);
    ASSERT_TRUE(t.ok());
    std::lock_guard<std::mutex> l(mu);
    order.push_back(tag);
  };
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back(run, greedy, "greedy");
    while (d.Stats(PriorityBand::kWorkload).queued < static_cast<uint64_t>(i + 1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  threads.emplace_back(run, meek, "meek");
  while (d.Stats(PriorityBand::kWorkload).queued < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  held = RequestDispatcher::Ticket();  // release the slot; grants cascade
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(order.size(), 4u);
  // Fair queuing alternates flows: meek is granted 1st or 2nd, never last
  // behind the greedy backlog (FIFO would put it 4th).
  auto pos = std::find(order.begin(), order.end(), "meek") - order.begin();
  EXPECT_LT(pos, 2);
}

TEST(DispatcherTest, ResetShedsWaitersAndInvalidatesOldTickets) {
  RequestDispatcher::Options o;
  o.max_inflight = 4;  // workload assured share = 1
  o.max_wait = Seconds(30);
  RequestDispatcher d(o);

  RequestContext tenant;
  tenant.identity.user = "tenant:acme";
  Result<RequestDispatcher::Ticket> old_ticket = d.Admit(tenant);
  ASSERT_TRUE(old_ticket.ok());

  std::thread waiter([&] {
    Result<RequestDispatcher::Ticket> t = d.Admit(tenant);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), Code::kUnavailable);
  });
  while (d.Stats(PriorityBand::kWorkload).queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  d.Reset();
  waiter.join();

  // Fresh epoch: accounting is zeroed and the band's slot is free again even
  // though the pre-reset ticket is still alive.
  EXPECT_EQ(d.Stats(PriorityBand::kWorkload).inflight, 0);
  Result<RequestDispatcher::Ticket> fresh = d.Admit(tenant);
  ASSERT_TRUE(fresh.ok());
  // Releasing the stale ticket is a no-op — it must not free the new
  // epoch's slot twice or corrupt inflight accounting.
  old_ticket = RequestDispatcher::Ticket();
  EXPECT_EQ(d.Stats(PriorityBand::kWorkload).inflight, 1);
}

// The trace history PROVES the dispatcher's core isolation invariant instead
// of sampling it: across a concurrent burst in every band, the checker pairs
// every grant with exactly one release and verifies that the number of
// simultaneously executing requests in a band never exceeded its assured
// share. kExecute/kAccount records are stamped under the dispatcher lock, so
// their timestamp order is the true interleaving.
TEST(DispatcherTest, HistoryCheckerProvesAssuredShareIsolation) {
  trace::Reset();
  RequestDispatcher::Options o;
  o.max_inflight = 8;  // shares 3:2:1:1
  o.max_wait = Seconds(5);
  o.best_effort_max_wait = Seconds(5);
  RequestDispatcher d(o);

  constexpr int kThreads = 8;
  constexpr int kAdmits = 50;
  ParallelFor(kThreads, [&](int t) {
    RequestContext ctx;
    switch (t % 4) {
      case 0: ctx = RequestContext::Loopback(); break;
      case 1: ctx = RequestContext::System("controller"); break;
      case 2: ctx.identity.user = "tenant:acme"; break;
      default: ctx = BestEffort("flood-" + std::to_string(t)); break;
    }
    for (int i = 0; i < kAdmits; ++i) {
      Result<RequestDispatcher::Ticket> ticket = d.Admit(ctx, trace::NewTraceId());
      ASSERT_TRUE(ticket.ok()) << ticket.status();
    }
  });

  trace::CheckReport report = trace::DrainAndCheck();
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_EQ(report.dispatch_spans, static_cast<size_t>(kThreads * kAdmits));
  ASSERT_EQ(report.max_concurrency.size(), 4u);
  for (int b = 0; b < 4; ++b) {
    const auto band = static_cast<PriorityBand>(b);
    EXPECT_LE(report.max_concurrency[b], d.AssuredShare(band))
        << "band " << b << " exceeded its assured share";
    EXPECT_GE(report.max_concurrency[b], 1) << "band " << b << " never ran";
  }
}

TEST(DispatcherTest, NoFairnessDegradesToSharedFifoWithUnboundedWait) {
  RequestDispatcher::Options o;
  o.max_inflight = 1;
  o.fairness = false;
  o.best_effort_max_wait = Millis(1);  // ignored without fairness
  RequestDispatcher d(o);

  Result<RequestDispatcher::Ticket> held = d.Admit(RequestContext::Loopback());
  ASSERT_TRUE(held.ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    // Without fairness best-effort shares the single FIFO and waits
    // indefinitely instead of shedding — the pre-APF crowding behaviour.
    Result<RequestDispatcher::Ticket> t = d.Admit(BestEffort("acme"));
    EXPECT_TRUE(t.ok());
    granted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  held = RequestDispatcher::Ticket();
  waiter.join();
  EXPECT_TRUE(granted.load());
}

// ---------------------------------------------------------------- APF flood
//
// Acceptance bar: a best-effort tenant saturating a shared front end must not
// move the p99 of system-band requests by more than 2x, because the system
// band's assured share cannot be borrowed by the flood.

double P99Millis(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(samples.size() * 0.99)];
}

TEST(DispatcherFloodTest, SystemP99SurvivesBestEffortFlood) {
  trace::Reset();
  APIServer::Options o;
  o.fairness = true;
  o.max_inflight = 8;
  o.best_effort_max_wait = Millis(5);
  // The simulated handler cost dominates scheduler jitter on a loaded CI
  // machine, so the p99 comparison measures queuing, not noise.
  o.request_latency = Millis(4);
  APIServer server(std::move(o));
  ASSERT_TRUE(server.Create(MakePod("default", "probe")).ok());

  const RequestContext sys = RequestContext::Loopback("probe");
  ASSERT_TRUE(server.Get<Pod>("default", "probe", sys).ok());  // prime the cache
  auto measure = [&](int n) {
    std::vector<double> ms;
    ms.reserve(n);
    for (int i = 0; i < n; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      EXPECT_TRUE(server.Get<Pod>("default", "probe", sys).ok());
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
    return ms;
  };

  std::vector<double> baseline = measure(150);

  // Saturate from best-effort flooder threads (2 tenants) while re-probing.
  // One per CPU: more would spin the probe off the CPUs and measure CPU
  // contention (tenfold under TSan) rather than the dispatcher's fairness.
  const int flooders = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  std::atomic<bool> stop{false};
  std::vector<std::thread> flood;
  for (int i = 0; i < flooders; ++i) {
    flood.emplace_back([&, i] {
      const RequestContext ctx = BestEffort(i % 2 ? "flood-a" : "flood-b");
      while (!stop.load(std::memory_order_relaxed)) {
        (void)server.Get<Pod>("default", "probe", ctx);
      }
    });
  }
  // Let the flood ramp up before sampling.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<double> loaded = measure(150);
  stop = true;
  for (std::thread& t : flood) t.join();

  const double base_p99 = P99Millis(baseline);
  const double loaded_p99 = P99Millis(loaded);
  EXPECT_LE(loaded_p99, 2.0 * base_p99)
      << "baseline p99=" << base_p99 << "ms loaded p99=" << loaded_p99 << "ms";

  // The flood really was saturating: its band shed and/or queued heavily.
  RequestDispatcher::BandStats be = server.dispatcher().Stats(PriorityBand::kBestEffort);
  EXPECT_GT(be.admitted + be.shed, 100u);
  EXPECT_GT(be.shed + be.queued, 0u);
  // And the probe's band never queued behind it.
  EXPECT_EQ(server.dispatcher().Stats(PriorityBand::kSystem).queued, 0u);

  // Certify the whole flood window: every grant paired with one release, no
  // ring drops, every cache-served Get read-your-write, and neither the
  // system band nor the flood's own band ever ran past its assured share.
  trace::CheckReport report = trace::DrainAndCheck();
  EXPECT_TRUE(report.certified) << report.Summary();
  EXPECT_GT(report.dispatch_spans, 100u);
  ASSERT_EQ(report.max_concurrency.size(), 4u);
  EXPECT_LE(report.max_concurrency[static_cast<size_t>(PriorityBand::kSystem)],
            server.dispatcher().AssuredShare(PriorityBand::kSystem));
  EXPECT_LE(report.max_concurrency[static_cast<size_t>(PriorityBand::kBestEffort)],
            server.dispatcher().AssuredShare(PriorityBand::kBestEffort));
}

// ------------------------------------------------------------- frontend tier

TEST(FrontendTierTest, WritesThroughAnyFrontendShareOneRevisionStream) {
  FrontendTier::Options o;
  o.frontends = 3;
  FrontendTier tier(o);

  ASSERT_TRUE(tier.frontend(0).Create(MakePod("default", "a")).ok());
  Result<Pod> via1 = tier.frontend(1).Get<Pod>("default", "a");
  ASSERT_TRUE(via1.ok());

  // CAS semantics are store-global: an update through front end 2 with the
  // revision read from front end 1 succeeds; reusing the stale revision
  // through front end 0 conflicts.
  Pod fresh = *via1;
  fresh.meta.labels["touched"] = "fe2";
  ASSERT_TRUE(tier.frontend(2).Update(fresh).ok());
  via1->meta.labels["touched"] = "fe0";
  EXPECT_TRUE(tier.frontend(0).Update(*via1).status().IsConflict());

  // Duplicate-name create through a different front end: AlreadyExists.
  EXPECT_TRUE(tier.frontend(1).Create(MakePod("default", "a")).status().IsAlreadyExists());
}

TEST(FrontendTierTest, ListOnAThenWatchOnBHasNoGapNoDup) {
  FrontendTier tier({});
  ASSERT_TRUE(tier.frontend(0).Create(MakePod("default", "before")).ok());

  Result<TypedList<Pod>> list = tier.frontend(0).List<Pod>();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->items.size(), 1u);

  WatchOptions wo;
  wo.from_revision = list->revision;
  Result<TypedWatch<Pod>> watch = tier.frontend(1).Watch<Pod>(wo);
  ASSERT_TRUE(watch.ok());

  ASSERT_TRUE(tier.frontend(1).Create(MakePod("default", "after")).ok());
  Result<WatchEvent<Pod>> ev = watch->Next(Seconds(5));
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->object.meta.name, "after");  // no dup of "before", no gap
}

TEST(FrontendTierTest, ClusterFrontendsRoundRobinsClients) {
  FrontendTier::Options o;
  o.frontends = 2;
  FrontendTier tier(o);
  client::ClusterFrontends lb(&tier);
  EXPECT_EQ(lb.size(), 2u);

  for (int i = 0; i < 10; ++i) {
    client::TypedClient<Pod> pods = lb.Client<Pod>("default");
    ASSERT_TRUE(pods.Create(MakePod("", "p" + std::to_string(i))).ok());
  }
  // Both front ends served creates (round-robin), against one store.
  EXPECT_GT(tier.frontend(0).stats().creates.load(), 0u);
  EXPECT_GT(tier.frontend(1).stats().creates.load(), 0u);
  EXPECT_EQ(tier.frontend(0).List<Pod>()->items.size(), 10u);
}

// Regression: restarting one front end must break only ITS watchers (clean
// relist on that front end), leave sibling front ends' watchers streaming,
// and reset its own watch caches + dispatcher inflight accounting.
TEST(FrontendTierTest, RestartOfOneFrontendLeavesSiblingWatchersAlive) {
  FrontendTier::Options o;
  o.frontends = 2;
  FrontendTier tier(o);
  APIServer& fe_a = tier.frontend(1);  // shares front end 0's store
  APIServer& fe_b = tier.frontend(0);

  ASSERT_TRUE(fe_b.Create(MakePod("default", "seed")).ok());
  Result<TypedList<Pod>> list_a = fe_a.List<Pod>();
  ASSERT_TRUE(list_a.ok());

  WatchOptions from;
  from.from_revision = list_a->revision;
  Result<TypedWatch<Pod>> watch_a = fe_a.Watch<Pod>(from);
  Result<TypedWatch<Pod>> watch_b = fe_b.Watch<Pod>(from);
  ASSERT_TRUE(watch_a.ok());
  ASSERT_TRUE(watch_b.ok());

  fe_a.Restart();

  // A's watcher is broken with Gone → its reflector must relist...
  Result<WatchEvent<Pod>> dead = watch_a->Next(Seconds(5));
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsGone());
  // ...and the relist is clean: fresh list on A (rebuilt watch cache) + watch
  // from its revision resumes without gap or duplication.
  Result<TypedList<Pod>> relist = fe_a.List<Pod>();
  ASSERT_TRUE(relist.ok());
  ASSERT_EQ(relist->items.size(), 1u);
  WatchOptions resume;
  resume.from_revision = relist->revision;
  Result<TypedWatch<Pod>> watch_a2 = fe_a.Watch<Pod>(resume);
  ASSERT_TRUE(watch_a2.ok());

  // B's watcher SURVIVED A's restart: it sees the next write exactly once.
  ASSERT_TRUE(fe_a.Create(MakePod("default", "post-restart")).ok());
  Result<WatchEvent<Pod>> ev_b = watch_b->Next(Seconds(5));
  ASSERT_TRUE(ev_b.ok());
  EXPECT_EQ(ev_b->object.meta.name, "post-restart");
  Result<WatchEvent<Pod>> ev_a2 = watch_a2->Next(Seconds(5));
  ASSERT_TRUE(ev_a2.ok());
  EXPECT_EQ(ev_a2->object.meta.name, "post-restart");
}

TEST(FrontendTierTest, RestartResetsDispatcherInflightAccounting) {
  APIServer::Options o;
  o.fairness = true;
  o.max_inflight = 4;
  APIServer server(std::move(o));
  ASSERT_TRUE(server.Create(MakePod("default", "p")).ok());

  // Wedge the workload band: its assured share is 1, so a leaked/stuck slot
  // would block every later workload request. Restart() must clear it.
  RequestContext tenant;
  tenant.identity.user = "tenant:acme";
  Result<RequestDispatcher::Ticket> stuck = server.dispatcher().Admit(tenant);
  ASSERT_TRUE(stuck.ok());
  EXPECT_EQ(server.dispatcher().Stats(PriorityBand::kWorkload).inflight, 1);

  server.Restart();

  EXPECT_EQ(server.dispatcher().Stats(PriorityBand::kWorkload).inflight, 0);
  EXPECT_TRUE(server.Get<Pod>("default", "p", tenant).ok());
  stuck = RequestDispatcher::Ticket();  // stale-epoch release: no-op
  EXPECT_EQ(server.dispatcher().Stats(PriorityBand::kWorkload).inflight, 0);
}

// Restarting the store-owning front end still breaks everything attached to
// the store — the single-apiserver behaviour every pre-tier test relies on.
TEST(FrontendTierTest, OwningFrontendRestartBreaksStoreWatches) {
  FrontendTier::Options o;
  o.frontends = 2;
  FrontendTier tier(o);
  ASSERT_TRUE(tier.frontend(0).Create(MakePod("default", "seed")).ok());
  Result<TypedList<Pod>> list = tier.frontend(1).List<Pod>();
  ASSERT_TRUE(list.ok());
  WatchOptions from;
  from.from_revision = list->revision;
  Result<TypedWatch<Pod>> watch_b = tier.frontend(1).Watch<Pod>(from);
  ASSERT_TRUE(watch_b.ok());

  tier.frontend(0).Restart();  // owns the store → BreakWatches

  Result<WatchEvent<Pod>> dead = watch_b->Next(Seconds(5));
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsGone());
}

}  // namespace
}  // namespace vc::apiserver
