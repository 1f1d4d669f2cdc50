#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/trace.h"
#include "manual_time.h"
#include "scheduler/scheduler.h"

namespace vc::scheduler {
namespace {

using api::Node;
using api::Pod;
using apiserver::APIServer;

Node MakeNode(const std::string& name, int64_t cpu = 8000, int64_t mem = 16ll << 30) {
  Node n;
  n.meta.name = name;
  n.meta.labels["kubernetes.io/hostname"] = name;
  n.status.capacity = {cpu, mem};
  n.status.allocatable = {cpu, mem};
  n.status.conditions = {{api::kNodeReady, true, 1, "KubeletReady"}};
  return n;
}

Pod MakePod(const std::string& name, int64_t cpu = 100, int64_t mem = 1 << 20) {
  Pod p;
  p.meta.ns = "default";
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "img";
  c.requests = {cpu, mem};
  p.spec.containers.push_back(c);
  return p;
}

std::shared_ptr<const Pod> P(const Pod& p) { return std::make_shared<const Pod>(p); }
std::shared_ptr<const Node> N(const Node& n) { return std::make_shared<const Node>(n); }

// ------------------------------------------------------------ predicates

TEST(PredicatesTest, BuildNodeInfosAggregatesRequests) {
  Pod a = MakePod("a", 500);
  a.spec.node_name = "n1";
  Pod b = MakePod("b", 300);
  b.spec.node_name = "n1";
  Pod unsched = MakePod("c", 100);
  Pod done = MakePod("d", 100);
  done.spec.node_name = "n1";
  done.status.phase = api::PodPhase::kSucceeded;
  auto infos = BuildNodeInfos({N(MakeNode("n1"))}, {P(a), P(b), P(unsched), P(done)});
  ASSERT_EQ(infos.count("n1"), 1u);
  EXPECT_EQ(infos["n1"].pods.size(), 2u);  // terminal + unscheduled excluded
  EXPECT_EQ(infos["n1"].requested.cpu_milli, 800);
  EXPECT_EQ(infos["n1"].Free().cpu_milli, 7200);
}

TEST(PredicatesTest, ResourceFit) {
  NodeInfo info;
  info.node = N(MakeNode("n1", 1000, 1 << 20));
  EXPECT_TRUE(PodFitsResources(MakePod("p", 1000, 1 << 20), info));
  EXPECT_FALSE(PodFitsResources(MakePod("p", 1001, 1), info));
  info.requested = {500, 0};
  EXPECT_FALSE(PodFitsResources(MakePod("p", 501, 1), info));
}

TEST(PredicatesTest, NodeSelector) {
  Node ssd = MakeNode("ssd-node");
  ssd.meta.labels["disk"] = "ssd";
  Pod pod = MakePod("p");
  pod.spec.node_selector = {{"disk", "ssd"}};
  EXPECT_TRUE(PodMatchesNodeSelector(pod, ssd));
  EXPECT_FALSE(PodMatchesNodeSelector(pod, MakeNode("plain")));
}

TEST(PredicatesTest, TaintsAndTolerations) {
  Node tainted = MakeNode("t");
  tainted.spec.taints = {{"dedicated", "tenant-a", "NoSchedule"}};
  Pod plain = MakePod("p");
  EXPECT_FALSE(PodToleratesTaints(plain, tainted));
  Pod equal = MakePod("p");
  equal.spec.tolerations = {{"dedicated", api::Toleration::Op::kEqual, "tenant-a", ""}};
  EXPECT_TRUE(PodToleratesTaints(equal, tainted));
  Pod wrong_value = MakePod("p");
  wrong_value.spec.tolerations = {{"dedicated", api::Toleration::Op::kEqual, "other", ""}};
  EXPECT_FALSE(PodToleratesTaints(wrong_value, tainted));
  Pod exists = MakePod("p");
  exists.spec.tolerations = {{"dedicated", api::Toleration::Op::kExists, "", ""}};
  EXPECT_TRUE(PodToleratesTaints(exists, tainted));
  Pod tolerate_all = MakePod("p");
  tolerate_all.spec.tolerations = {{"", api::Toleration::Op::kExists, "", ""}};
  EXPECT_TRUE(PodToleratesTaints(tolerate_all, tainted));
  // PreferNoSchedule is soft: not filtered.
  Node soft = MakeNode("s");
  soft.spec.taints = {{"x", "", "PreferNoSchedule"}};
  EXPECT_TRUE(PodToleratesTaints(plain, soft));
}

TEST(PredicatesTest, UnschedulableAndNotReadyNodes) {
  Node cordoned = MakeNode("c");
  cordoned.spec.unschedulable = true;
  EXPECT_FALSE(NodeIsSchedulable(cordoned));
  Node dead = MakeNode("d");
  dead.status.conditions = {{api::kNodeReady, false, 1, ""}};
  EXPECT_FALSE(NodeIsSchedulable(dead));
  EXPECT_TRUE(NodeIsSchedulable(MakeNode("ok")));
}

TEST(PredicatesTest, AntiAffinityBothDirections) {
  Pod resident = MakePod("resident");
  resident.meta.labels["app"] = "db";
  NodeInfo info;
  info.node = N(MakeNode("n1"));
  info.pods = {P(resident)};

  // Incoming pod refuses nodes hosting app=db.
  Pod incoming = MakePod("in");
  api::PodAffinityTerm term;
  term.selector = api::LabelSelector::FromMap({{"app", "db"}});
  incoming.spec.required_anti_affinity.push_back(term);
  EXPECT_FALSE(PassesAntiAffinity(incoming, info));

  // Symmetric: resident's anti-affinity rejects the incoming pod.
  Pod guard = MakePod("guard");
  guard.spec.required_anti_affinity.push_back(term);
  NodeInfo info2;
  info2.node = N(MakeNode("n2"));
  info2.pods = {P(guard)};
  Pod labeled = MakePod("l");
  labeled.meta.labels["app"] = "db";
  EXPECT_FALSE(PassesAntiAffinity(labeled, info2));
  Pod unlabeled = MakePod("u");
  EXPECT_TRUE(PassesAntiAffinity(unlabeled, info2));
}

TEST(PredicatesTest, RequiredAffinity) {
  Pod incoming = MakePod("in");
  api::PodAffinityTerm term;
  term.selector = api::LabelSelector::FromMap({{"app", "cache"}});
  incoming.spec.required_affinity.push_back(term);
  NodeInfo empty;
  empty.node = N(MakeNode("n1"));
  EXPECT_FALSE(PassesAffinity(incoming, empty));
  Pod cache = MakePod("cache");
  cache.meta.labels["app"] = "cache";
  NodeInfo with;
  with.node = N(MakeNode("n2"));
  with.pods = {P(cache)};
  EXPECT_TRUE(PassesAffinity(incoming, with));
}

TEST(PredicatesTest, ScorePrefersEmptierNodes) {
  NodeInfo empty;
  empty.node = N(MakeNode("e", 1000, 1 << 20));
  NodeInfo busy;
  busy.node = N(MakeNode("b", 1000, 1 << 20));
  busy.requested = {800, (1 << 20) * 8 / 10};
  Pod pod = MakePod("p", 100, 1 << 10);
  EXPECT_GT(ScoreNode(pod, empty), ScoreNode(pod, busy));
}

// ------------------------------------------------------------- scheduler

struct SchedulerHarness {
  explicit SchedulerHarness(int nodes, CostModel cost = FastCost(),
                            Clock* clock = RealClock::Get())
      : server({}) {
    for (int i = 0; i < nodes; ++i) {
      EXPECT_TRUE(server.Create(MakeNode("node-" + std::to_string(i))).ok());
    }
    Scheduler::Options opts;
    opts.server = &server;
    opts.cost = cost;
    opts.clock = clock;
    sched = std::make_unique<Scheduler>(std::move(opts));
    sched->Start();
    EXPECT_TRUE(sched->WaitForSync(Seconds(5)));
  }

  static CostModel FastCost() {
    CostModel c;
    c.per_pod_base = Micros(50);
    c.per_node_filter = Micros(1);
    c.per_resident_pod = std::chrono::nanoseconds(0);
    return c;
  }

  Result<Pod> WaitScheduled(const std::string& name, Duration timeout = Seconds(5)) {
    Stopwatch sw(RealClock::Get());
    for (;;) {
      Result<Pod> p = server.Get<Pod>("default", name);
      if (p.ok() && !p->spec.node_name.empty()) return p;
      if (sw.Elapsed() > timeout) {
        return TimeoutError("pod " + name + " never scheduled");
      }
      RealClock::Get()->SleepFor(Millis(2));
    }
  }

  APIServer server;
  std::unique_ptr<Scheduler> sched;
};

TEST(SchedulerTest, BindsPendingPod) {
  SchedulerHarness h(3);
  ASSERT_TRUE(h.server.Create(MakePod("p0")).ok());
  Result<Pod> p = h.WaitScheduled("p0");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_TRUE(p->spec.node_name.rfind("node-", 0) == 0);
  const api::PodCondition* cond = p->status.FindCondition(api::kPodScheduled);
  ASSERT_NE(cond, nullptr);
  EXPECT_TRUE(cond->status);
  // scheduled() increments after the bind's status write becomes visible, so
  // give the worker a moment instead of asserting instantly.
  for (int i = 0; i < 500 && h.sched->scheduled() < 1; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_EQ(h.sched->scheduled(), 1u);
}

TEST(SchedulerTest, SpreadsByLeastAllocated) {
  SchedulerHarness h(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(h.server.Create(MakePod("p" + std::to_string(i), 500)).ok());
  }
  std::map<std::string, int> per_node;
  for (int i = 0; i < 10; ++i) {
    Result<Pod> p = h.WaitScheduled("p" + std::to_string(i));
    ASSERT_TRUE(p.ok());
    per_node[p->spec.node_name]++;
  }
  EXPECT_EQ(per_node.size(), 2u);
  for (auto& [node, count] : per_node) EXPECT_EQ(count, 5) << node;
}

TEST(SchedulerTest, RespectsCapacity) {
  SchedulerHarness h(1);
  // Node has 8000m; two 5000m pods cannot both fit.
  ASSERT_TRUE(h.server.Create(MakePod("big-0", 5000)).ok());
  ASSERT_TRUE(h.server.Create(MakePod("big-1", 5000)).ok());
  Result<Pod> first = h.WaitScheduled("big-0", Seconds(3));
  Result<Pod> second = h.WaitScheduled("big-1", Millis(500));
  // Exactly one fits.
  EXPECT_NE(first.ok(), second.ok());
  EXPECT_GE(h.sched->failed_attempts(), 1u);
}

TEST(SchedulerTest, UnschedulablePodRetriesWhenCapacityFrees) {
  SchedulerHarness h(1);
  ASSERT_TRUE(h.server.Create(MakePod("hog", 8000)).ok());
  ASSERT_TRUE(h.WaitScheduled("hog").ok());
  ASSERT_TRUE(h.server.Create(MakePod("waiter", 4000)).ok());
  RealClock::Get()->SleepFor(Millis(100));
  EXPECT_TRUE(h.server.Get<Pod>("default", "waiter")->spec.node_name.empty());
  // Free the node; the backoff retry should now succeed.
  ASSERT_TRUE(h.server.Delete<Pod>("default", "hog").ok());
  Result<Pod> p = h.WaitScheduled("waiter", Seconds(5));
  EXPECT_TRUE(p.ok()) << p.status();
}

TEST(SchedulerTest, HonoursNodeSelectorAndTaints) {
  SchedulerHarness h(0);
  Node ssd = MakeNode("ssd-0");
  ssd.meta.labels["disk"] = "ssd";
  ASSERT_TRUE(h.server.Create(ssd).ok());
  Node tainted = MakeNode("tainted-0");
  tainted.meta.labels["disk"] = "ssd";
  tainted.spec.taints = {{"dedicated", "x", "NoSchedule"}};
  ASSERT_TRUE(h.server.Create(tainted).ok());

  Pod pod = MakePod("picky");
  pod.spec.node_selector = {{"disk", "ssd"}};
  ASSERT_TRUE(h.server.Create(pod).ok());
  Result<Pod> p = h.WaitScheduled("picky");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->spec.node_name, "ssd-0");
}

TEST(SchedulerTest, AntiAffinitySpreadsAcrossNodes) {
  SchedulerHarness h(4);
  for (int i = 0; i < 4; ++i) {
    Pod p = MakePod("aa-" + std::to_string(i));
    p.meta.labels["group"] = "aa";
    api::PodAffinityTerm term;
    term.selector = api::LabelSelector::FromMap({{"group", "aa"}});
    p.spec.required_anti_affinity.push_back(term);
    ASSERT_TRUE(h.server.Create(p).ok());
  }
  std::set<std::string> nodes;
  for (int i = 0; i < 4; ++i) {
    Result<Pod> p = h.WaitScheduled("aa-" + std::to_string(i));
    ASSERT_TRUE(p.ok()) << p.status();
    nodes.insert(p->spec.node_name);
  }
  EXPECT_EQ(nodes.size(), 4u);  // one per node, none co-located
}

TEST(SchedulerTest, FifthAntiAffinePodStaysPending) {
  SchedulerHarness h(2);
  for (int i = 0; i < 3; ++i) {
    Pod p = MakePod("aa-" + std::to_string(i));
    p.meta.labels["group"] = "aa";
    api::PodAffinityTerm term;
    term.selector = api::LabelSelector::FromMap({{"group", "aa"}});
    p.spec.required_anti_affinity.push_back(term);
    ASSERT_TRUE(h.server.Create(p).ok());
  }
  // Two nodes → only two can run.
  int scheduled = 0;
  RealClock::Get()->SleepFor(Millis(300));
  for (int i = 0; i < 3; ++i) {
    Result<Pod> p = h.server.Get<Pod>("default", "aa-" + std::to_string(i));
    if (!p->spec.node_name.empty()) scheduled++;
  }
  EXPECT_EQ(scheduled, 2);
}

TEST(SchedulerTest, IgnoresForeignSchedulerName) {
  SchedulerHarness h(2);
  Pod p = MakePod("custom");
  p.spec.scheduler_name = "my-own-scheduler";
  ASSERT_TRUE(h.server.Create(p).ok());
  RealClock::Get()->SleepFor(Millis(200));
  EXPECT_TRUE(h.server.Get<Pod>("default", "custom")->spec.node_name.empty());
}

TEST(SchedulerTest, ThroughputRespectsCostModel) {
  CostModel cost;
  cost.per_pod_base = Millis(2);
  cost.per_node_filter = Duration::zero();
  cost.per_resident_pod = Duration::zero();
  SchedulerHarness h(2, cost);
  constexpr int kPods = 50;
  Stopwatch sw(RealClock::Get());
  for (int i = 0; i < kPods; ++i) {
    ASSERT_TRUE(h.server.Create(MakePod("p" + std::to_string(i), 1)).ok());
  }
  for (int i = 0; i < kPods; ++i) {
    ASSERT_TRUE(h.WaitScheduled("p" + std::to_string(i), Seconds(10)).ok());
  }
  // Sequential scheduling: 50 pods at >= 2ms each.
  EXPECT_GE(sw.Elapsed(), Millis(kPods * 2));
}

TEST(SchedulerTest, AssignedPodCacheTracksLifecycle) {
  SchedulerHarness h(2);
  ASSERT_TRUE(h.server.Create(MakePod("p0")).ok());
  ASSERT_TRUE(h.WaitScheduled("p0").ok());
  for (int i = 0; i < 500 && h.sched->assigned_pods() != 1; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_EQ(h.sched->assigned_pods(), 1u);
  ASSERT_TRUE(h.server.Delete<Pod>("default", "p0").ok());
  for (int i = 0; i < 500 && h.sched->assigned_pods() != 0; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_EQ(h.sched->assigned_pods(), 0u);
}

// A resident on `node` whose required anti-affinity repels app=web Pods.
Pod WebRepeller(const std::string& name, const std::string& node) {
  Pod p = MakePod(name);
  p.spec.node_name = node;
  api::PodAffinityTerm term;
  term.selector = api::LabelSelector::FromMap({{"app", "web"}});
  p.spec.required_anti_affinity.push_back(term);
  return p;
}

Pod WebPod(const std::string& name) {
  Pod p = MakePod(name);
  p.meta.labels["app"] = "web";
  return p;
}

bool WaitAssigned(const Scheduler& sched, size_t n) {
  for (int i = 0; i < 2500 && sched.assigned_pods() != n; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  return sched.assigned_pods() == n;
}

TEST(SchedulerTest, SymmetricAntiAffinityUsesResidentIndex) {
  SchedulerHarness h(2);
  ASSERT_TRUE(h.server.Create(WebRepeller("guard", "node-0")).ok());
  ASSERT_TRUE(WaitAssigned(*h.sched, 1));
  // Incoming pods carry no terms of their own; only the resident's terms
  // (symmetry) keep them off node-0, which least-allocated would prefer.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.server.Create(WebPod("web-" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 3; ++i) {
    Result<Pod> p = h.WaitScheduled("web-" + std::to_string(i));
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->spec.node_name, "node-1");
  }
}

TEST(SchedulerTest, ResidentStopsRepellingWhenTermsRemovedDeletedOrTerminal) {
  SchedulerHarness h(1);
  auto expect_pending_then_bound = [&](const std::string& name, auto release) {
    ASSERT_TRUE(h.server.Create(WebPod(name)).ok());
    RealClock::Get()->SleepFor(Millis(150));
    EXPECT_TRUE(h.server.Get<Pod>("default", name)->spec.node_name.empty()) << name;
    release();
    Result<Pod> p = h.WaitScheduled(name);
    EXPECT_TRUE(p.ok()) << name << ": " << p.status();
  };

  // Terms removed by an update.
  ASSERT_TRUE(h.server.Create(WebRepeller("guard-0", "node-0")).ok());
  ASSERT_TRUE(WaitAssigned(*h.sched, 1));
  expect_pending_then_bound("web-0", [&] {
    ASSERT_TRUE(apiserver::RetryUpdate<Pod>(h.server, "default", "guard-0", [](Pod& p) {
                  p.spec.required_anti_affinity.clear();
                  return true;
                }).ok());
  });

  // Resident deleted.
  ASSERT_TRUE(h.server.Create(WebRepeller("guard-1", "node-0")).ok());
  ASSERT_TRUE(WaitAssigned(*h.sched, 3));
  expect_pending_then_bound("web-1", [&] {
    ASSERT_TRUE(h.server.Delete<Pod>("default", "guard-1").ok());
  });

  // Resident terminal.
  ASSERT_TRUE(h.server.Create(WebRepeller("guard-2", "node-0")).ok());
  ASSERT_TRUE(WaitAssigned(*h.sched, 4));
  expect_pending_then_bound("web-2", [&] {
    ASSERT_TRUE(apiserver::RetryUpdateStatus<Pod>(h.server, "default", "guard-2", [](Pod& p) {
                  p.status.phase = api::PodPhase::kSucceeded;
                  return true;
                }).ok());
  });
}

CostModel ZeroCost() { return CostModel{Duration::zero(), Duration::zero(), Duration::zero()}; }

// Real time, except that reading the wall clock waits until the test opens
// the gate. The scheduler reads it only inside the bind, to stamp the
// PodScheduled condition on the informer copy it read at the start of the
// cycle, so a test can change the Pod between that read and the bind's CAS.
class CycleGate final : public Clock {
 public:
  TimePoint Now() const override { return RealClock::Get()->Now(); }
  void SleepFor(Duration d) override { RealClock::Get()->SleepFor(d); }

  int64_t WallUnixMillis() const override {
    BlockingRegion br;
    std::unique_lock<std::mutex> l(mu_);
    ++entered_;
    cv_.notify_all();
    // Bounded, so a failed test still lets the scheduler stop.
    cv_.wait_for(l, Seconds(10), [this] { return open_; });
    return RealClock::Get()->WallUnixMillis();
  }

  // Blocks until a cycle is waiting at the gate.
  bool WaitEntered() {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, Seconds(5), [this] { return entered_ > 0; });
  }

  // Lets the waiting cycle and every later one through.
  void Open() {
    std::lock_guard<std::mutex> l(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  bool open_ = false;
};

TEST(SchedulerTest, BindFromStaleInformerCopyDoesNotDoubleBind) {
  CycleGate gate;
  SchedulerHarness h(2, ZeroCost(), &gate);
  ASSERT_TRUE(h.server.Create(MakePod("contested")).ok());
  // The scheduler holds its pending informer copy at the gate; another writer
  // binds the pod meanwhile, so the bind's CAS conflicts.
  ASSERT_TRUE(gate.WaitEntered());
  ASSERT_TRUE(apiserver::RetryUpdate<Pod>(h.server, "default", "contested", [](Pod& p) {
                p.spec.node_name = "node-1";
                return true;
              }).ok());
  gate.Open();
  // Scheduling is sequential: once the next pod binds, the contested cycle
  // has finished.
  ASSERT_TRUE(h.server.Create(MakePod("after")).ok());
  ASSERT_TRUE(h.WaitScheduled("after").ok());

  EXPECT_EQ(h.server.stats().conflicts.load(), 1u);  // the stale CAS
  EXPECT_EQ(h.server.Get<Pod>("default", "contested")->spec.node_name, "node-1");
  EXPECT_TRUE(WaitAssigned(*h.sched, 2));
  EXPECT_EQ(h.sched->assigned_pods(), 2u);  // no phantom assumed placement
  for (int i = 0; i < 500 && h.sched->scheduled() < 1; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_EQ(h.sched->scheduled(), 1u);  // only "after"
}

TEST(SchedulerTest, BindAfterTermsRemovedDoesNotAssumeStaleTerms) {
  CycleGate gate;
  SchedulerHarness h(1, ZeroCost(), &gate);
  Pod shy = WebRepeller("shy", "");
  ASSERT_TRUE(h.server.Create(shy).ok());
  // The scheduler holds its informer copy, with terms, at the gate; the terms
  // are removed meanwhile, so the bind conflicts and binds the live object.
  ASSERT_TRUE(gate.WaitEntered());
  ASSERT_TRUE(apiserver::RetryUpdate<Pod>(h.server, "default", "shy", [](Pod& p) {
                p.spec.required_anti_affinity.clear();
                return true;
              }).ok());
  gate.Open();
  Result<Pod> bound = h.WaitScheduled("shy");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_TRUE(bound->spec.required_anti_affinity.empty());
  EXPECT_GE(h.server.stats().conflicts.load(), 1u);  // bound by the fallback

  // node-0 is the only node: it must not repel app=web Pods on terms the
  // bound Pod no longer carries.
  ASSERT_TRUE(h.server.Create(WebPod("web")).ok());
  Result<Pod> web = h.WaitScheduled("web");
  EXPECT_TRUE(web.ok()) << web.status();
}

// Scheduling cycles started since construction, counted from the reconciler
// runtime's dequeue records (tests run traced), so the count outlives the
// scheduler.
class CycleCount {
 public:
  CycleCount() { trace::Reset(); }

  int operator()() {
    for (const trace::TraceRecord& r : trace::Drain().records) {
      if (r.component == trace::Component::kReconciler && r.verb == trace::Verb::kDequeue &&
          r.arg == Fnv1a64("scheduler")) {
        ++n_;
      }
    }
    return n_;
  }

  // Waits for the n-th cycle to start, then for it and whatever it armed to
  // finish.
  bool Wait(Clock* clock, int n) {
    for (int i = 0; i < 2500 && (*this)() < n; ++i) RealClock::Get()->SleepFor(Millis(2));
    Settle(clock);
    return (*this)() == n;
  }

 private:
  int n_ = 0;
};

// A Pod that is backing off after an unschedulable cycle and then gets an
// informer event runs once for the event; the delay armed by the first cycle
// must not run it a second time when it fires.
TEST(SchedulerTest, EventDuringBackoffRunsOneAttempt) {
  ManualClock clock;
  CycleCount cycles;
  SchedulerHarness h(1, ZeroCost(), &clock);
  ASSERT_TRUE(h.server.Create(MakePod("big", 9000)).ok());  // the node has 8000m
  ASSERT_TRUE(cycles.Wait(&clock, 1));  // unschedulable; retry due at +10 ms

  ASSERT_TRUE(apiserver::RetryUpdate<Pod>(h.server, "default", "big", [](Pod& p) {
                p.meta.labels["touched"] = "1";
                return true;
              }).ok());
  ASSERT_TRUE(cycles.Wait(&clock, 2));  // the event's attempt; next retry at +20 ms

  AdvanceAndSettle(&clock, Millis(15));  // past the first cycle's delay only
  EXPECT_EQ(cycles(), 2) << "the superseded delay ran the Pod again";

  AdvanceAndSettle(&clock, Millis(10));  // past the second cycle's delay
  EXPECT_EQ(cycles(), 3);
  EXPECT_EQ(h.sched->failed_attempts(), 3u);
}

// Destroying the scheduler with an unschedulable Pod's retry armed cancels
// it, and the delay an informer event superseded too: nothing runs after
// destruction (ASan/TSan via the concurrency label).
TEST(SchedulerTest, DestroyWithRetryArmedRunsNothingAfter) {
  ManualClock clock;
  CycleCount cycles;
  // Held past the scheduler, so its timers could still fire into it.
  std::shared_ptr<Executor> exec = Executor::SharedFor(&clock);
  SchedulerHarness h(1, ZeroCost(), &clock);
  ASSERT_TRUE(h.server.Create(MakePod("big", 9000)).ok());
  ASSERT_TRUE(cycles.Wait(&clock, 1));  // retry due at +10 ms
  ASSERT_TRUE(apiserver::RetryUpdate<Pod>(h.server, "default", "big", [](Pod& p) {
                p.meta.labels["touched"] = "1";
                return true;
              }).ok());
  ASSERT_TRUE(cycles.Wait(&clock, 2));  // the +10 ms delay is superseded; retry at +20 ms
  h.sched.reset();
  AdvanceAndSettle(&clock, Millis(50));  // past both delays
  EXPECT_EQ(cycles(), 2);
}

}  // namespace
}  // namespace vc::scheduler
