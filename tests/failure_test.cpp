// Failure-injection tests: node death propagating to tenant vNodes, control
// plane restarts mid-flight, watch-buffer overflows, and tenant rate limits.
#include <gtest/gtest.h>

#include "vc/deployment.h"

namespace vc::core {
namespace {

api::Pod BasicPod(const std::string& ns, const std::string& name) {
  api::Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  p.spec.containers.push_back(c);
  return p;
}

template <typename Pred>
bool Eventually(Pred pred, int timeout_ms = 15000) {
  for (int i = 0; i < timeout_ms / 2; ++i) {
    if (pred()) return true;
    RealClock::Get()->SleepFor(Millis(2));
  }
  return false;
}

VcDeployment::Options FailureOptions() {
  VcDeployment::Options o;
  o.super.num_nodes = 2;
  o.super.sched_cost.per_pod_base = Micros(100);
  o.super.sched_cost.per_node_filter = Micros(1);
  o.super.sched_cost.per_resident_pod = std::chrono::nanoseconds(0);
  o.super.kubelet_heartbeat = Millis(150);
  o.super.node_tuning.check_interval = Millis(100);
  o.super.node_tuning.heartbeat_grace = Millis(600);
  o.super.node_tuning.eviction_delay = Millis(500);
  o.downward_op_cost = Micros(100);
  o.upward_op_cost = Micros(100);
  o.heartbeat_broadcast_period = Millis(200);
  o.periodic_scan = false;
  o.local_provision_delay = Millis(1);
  return o;
}

// A dead node's NotReady condition must reach the tenant's vNode via the
// syncer's heartbeat broadcast; the super cluster evicts the pod and the
// tenant sees its pod disappear from that node.
TEST(FailureTest, NodeDeathPropagatesToVNode) {
  VcDeployment deploy(FailureOptions());
  ASSERT_TRUE(deploy.Start().ok());
  ASSERT_TRUE(deploy.WaitForSync(Seconds(10)));
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  Result<api::Pod> ready = client.WaitPodReady("default", "web-0", Seconds(15));
  ASSERT_TRUE(ready.ok());
  const std::string node = ready->spec.node_name;

  // Kill the kubelet hosting the pod (heartbeats stop).
  for (const auto& kl : deploy.super().fleet().kubelets()) {
    if (kl->node_name() == node) kl->Stop();
  }

  // Super cluster notices and marks NotReady.
  ASSERT_TRUE(Eventually([&] {
    Result<api::Node> n = deploy.super().server().Get<api::Node>("", node);
    return n.ok() && !n->status.Ready();
  })) << "super node never went NotReady";

  // The broadcast mirrors it onto the tenant's vNode.
  ASSERT_TRUE(Eventually([&] {
    Result<api::Node> vn = client.Get<api::Node>("", node);
    return vn.ok() && !vn->status.Ready();
  })) << "vNode never went NotReady in the tenant view";

  deploy.Stop();
}

// Tenant control plane restart: its watches break; the syncer's tenant
// informers relist and syncing continues.
TEST(FailureTest, TenantApiserverRestartRecovered) {
  VcDeployment deploy(FailureOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "before")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "before", Seconds(15)).ok());

  (*tcp)->server().Restart();

  ASSERT_TRUE(client.Create(BasicPod("default", "after")).ok());
  Result<api::Pod> ready = client.WaitPodReady("default", "after", Seconds(20));
  EXPECT_TRUE(ready.ok()) << ready.status();
  deploy.Stop();
}

// Restarting BOTH control planes mid-burst: everything still converges.
TEST(FailureTest, DoubleRestartDuringBurst) {
  VcDeployment deploy(FailureOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Create(BasicPod("default", "burst-" + std::to_string(i))).ok());
  }
  deploy.super().server().Restart();
  (*tcp)->server().Restart();
  for (int i = 20; i < 30; ++i) {
    ASSERT_TRUE(client.Create(BasicPod("default", "burst-" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 30; ++i) {
    Result<api::Pod> ready =
        client.WaitPodReady("default", "burst-" + std::to_string(i), Seconds(30));
    EXPECT_TRUE(ready.ok()) << "burst-" << i << ": " << ready.status();
  }
  deploy.Stop();
}

// A tenant with aggressive rate limits gets 429s on its own control plane;
// other tenants and the super cluster never see the traffic at all.
TEST(FailureTest, TenantRateLimitConfinedToTenant) {
  VcDeployment::Options opts = FailureOptions();
  VcDeployment deploy(std::move(opts));
  ASSERT_TRUE(deploy.Start().ok());

  // Create the VC with a tight rate limit spec.
  VirtualClusterObj vc;
  vc.meta.ns = "default";
  vc.meta.name = "limited";
  vc.client_qps = 20;
  vc.client_burst = 5;
  ASSERT_TRUE(deploy.super().server().Create(vc).ok());
  ASSERT_TRUE(deploy.tenant_operator().WaitForRunning("default", "limited", Seconds(15)));
  auto tcp = deploy.Tenant("limited");
  ASSERT_NE(tcp, nullptr);
  TenantClient client(tcp.get());

  uint64_t super_lists_before = deploy.super().server().stats().lists.load();
  int limited = 0;
  for (int i = 0; i < 50; ++i) {
    if (client.List<api::Pod>("default").status().IsTooManyRequests()) limited++;
  }
  EXPECT_GT(limited, 0) << "tenant rate limit never engaged";
  // The syncer's loopback access is NOT rate limited — pods still work.
  ASSERT_TRUE(Eventually([&] {
    Result<api::Pod> r = client.Create(BasicPod("default", "still-works"));
    return r.ok() || r.status().IsAlreadyExists();
  }));
  Result<api::Pod> ready = client.WaitPodReady("default", "still-works", Seconds(30));
  EXPECT_TRUE(ready.ok()) << ready.status();
  // The flood stayed on the tenant control plane: super saw no extra Lists
  // beyond its own components' steady state.
  uint64_t super_lists_after = deploy.super().server().stats().lists.load();
  EXPECT_LT(super_lists_after - super_lists_before, 40u);
  deploy.Stop();
}

// Watch-buffer overflow: a tiny watch buffer on the super store forces Gone
// mid-burst; informers relist and the system still converges.
TEST(FailureTest, WatchOverflowRecovery) {
  kv::KvStore store;
  auto slow = *store.Watch("/registry/", 0, /*buffer_capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    store.Put("/registry/Pod/default/p" + std::to_string(i), "v");
  }
  // Every event is offered to the watcher before it reads one, so the reads
  // below cannot keep pace with the dispatch strand and dodge the overflow.
  store.FlushWatchDispatch();
  // The slow watcher is poisoned...
  Status st;
  for (int i = 0; i < 20; ++i) {
    Result<kv::Event> e = slow->Next(Millis(5));
    if (!e.ok() && !(e.status().code() == Code::kTimeout)) {
      st = e.status();
      break;
    }
  }
  EXPECT_TRUE(st.IsGone());
  // ...but a fresh list+watch recovers the full state.
  kv::ListResult snapshot = store.List("/registry/");
  EXPECT_EQ(snapshot.entries.size(), 100u);
  EXPECT_TRUE(store.Watch("/registry/", snapshot.revision).ok());
}

}  // namespace
}  // namespace vc::core
