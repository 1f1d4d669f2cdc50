// Syncer-focused unit and integration tests: namespace mapping, conversions,
// vNode bookkeeping, fairness integration, race/failure injection, restart
// behaviour, and the periodic scan.
#include <gtest/gtest.h>

#include <set>

#include "common/executor.h"
#include "own_pool_tenant.h"
#include "vc/deployment.h"

namespace vc::core {
namespace {

// ---------------------------------------------------------------- mapping

TEST(TenantMappingTest, PrefixFormatMatchesPaper) {
  // "the concatenation of the owner VC's object name and a short hash of the
  // object's UID" (§III-B (2)).
  TenantMapping m = TenantMapping::ForVc("acme", "uid-123");
  EXPECT_EQ(m.ns_prefix, "acme-" + ShortHash("uid-123"));
  EXPECT_EQ(m.SuperNamespace("default"), m.ns_prefix + "-default");
}

TEST(TenantMappingTest, InverseMapping) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-123");
  std::optional<std::string> back = m.TenantNamespace(m.SuperNamespace("prod"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "prod");
  EXPECT_FALSE(m.TenantNamespace("unrelated-ns").has_value());
  TenantMapping other = TenantMapping::ForVc("acme", "different-uid");
  EXPECT_FALSE(other.TenantNamespace(m.SuperNamespace("prod")).has_value());
}

TEST(TenantMappingTest, DistinctTenantsNeverCollide) {
  // Same namespace names across tenants map to distinct super namespaces.
  TenantMapping a = TenantMapping::ForVc("team", "uid-a");
  TenantMapping b = TenantMapping::ForVc("team", "uid-b");  // same VC name!
  EXPECT_NE(a.SuperNamespace("default"), b.SuperNamespace("default"));
}

// -------------------------------------------------------------- conversion

api::Pod TenantPod() {
  api::Pod p;
  p.meta.ns = "prod";
  p.meta.name = "web-0";
  p.meta.uid = "tenant-uid";
  p.meta.resource_version = 42;
  p.meta.finalizers = {"tenant.example.com/hook"};
  p.meta.owner_references = {{"ReplicaSet", "web", "rs-uid", true}};
  p.meta.labels = {{"app", "web"}};
  api::Container c;
  c.name = "app";
  c.image = "nginx";
  p.spec.containers.push_back(c);
  p.spec.node_name = "stale-node";
  p.status.phase = api::PodPhase::kRunning;
  return p;
}

TEST(ConversionTest, ToSuperRewritesIdentity) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod shadow = ToSuper(m, TenantPod());
  EXPECT_EQ(shadow.meta.ns, m.SuperNamespace("prod"));
  EXPECT_EQ(shadow.meta.name, "web-0");
  EXPECT_TRUE(shadow.meta.uid.empty());
  EXPECT_EQ(shadow.meta.resource_version, 0);
  // Tenant-side controller relationships must not leak.
  EXPECT_TRUE(shadow.meta.finalizers.empty());
  EXPECT_TRUE(shadow.meta.owner_references.empty());
  // Super cluster owns scheduling and status.
  EXPECT_TRUE(shadow.spec.node_name.empty());
  EXPECT_EQ(shadow.status.phase, api::PodPhase::kPending);
  // Origin annotations present.
  EXPECT_EQ(shadow.meta.annotations.at(kTenantAnnotation), "acme");
  EXPECT_EQ(shadow.meta.annotations.at(kOriginNamespaceAnnotation), "prod");
  EXPECT_EQ(shadow.meta.annotations.at(kOriginUidAnnotation), "tenant-uid");
  // Labels preserved (they drive services/affinity in the super cluster).
  EXPECT_EQ(shadow.meta.labels.at("app"), "web");
}

TEST(ConversionTest, NamespaceNameIsMapped) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::NamespaceObj tenant_ns;
  tenant_ns.meta.name = "prod";
  tenant_ns.meta.uid = "ns-uid";
  api::NamespaceObj shadow = ToSuper(m, tenant_ns);
  EXPECT_EQ(shadow.meta.name, m.SuperNamespace("prod"));
  EXPECT_TRUE(shadow.meta.ns.empty());
  EXPECT_EQ(shadow.meta.annotations.at(kOriginNamespaceAnnotation), "prod");
}

TEST(ConversionTest, FingerprintIgnoresVolatileAndSuperOwnedFields) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod tenant_pod = TenantPod();
  api::Pod shadow = ToSuper(m, tenant_pod);
  // Simulate super-side mutations the downward path must NOT fight:
  api::Pod mutated = shadow;
  mutated.meta.uid = "super-uid";
  mutated.meta.resource_version = 999;
  mutated.spec.node_name = "node-7";
  mutated.status.phase = api::PodPhase::kRunning;
  mutated.status.pod_ip = "10.32.0.5";
  EXPECT_EQ(DownwardNormalized(shadow), DownwardNormalized(mutated));
  // But a real spec change is detected.
  api::Pod drifted = mutated;
  drifted.spec.containers[0].image = "nginx:v2";
  EXPECT_NE(DownwardNormalized(shadow), DownwardNormalized(drifted));
  // And a label change too.
  api::Pod relabeled = mutated;
  relabeled.meta.labels["app"] = "canary";
  EXPECT_NE(DownwardNormalized(shadow), DownwardNormalized(relabeled));
}

TEST(ConversionTest, SyncerAnnotationsNeverFeedBack) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod tenant_pod = TenantPod();
  api::Pod shadow = ToSuper(m, tenant_pod);
  // The upward path stamps the tenant pod; the downward fingerprint must not
  // see that as drift (otherwise: infinite sync loop).
  api::Pod stamped = tenant_pod;
  stamped.meta.annotations[kReadyAtAnnotation] = "12345";
  EXPECT_EQ(DownwardNormalized(ToSuper(m, stamped)), DownwardNormalized(shadow));
}

TEST(ConversionTest, OriginRoundTrip) {
  TenantMapping m = TenantMapping::ForVc("acme", "uid-1");
  api::Pod shadow = ToSuper(m, TenantPod());
  std::optional<Origin> origin = OriginOf(shadow);
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(origin->tenant_id, "acme");
  EXPECT_EQ(origin->tenant_ns, "prod");
  EXPECT_EQ(origin->tenant_uid, "tenant-uid");
  api::Pod foreign;
  foreign.meta.ns = "default";
  foreign.meta.name = "not-ours";
  EXPECT_FALSE(OriginOf(foreign).has_value());
}

// The downward handler's predicate: the syncer's own upward write (nodeName,
// status, the ready-at stamp) is an echo; a label change, a deletion and a
// uid swapped under the same name are not.
TEST(ConversionTest, DownwardChangedSkipsUpwardEchoes) {
  api::Pod before = TenantPod();
  before.spec.node_name.clear();
  before.status = api::PodStatus{};
  api::Pod upward = before;
  upward.meta.resource_version = 43;
  upward.spec.node_name = "node-1";
  upward.status.phase = api::PodPhase::kRunning;
  upward.status.SetCondition(api::kPodReady, true, 1);
  upward.meta.annotations[kReadyAtAnnotation] = "12345";
  EXPECT_FALSE(DownwardChanged(before, upward));

  api::Pod relabeled = upward;
  relabeled.meta.labels["tier"] = "gold";
  EXPECT_TRUE(DownwardChanged(upward, relabeled));
  api::Pod deleting = upward;
  deleting.meta.deletion_timestamp_ms = 1;
  EXPECT_TRUE(DownwardChanged(upward, deleting));
  // A relist reports a recreated object as an update; only its uid tells.
  api::Pod recreated = before;
  recreated.meta.uid = "recreated-uid";
  EXPECT_EQ(DownwardNormalized(before), DownwardNormalized(recreated));
  EXPECT_TRUE(DownwardChanged(before, recreated));
}

// The upward re-trigger's predicate: a tenant Pod lags its shadow when the
// status differs, or when the shadow is bound elsewhere.
TEST(ConversionTest, LagsShadowComparesSuperOwnedFields) {
  api::Pod tenant = TenantPod();
  api::Pod shadow = ToSuper(TenantMapping::ForVc("acme", "uid-1"), tenant);
  shadow.status = tenant.status;
  EXPECT_FALSE(LagsShadow(tenant, shadow));  // an unbound shadow names no node
  shadow.spec.node_name = "node-1";
  EXPECT_TRUE(LagsShadow(tenant, shadow));
  tenant.spec.node_name = "node-1";
  EXPECT_FALSE(LagsShadow(tenant, shadow));
  shadow.status.message = "evicted";
  EXPECT_TRUE(LagsShadow(tenant, shadow));
}

// ------------------------------------------------------------ vNode manager

TEST(VNodeManagerTest, BindUnbindLifecycle) {
  VNodeManager vm;
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p0"), VNodeManager::BindResult::kNewVNode);
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p1"), VNodeManager::BindResult::kBound);
  EXPECT_EQ(vm.Bind("t1", "node-1", "default/p1"),
            VNodeManager::BindResult::kAlreadyBound);
  EXPECT_TRUE(vm.HasVNode("t1", "node-1"));
  EXPECT_EQ(vm.PodsOn("t1", "node-1"), 2u);
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p0"), VNodeManager::UnbindResult::kUnbound);
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p1"),
            VNodeManager::UnbindResult::kVNodeEmpty);
  EXPECT_FALSE(vm.HasVNode("t1", "node-1"));
  EXPECT_EQ(vm.Unbind("t1", "node-1", "default/p1"),
            VNodeManager::UnbindResult::kNotBound);
}

TEST(VNodeManagerTest, TenantsAreIndependent) {
  VNodeManager vm;
  vm.Bind("t1", "node-1", "a/p");
  vm.Bind("t2", "node-1", "a/p");
  EXPECT_EQ(vm.VNodeCount(), 2u);  // same physical node, two tenants
  EXPECT_EQ(vm.NodesOf("t1"), std::vector<std::string>{"node-1"});
  vm.ForgetTenant("t1");
  EXPECT_FALSE(vm.HasVNode("t1", "node-1"));
  EXPECT_TRUE(vm.HasVNode("t2", "node-1"));
}

// The last-written vNode copy lives only as long as the binding: SetWritten
// on an unbound vNode records nothing, and Unbind to empty or ForgetTenant
// drops the copy, so the heartbeat state stays bounded by the bound vNodes.
TEST(VNodeManagerTest, WrittenCopyLivesWithTheBinding) {
  VNodeManager vm;
  api::Node vn;
  vn.meta.name = "node-1";
  vm.SetWritten("t1", "node-1", vn);
  EXPECT_FALSE(vm.Written("t1", "node-1").has_value());  // not bound
  vm.Bind("t1", "node-1", "a/p");
  vm.Bind("t2", "node-1", "a/p");
  vm.SetWritten("t1", "node-1", vn);
  vm.SetWritten("t2", "node-1", vn);
  ASSERT_TRUE(vm.Written("t1", "node-1").has_value());
  EXPECT_EQ(vm.Written("t1", "node-1")->meta.name, "node-1");
  vm.SetWritten("t1", "node-1", std::nullopt);
  EXPECT_FALSE(vm.Written("t1", "node-1").has_value());
  vm.SetWritten("t1", "node-1", vn);
  EXPECT_EQ(vm.Unbind("t1", "node-1", "a/p"), VNodeManager::UnbindResult::kVNodeEmpty);
  vm.Bind("t1", "node-1", "a/q");
  EXPECT_FALSE(vm.Written("t1", "node-1").has_value());  // a new vNode
  vm.ForgetTenant("t2");
  vm.Bind("t2", "node-1", "a/p");
  EXPECT_FALSE(vm.Written("t2", "node-1").has_value());
}

// ------------------------------------------------------- syncer integration

VcDeployment::Options FastOptions() {
  VcDeployment::Options o;
  o.super.num_nodes = 2;
  o.super.sched_cost.per_pod_base = Micros(100);
  o.super.sched_cost.per_node_filter = Micros(1);
  o.super.sched_cost.per_resident_pod = std::chrono::nanoseconds(0);
  o.downward_op_cost = Micros(100);
  o.upward_op_cost = Micros(100);
  o.periodic_scan = false;
  o.local_provision_delay = Millis(1);
  return o;
}

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
bool Eventually(Pred pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms / 2; ++i) {
    if (pred()) return true;
    RealClock::Get()->SleepFor(Millis(2));
  }
  return false;
}

TEST(SyncerIntegrationTest, NoFeedbackLoopAfterConvergence) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  ASSERT_TRUE(deploy.WaitForSync(Seconds(10)));
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Let the system settle, then verify mutation counters stop moving — the
  // steady state must be write-free (no downward/upward ping-pong).
  RealClock::Get()->SleepFor(Millis(400));
  SyncerMetrics& m = deploy.syncer().metrics();
  uint64_t down = m.downward_creates + m.downward_updates + m.downward_deletes;
  uint64_t up = m.upward_updates.load();
  RealClock::Get()->SleepFor(Millis(400));
  EXPECT_EQ(down, m.downward_creates + m.downward_updates + m.downward_deletes);
  EXPECT_EQ(up, m.upward_updates.load());
  deploy.Stop();
}

TEST(SyncerIntegrationTest, TenantSpecUpdatePropagatesDownward) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Tenant relabels the pod; the shadow must follow.
  ASSERT_TRUE(apiserver::RetryUpdate<api::Pod>((*tcp)->server(), "default", "web-0",
                                               [](api::Pod& p) {
                                                 p.meta.labels["tier"] = "gold";
                                                 return true;
                                               })
                  .ok());
  TenantMapping map = deploy.syncer().MappingOf("acme");
  for (int i = 0; i < 3000; ++i) {
    Result<api::Pod> shadow =
        deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    if (shadow.ok() && shadow->meta.labels.count("tier")) {
      EXPECT_EQ(shadow->meta.labels.at("tier"), "gold");
      // The super-owned fields survived the downward update.
      EXPECT_FALSE(shadow->spec.node_name.empty());
      EXPECT_TRUE(shadow->status.Ready());
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "label change never propagated to the shadow";
}

TEST(SyncerIntegrationTest, RaceDeleteDuringCreationIsTolerated) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  // Create and delete pods in quick succession to provoke the §III-C races
  // (update/delete events for objects already gone).
  for (int i = 0; i < 30; ++i) {
    std::string name = "flash-" + std::to_string(i);
    ASSERT_TRUE(client.Create(BasicPod("default", name)).ok());
    if (i % 2 == 0) {
      (void)client.Delete<api::Pod>("default", name);
    }
  }
  // Everything must converge: every surviving tenant pod ready, every
  // deleted pod's shadow gone.
  for (int i = 1; i < 30; i += 2) {
    Result<api::Pod> ready =
        client.WaitPodReady("default", "flash-" + std::to_string(i), Seconds(20));
    EXPECT_TRUE(ready.ok()) << "flash-" << i << ": " << ready.status();
  }
  TenantMapping map = deploy.syncer().MappingOf("acme");
  for (int i = 0; i < 30; i += 2) {
    std::string name = "flash-" + std::to_string(i);
    for (int tries = 0; tries < 5000; ++tries) {
      if (deploy.super()
              .server()
              .Get<api::Pod>(map.SuperNamespace("default"), name)
              .status()
              .IsNotFound()) {
        break;
      }
      RealClock::Get()->SleepFor(Millis(2));
    }
    EXPECT_TRUE(deploy.super()
                    .server()
                    .Get<api::Pod>(map.SuperNamespace("default"), name)
                    .status()
                    .IsNotFound())
        << name << " shadow leaked";
  }
  deploy.Stop();
}

TEST(SyncerIntegrationTest, ScanRepairsTamperedShadow) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  // Tamper with the shadow's labels directly in the super cluster.
  TenantMapping map = deploy.syncer().MappingOf("acme");
  ASSERT_TRUE(apiserver::RetryUpdate<api::Pod>(
                  deploy.super().server(), map.SuperNamespace("default"), "web-0",
                  [](api::Pod& p) {
                    p.meta.labels["tampered"] = "true";
                    return true;
                  })
                  .ok());
  // The scan compares against the super informer's cache, so it can only see
  // the tampering once the informer has observed the update — unbounded under
  // sanitizers. Re-scan until a round resends instead of sleeping a fixed
  // interval (the event-driven upward path may also have repaired it already).
  bool drift_detected = false;
  for (int i = 0; i < 500 && !drift_detected; ++i) {
    Syncer::ScanRound round = deploy.syncer().ScanAllTenants();
    drift_detected = round.resent >= 1;
    if (!drift_detected) {
      Result<api::Pod> shadow = deploy.super().server().Get<api::Pod>(
          map.SuperNamespace("default"), "web-0");
      if (shadow.ok() && !shadow->meta.labels.count("tampered")) break;
      RealClock::Get()->SleepFor(Millis(10));
    }
  }
  for (int i = 0; i < 3000; ++i) {
    Result<api::Pod> shadow =
        deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    if (shadow.ok() && !shadow->meta.labels.count("tampered")) {
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "scan did not repair the tampered shadow";
}

// Upward sync decides "no change" on the tenant informer's copy, so a tenant
// status write from anyone but the syncer must itself re-trigger the upward
// reconcile: with the periodic scan off, nothing else would revert it.
TEST(SyncerIntegrationTest, ForeignTenantStatusWriteIsRevertedWithoutScan) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  ASSERT_TRUE(apiserver::RetryUpdateStatus<api::Pod>((*tcp)->server(), "default", "web-0",
                                                     [](api::Pod& p) {
                                                       p.status.message = "foreign";
                                                       return true;
                                                     })
                  .ok());
  TenantMapping map = deploy.syncer().MappingOf("acme");
  Result<api::Pod> shadow =
      deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
  ASSERT_TRUE(shadow.ok());
  for (int i = 0; i < 3000; ++i) {
    Result<api::Pod> tp = (*tcp)->server().Get<api::Pod>("default", "web-0");
    if (tp.ok() && tp->status == shadow->status) {
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "foreign tenant status write was never reverted to the shadow's";
}

TEST(SyncerIntegrationTest, ScanReapsOrphanShadows) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "real")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "real", Seconds(15)).ok());

  // Plant an orphan shadow (as if a tenant delete event was lost forever).
  TenantMapping map = deploy.syncer().MappingOf("acme");
  api::Pod orphan = BasicPod(map.SuperNamespace("default"), "orphan");
  orphan.meta.annotations[kTenantAnnotation] = "acme";
  orphan.meta.annotations[kOriginNamespaceAnnotation] = "default";
  orphan.meta.annotations[kOriginUidAnnotation] = "ghost-uid";
  // A syncer-created shadow always carries the tenant label (ToSuper stamps
  // it); without it the label-selected super reflector can't see the orphan.
  orphan.meta.labels[kTenantLabel] = "acme";
  ASSERT_TRUE(deploy.super().server().Create(orphan).ok());
  RealClock::Get()->SleepFor(Millis(100));

  Syncer::ScanRound round = deploy.syncer().ScanAllTenants();
  EXPECT_GE(round.resent, 1u);
  for (int i = 0; i < 3000; ++i) {
    if (deploy.super()
            .server()
            .Get<api::Pod>(map.SuperNamespace("default"), "orphan")
            .status()
            .IsNotFound()) {
      deploy.Stop();
      return;
    }
    RealClock::Get()->SleepFor(Millis(2));
  }
  deploy.Stop();
  FAIL() << "orphan shadow survived the scan";
}

TEST(SyncerIntegrationTest, CacheAccountingSeesBothCopies) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  size_t before = deploy.syncer().InformerCacheObjects();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Create(BasicPod("default", "p" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.WaitPodReady("default", "p" + std::to_string(i), Seconds(20)).ok());
  }
  RealClock::Get()->SleepFor(Millis(200));
  size_t after = deploy.syncer().InformerCacheObjects();
  // Each pod is cached at least twice: tenant informer + super informer
  // (paper §IV-C memory analysis).
  EXPECT_GE(after - before, 20u);
  EXPECT_GT(deploy.syncer().InformerCacheBytes(), 0u);
  EXPECT_GT(ToSeconds(deploy.syncer().WorkerCpuTime()), 0.0);
  deploy.Stop();
}

TEST(SyncerIntegrationTest, DetachStopsSyncing) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "before")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "before", Seconds(15)).ok());

  deploy.syncer().DetachTenant("acme");
  ASSERT_TRUE(client.Create(BasicPod("default", "after")).ok());
  RealClock::Get()->SleepFor(Millis(300));
  TenantMapping map = TenantMapping{};  // detached: mapping gone
  EXPECT_TRUE(deploy.syncer().MappingOf("acme").tenant_id.empty());
  // The new pod must NOT appear in the super cluster.
  Result<apiserver::TypedList<api::Pod>> supers = deploy.super().server().List<api::Pod>();
  for (const api::Pod& p : supers->items) {
    EXPECT_NE(p.meta.name, "after");
  }
  (void)map;
  deploy.Stop();
}

// A tenant Pod deleted and recreated under the same name while the syncer
// missed the delete (tenant detached) must get a fresh shadow: the old one
// carries the old uid, which the upward path refuses forever.
TEST(SyncerIntegrationTest, RecreatedTenantPodGetsFreshShadow) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("acme");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());
  ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());

  Result<VirtualClusterObj> vc =
      deploy.super().server().Get<VirtualClusterObj>("default", "acme");
  ASSERT_TRUE(vc.ok());
  deploy.syncer().DetachTenant("acme");
  ASSERT_TRUE(client.Delete<api::Pod>("default", "web-0").ok());
  Result<api::Pod> recreated = client.Create(BasicPod("default", "web-0"));
  ASSERT_TRUE(recreated.ok());
  deploy.syncer().AttachTenant(*vc, tcp->get());

  ASSERT_TRUE(client.WaitPodReady("default", "web-0", Seconds(15)).ok());
  TenantMapping map = deploy.syncer().MappingOf("acme");
  Result<api::Pod> shadow =
      deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
  ASSERT_TRUE(shadow.ok());
  EXPECT_EQ(shadow->meta.annotations[kOriginUidAnnotation], recreated->meta.uid);
  deploy.Stop();
}

// The syncer's own upward writes (bind, then Ready) reach its tenant
// informer as updates that change no downward-owned field, so they add no
// downward reconcile.
TEST(SyncerIntegrationTest, UpwardWritesAddNoDownwardReconcile) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  OwnPoolTenant tenant(deploy, "acme");
  ASSERT_TRUE(deploy.WaitForSync(Seconds(10)));
  auto ready = [&](const std::string& name) {
    std::optional<api::Pod> p = tenant.Find<api::Pod>("default", name);
    return p && p->status.Ready();
  };
  // A first Pod settles the namespace shadow.
  ASSERT_TRUE(tenant.server().Create(BasicPod("default", "warm")).ok());
  ASSERT_TRUE(Eventually([&] { return ready("warm"); }));
  RealClock::Get()->SleepFor(Millis(100));

  SyncerMetrics& m = deploy.syncer().metrics();
  const uint64_t noops = m.downward_noops.load();
  const uint64_t creates = m.downward_creates.load();
  const uint64_t ups = m.upward_updates.load();
  constexpr int kPods = 3;
  for (int i = 0; i < kPods; ++i) {
    ASSERT_TRUE(tenant.server().Create(BasicPod("default", "p" + std::to_string(i))).ok());
  }
  for (int i = 0; i < kPods; ++i) {
    ASSERT_TRUE(Eventually([&] { return ready("p" + std::to_string(i)); }));
  }
  ASSERT_TRUE(Eventually([&] { return m.upward_updates.load() - ups >= kPods; }));
  RealClock::Get()->SleepFor(Millis(100));  // the Ready echoes reach the informer
  EXPECT_EQ(m.downward_creates.load() - creates, static_cast<uint64_t>(kPods));
  EXPECT_EQ(m.downward_noops.load(), noops);
}

// A relist reports a Pod deleted and recreated under the same name as an
// update with the same downward form. Its new uid alone must send it
// downward; otherwise the shadow mirrors the deleted Pod, which the upward
// path refuses, and with the scan off the new Pod never runs.
TEST(SyncerIntegrationTest, RelistSwappingUidResyncsShadow) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  OwnPoolTenant tenant(deploy, "acme");
  apiserver::APIServer& server = tenant.server();
  ASSERT_TRUE(server.Create(BasicPod("default", "web-0")).ok());
  auto ready = [&] {
    std::optional<api::Pod> p = tenant.Find<api::Pod>("default", "web-0");
    return p && p->status.Ready();
  };
  ASSERT_TRUE(Eventually(ready));

  std::string recreated_uid;
  {
    // The tenant informers see neither the delete nor the create: the
    // fan-out is parked until the watches are broken, and the compaction
    // turns their resume into a relist.
    ExecutorGate gate(tenant.pool());
    ASSERT_TRUE(server.Delete<api::Pod>("default", "web-0").ok());
    Result<api::Pod> recreated = server.Create(BasicPod("default", "web-0"));
    ASSERT_TRUE(recreated.ok());
    recreated_uid = recreated->meta.uid;
    server.store().Compact(server.store().CurrentRevision());
    server.store().BreakWatches();
  }
  TenantMapping map = deploy.syncer().MappingOf("acme");
  EXPECT_TRUE(Eventually([&] {
    Result<api::Pod> shadow =
        deploy.super().server().Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    return shadow.ok() &&
           shadow->meta.annotations[kOriginUidAnnotation] == recreated_uid;
  })) << "the shadow still mirrors the deleted Pod";
  EXPECT_TRUE(Eventually(ready)) << "the recreated Pod never became ready";
}

// The upward write is one CAS on the tenant informer's copy. When that copy
// is stale the CAS conflicts, and the reconcile ends without a Get (which
// would block on the tenant apiserver's watch cache): the informer's newer
// version lags the shadow, so its arrival re-triggers the write.
TEST(SyncerIntegrationTest, UpwardConflictSettlesWithoutTenantGet) {
  VcDeployment::Options o = FastOptions();
  o.heartbeat_broadcast_period = Seconds(600);  // no vNode writes in the window
  VcDeployment deploy(o);
  ASSERT_TRUE(deploy.Start().ok());
  OwnPoolTenant tenant(deploy, "acme");
  apiserver::APIServer& server = tenant.server();
  apiserver::APIServer& super = deploy.super().server();
  TenantMapping map = deploy.syncer().MappingOf("acme");

  // Unschedulable until a super node carries the label.
  api::Pod pod = BasicPod("default", "web-0");
  pod.spec.node_selector["gate"] = "open";
  ASSERT_TRUE(server.Create(pod).ok());
  ASSERT_TRUE(Eventually([&] {
    return super.Get<api::Pod>(map.SuperNamespace("default"), "web-0").ok();
  }));
  RealClock::Get()->SleepFor(Millis(100));  // the syncer settles on the Pending Pod
  std::optional<api::Pod> current = tenant.Find<api::Pod>("default", "web-0");
  ASSERT_TRUE(current.has_value());
  Result<apiserver::TypedList<api::Node>> nodes = super.List<api::Node>();
  ASSERT_TRUE(nodes.ok());
  ASSERT_FALSE(nodes->items.empty());

  SyncerMetrics& m = deploy.syncer().metrics();
  const uint64_t gets = server.stats().gets.load();
  const uint64_t conflicts = m.upward_conflicts.load();
  {
    ExecutorGate gate(tenant.pool());
    // A foreign status write the syncer's tenant informer cannot see yet. It
    // moves no downward-owned field, so no downward echo rescues the Pod.
    current->status.message = "foreign";
    ASSERT_TRUE(server.UpdateStatus(*current).ok());
    ASSERT_TRUE(apiserver::RetryUpdate<api::Node>(super, "", nodes->items[0].meta.name,
                                                  [](api::Node& n) {
                                                    n.meta.labels["gate"] = "open";
                                                    return true;
                                                  })
                    .ok());
    // The shadow is bound and started; the upward write of the bind (and of
    // Ready, if it comes apart) CASes on the stale copy and conflicts.
    ASSERT_TRUE(Eventually([&] {
      Result<api::Pod> shadow = super.Get<api::Pod>(map.SuperNamespace("default"), "web-0");
      return shadow.ok() && shadow->status.Ready() && m.upward_conflicts.load() > conflicts;
    }));
    EXPECT_EQ(server.stats().gets.load(), gets);
  }
  // With the scan off, only the re-trigger of the foreign version can carry
  // the shadow's status up.
  EXPECT_TRUE(Eventually([&] {
    Result<api::Pod> shadow = super.Get<api::Pod>(map.SuperNamespace("default"), "web-0");
    std::optional<api::Pod> p = tenant.Find<api::Pod>("default", "web-0");
    return shadow.ok() && p && p->status.Ready() && p->status == shadow->status &&
           p->spec.node_name == shadow->spec.node_name;
  })) << "the tenant Pod never caught up with its shadow";
  EXPECT_EQ(server.stats().gets.load(), gets);
}

// Heartbeat broadcasts write each vNode by CAS on the copy the syncer last
// wrote, so the tenant apiserver serves no Get (a Get would also build a Node
// watch cache there that wakes on every tenant commit), and the vNode still
// follows its super node's heartbeats.
TEST(SyncerIntegrationTest, HeartbeatBroadcastWritesVNodesWithoutGet) {
  VcDeployment::Options o = FastOptions();
  o.super.kubelet_heartbeat = Millis(20);
  o.heartbeat_broadcast_period = Millis(20);
  VcDeployment deploy(o);
  ASSERT_TRUE(deploy.Start().ok());
  OwnPoolTenant tenant(deploy, "acme");
  apiserver::APIServer& server = tenant.server();
  ASSERT_TRUE(server.Create(BasicPod("default", "web-0")).ok());
  std::string node;
  ASSERT_TRUE(Eventually([&] {
    std::optional<api::Pod> p = tenant.Find<api::Pod>("default", "web-0");
    if (!p || p->spec.node_name.empty()) return false;
    node = p->spec.node_name;
    return tenant.Find<api::Node>("", node).has_value();
  }));
  // Three distinct heartbeats seen on the vNode: at least two broadcasts
  // wrote it.
  std::set<int64_t> beats;
  EXPECT_TRUE(Eventually([&] {
    std::optional<api::Node> vn = tenant.Find<api::Node>("", node);
    if (vn) beats.insert(vn->status.last_heartbeat_ms);
    return beats.size() >= 3;
  }));
  EXPECT_EQ(server.stats().gets.load(), 0u);
}

// Concurrency stress for the shared-executor refactor (run under tsan by
// scripts/check.sh): 50 tenants attached and detached from racing threads
// while per-tenant scan timers fire at a tight interval. Exercises the
// attach-arms-timer / detach-cancels-timer paths against in-flight scans.
TEST(SyncerStressTest, AttachDetachWhileScansFire) {
  apiserver::APIServer super{apiserver::APIServer::Options{}};
  Syncer::Options so;
  so.super_server = &super;
  so.periodic_scan = true;
  so.scan_interval = Millis(5);
  so.heartbeat_broadcast_period = Millis(10);
  so.downward_op_cost = Duration::zero();
  so.upward_op_cost = Duration::zero();
  Syncer syncer(std::move(so));

  constexpr int kTenants = 50;
  std::vector<std::unique_ptr<TenantControlPlane>> tcps;
  std::vector<VirtualClusterObj> vcs;
  for (int t = 0; t < kTenants; ++t) {
    TenantControlPlane::Options to;
    to.tenant_id = "stress-" + std::to_string(t);
    to.run_controllers = false;
    tcps.push_back(std::make_unique<TenantControlPlane>(std::move(to)));
    tcps.back()->Start();
    VirtualClusterObj vc;
    vc.meta.ns = "default";
    vc.meta.name = "stress-" + std::to_string(t);
    vc.meta.uid = "uid-stress-" + std::to_string(t);
    vcs.push_back(vc);
    // A little content so scans have objects to walk.
    TenantClient client(tcps.back().get());
    ASSERT_TRUE(client.Create(BasicPod("default", "pod-a")).ok());
    ASSERT_TRUE(client.Create(BasicPod("default", "pod-b")).ok());
  }

  syncer.Start();
  // Initial attach of the full fleet, concurrently with running scans.
  ParallelFor(kTenants, [&](int t) {
    syncer.AttachTenant(vcs[static_cast<size_t>(t)], tcps[static_cast<size_t>(t)].get());
  });
  EXPECT_EQ(syncer.Tenants().size(), static_cast<size_t>(kTenants));
  RealClock::Get()->SleepFor(Millis(50));  // let scan timers fire a few rounds

  // Churn: two racing waves of detach + re-attach across the fleet.
  for (int round = 0; round < 2; ++round) {
    ParallelFor(kTenants, [&](int t) {
      const size_t i = static_cast<size_t>(t);
      syncer.DetachTenant(vcs[i].meta.name);
      if (t % 2 == round % 2) syncer.AttachTenant(vcs[i], tcps[i].get());
    });
    RealClock::Get()->SleepFor(Millis(20));
  }

  // Scans kept running throughout; a final explicit scan must still work.
  Syncer::ScanRound r = syncer.ScanAllTenants();
  EXPECT_LE(syncer.Tenants().size(), static_cast<size_t>(kTenants));
  (void)r;
  syncer.Stop();
  for (auto& tcp : tcps) tcp->Stop();
}

}  // namespace
}  // namespace vc::core
