// Tests for the paper's §V future-work items, which this reproduction
// implements: CRD synchronization, multiple super clusters, and idle
// tenant-control-plane hibernation.
#include <gtest/gtest.h>

#include "own_pool_tenant.h"
#include "vc/crds.h"
#include "vc/deployment.h"
#include "vc/multi_super.h"

namespace vc::core {
namespace {

VcDeployment::Options FastOptions(int nodes = 2) {
  VcDeployment::Options o;
  o.super.num_nodes = nodes;
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

// ----------------------------------------------------------------- GpuJob CRD

TEST(GpuJobCodecTest, RoundTrip) {
  GpuJob job;
  job.meta.ns = "ml";
  job.meta.name = "train-1";
  job.replicas = 4;
  job.gpus_per_replica = 8;
  job.framework = "tensorflow";
  job.queue = "research";
  job.phase = "Running";
  job.ready_replicas = 4;
  job.scheduler_message = "all replicas running";
  Result<GpuJob> back = api::Decode<GpuJob>(api::Encode(job));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, job);
}

TEST(GpuJobCodecTest, CrdHooksSeparateOwnership) {
  GpuJob job;
  job.phase = "Running";
  job.ready_replicas = 3;
  GpuJob cleared = job;
  GpuJob::ClearSuperOwned(cleared);
  EXPECT_EQ(cleared.phase, "Pending");
  EXPECT_EQ(cleared.ready_replicas, 0);
  GpuJob target;
  EXPECT_TRUE(GpuJob::CopyStatus(job, target));
  EXPECT_EQ(target.phase, "Running");
  EXPECT_FALSE(GpuJob::CopyStatus(job, target));  // already equal
}

TEST(CrdSyncTest, TenantGpuJobFlowsThroughExtendedScheduler) {
  VcDeployment deploy(FastOptions());
  // The syncer makes the capability reachable from the tenant.
  ASSERT_TRUE(deploy.syncer().SyncKind<GpuJob>().ok());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("ml-team");
  ASSERT_TRUE(tcp.ok());

  // The super cluster offers the extended scheduling capability (CRD plugin).
  GpuJobPlugin::Options po;
  po.server = &deploy.super().server();
  po.total_gpus = 64;
  GpuJobPlugin plugin(po);
  plugin.Start();
  ASSERT_TRUE(plugin.WaitForSync(Seconds(5)));

  ASSERT_TRUE(deploy.WaitForSync(Seconds(5)));

  // Tenant submits an AI job in ITS control plane.
  TenantClient client(tcp->get());
  GpuJob job;
  job.meta.ns = "default";
  job.meta.name = "train-1";
  job.replicas = 2;
  job.gpus_per_replica = 8;
  ASSERT_TRUE(client.Create(job).ok());

  // The job reaches the super cluster (prefixed), the plugin runs it, and
  // the status comes back to the tenant.
  TenantMapping map = deploy.syncer().MappingOf("ml-team");
  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> shadow =
        deploy.super().server().Get<GpuJob>(map.SuperNamespace("default"), "train-1");
    return shadow.ok() && shadow->phase == "Running";
  })) << "job never ran in the super cluster";
  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> mine = client.Get<GpuJob>("default", "train-1");
    return mine.ok() && mine->phase == "Running" && mine->ready_replicas == 2;
  })) << "status never synced back to the tenant";
  EXPECT_EQ(plugin.gpus_in_use(), 16);
  EXPECT_GE(deploy.syncer().metrics().downward_creates.load(), 1u);
  EXPECT_GE(deploy.syncer().metrics().upward_updates.load(), 1u);

  // Tenant-side spec update propagates without clobbering super status.
  ASSERT_TRUE(apiserver::RetryUpdate<GpuJob>((*tcp)->server(), "default", "train-1",
                                             [](GpuJob& live) {
                                               live.queue = "high-priority";
                                               return true;
                                             })
                  .ok());
  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> shadow =
        deploy.super().server().Get<GpuJob>(map.SuperNamespace("default"), "train-1");
    return shadow.ok() && shadow->queue == "high-priority" && shadow->phase == "Running";
  }));

  // Tenant deletes the job: the shadow goes away and GPUs free up.
  ASSERT_TRUE(client.Delete<GpuJob>("default", "train-1").ok());
  ASSERT_TRUE(Eventually([&] {
    return deploy.super()
        .server()
        .Get<GpuJob>(map.SuperNamespace("default"), "train-1")
        .status()
        .IsNotFound();
  }));

  plugin.Stop();
  deploy.Stop();
}

// A tenant job deleted and recreated under the same name while the syncer
// missed the delete (tenant detached) must get a fresh shadow; the old one
// would keep its GPUs and never report to the new job.
TEST(CrdSyncTest, RecreatedGpuJobGetsFreshShadow) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.syncer().SyncKind<GpuJob>().ok());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("ml-team");
  ASSERT_TRUE(tcp.ok());
  GpuJobPlugin::Options po;
  po.server = &deploy.super().server();
  po.total_gpus = 16;
  GpuJobPlugin plugin(po);
  plugin.Start();
  ASSERT_TRUE(plugin.WaitForSync(Seconds(5)));

  TenantClient client(tcp->get());
  GpuJob job;
  job.meta.ns = "default";
  job.meta.name = "train-1";
  job.replicas = 2;
  job.gpus_per_replica = 8;  // every GPU in the cluster
  ASSERT_TRUE(client.Create(job).ok());
  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> mine = client.Get<GpuJob>("default", "train-1");
    return mine.ok() && mine->phase == "Running";
  }));

  Result<VirtualClusterObj> vc =
      deploy.super().server().Get<VirtualClusterObj>("default", "ml-team");
  ASSERT_TRUE(vc.ok());
  deploy.syncer().DetachTenant("ml-team");
  ASSERT_TRUE(client.Delete<GpuJob>("default", "train-1").ok());
  Result<GpuJob> recreated = client.Create(job);
  ASSERT_TRUE(recreated.ok());
  deploy.syncer().AttachTenant(*vc, tcp->get());

  TenantMapping map = deploy.syncer().MappingOf("ml-team");
  EXPECT_TRUE(Eventually([&] {
    Result<GpuJob> shadow =
        deploy.super().server().Get<GpuJob>(map.SuperNamespace("default"), "train-1");
    return shadow.ok() &&
           shadow->meta.annotations[kOriginUidAnnotation] == recreated->meta.uid;
  })) << "the shadow still mirrors the deleted job";
  EXPECT_TRUE(Eventually([&] {
    Result<GpuJob> mine = client.Get<GpuJob>("default", "train-1");
    return mine.ok() && mine->phase == "Running";
  })) << "the recreated job never ran";
  plugin.Stop();
  deploy.Stop();
}

// A foreign status write on a tenant GpuJob is reverted with the scan off,
// even while the syncer's tenant informer lags it: the upward write on the
// stale copy conflicts and ends without a Get, and the foreign version's
// arrival re-triggers it.
TEST(CrdSyncTest, ForeignStatusWriteRevertedAcrossUpwardConflict) {
  VcDeployment::Options o = FastOptions();
  o.heartbeat_broadcast_period = Seconds(600);  // vNode heartbeats Get tenant Nodes
  VcDeployment deploy(o);
  ASSERT_TRUE(deploy.syncer().SyncKind<GpuJob>().ok());
  ASSERT_TRUE(deploy.Start().ok());
  apiserver::APIServer& super = deploy.super().server();
  GpuJobPlugin::Options po;
  po.server = &super;
  po.total_gpus = 64;
  GpuJobPlugin plugin(po);
  plugin.Start();
  ASSERT_TRUE(plugin.WaitForSync(Seconds(5)));
  OwnPoolTenant tenant(deploy, "ml-team");
  apiserver::APIServer& server = tenant.server();
  TenantMapping map = deploy.syncer().MappingOf("ml-team");

  GpuJob job;
  job.meta.ns = "default";
  job.meta.name = "train-1";
  job.replicas = 2;
  job.gpus_per_replica = 8;
  ASSERT_TRUE(server.Create(job).ok());
  ASSERT_TRUE(Eventually([&] {
    std::optional<GpuJob> mine = tenant.Find<GpuJob>("default", "train-1");
    return mine && mine->phase == "Running";
  }));
  RealClock::Get()->SleepFor(Millis(100));  // the syncer settles on the running job
  std::optional<GpuJob> current = tenant.Find<GpuJob>("default", "train-1");
  ASSERT_TRUE(current.has_value());

  SyncerMetrics& m = deploy.syncer().metrics();
  const uint64_t gets = server.stats().gets.load();
  const uint64_t conflicts = m.upward_conflicts.load();
  {
    ExecutorGate gate(tenant.pool());
    // A foreign status write the syncer's tenant informer cannot see yet.
    current->phase = "Hacked";
    ASSERT_TRUE(server.UpdateStatus(*current).ok());
    // A super-side status change sends an upward write onto the stale copy.
    ASSERT_TRUE(apiserver::RetryUpdateStatus<GpuJob>(super, map.SuperNamespace("default"),
                                                     "train-1",
                                                     [](GpuJob& j) {
                                                       j.scheduler_message = "poked";
                                                       return true;
                                                     })
                    .ok());
    ASSERT_TRUE(Eventually([&] { return m.upward_conflicts.load() > conflicts; }));
    EXPECT_EQ(server.stats().gets.load(), gets);
  }
  EXPECT_TRUE(Eventually([&] {
    Result<GpuJob> shadow = super.Get<GpuJob>(map.SuperNamespace("default"), "train-1");
    std::optional<GpuJob> mine = tenant.Find<GpuJob>("default", "train-1");
    if (!shadow.ok() || !mine) return false;
    GpuJob probe = *mine;
    return mine->phase == "Running" && !GpuJob::CopyStatus(*shadow, probe);
  })) << "the foreign status was never reverted to the shadow's";
  EXPECT_EQ(server.stats().gets.load(), gets);
  plugin.Stop();
}

// Every tenant informer set and the scan walk the kind table, so it is
// closed once the syncer starts or holds a tenant.
TEST(CrdSyncTest, SyncKindOnlyBeforeStartOrAttach) {
  apiserver::APIServer super{apiserver::APIServer::Options{}};
  TenantControlPlane::Options to;
  to.tenant_id = "ml-team";
  to.run_controllers = false;
  TenantControlPlane tcp(std::move(to));
  Syncer::Options so;
  so.super_server = &super;
  Syncer attached(so);
  EXPECT_EQ(attached.SyncKind<api::Pod>().code(), Code::kAlreadyExists);
  VirtualClusterObj vc;
  vc.meta.name = "ml-team";
  vc.meta.uid = "uid-ml-team";
  attached.AttachTenant(vc, &tcp);
  EXPECT_EQ(attached.SyncKind<GpuJob>().code(), Code::kFailedPrecondition);

  Syncer started(so);
  started.Start();
  EXPECT_EQ(started.SyncKind<GpuJob>().code(), Code::kFailedPrecondition);
  started.Stop();
}

TEST(CrdSyncTest, GangSchedulerRespectsGpuCapacity) {
  apiserver::APIServer server({});
  GpuJobPlugin::Options po;
  po.server = &server;
  po.total_gpus = 10;
  GpuJobPlugin plugin(po);
  plugin.Start();
  ASSERT_TRUE(plugin.WaitForSync(Seconds(5)));

  GpuJob big;
  big.meta.ns = "default";
  big.meta.name = "big";
  big.replicas = 2;
  big.gpus_per_replica = 4;  // needs 8
  ASSERT_TRUE(server.Create(big).ok());
  GpuJob small;
  small.meta.ns = "default";
  small.meta.name = "small";
  small.replicas = 1;
  small.gpus_per_replica = 4;  // needs 4; 8+4 > 10
  ASSERT_TRUE(server.Create(small).ok());

  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> b = server.Get<GpuJob>("default", "big");
    return b.ok() && b->phase == "Running";
  }));
  RealClock::Get()->SleepFor(Millis(100));
  Result<GpuJob> s = server.Get<GpuJob>("default", "small");
  EXPECT_EQ(s->phase, "Pending");  // gang-blocked
  EXPECT_EQ(s->scheduler_message, "waiting for GPUs");

  // Freeing the big job admits the small one.
  ASSERT_TRUE(server.Delete<GpuJob>("default", "big").ok());
  ASSERT_TRUE(Eventually([&] {
    Result<GpuJob> live = server.Get<GpuJob>("default", "small");
    return live.ok() && live->phase == "Running";
  }));
  plugin.Stop();
}

// ------------------------------------------------------------- multi-super

TEST(MultiSuperTest, TenantsSpreadAcrossSuperClustersInvisibly) {
  MultiSuperDeployment::Options mo;
  mo.super_clusters = 2;
  mo.per_super = FastOptions();
  MultiSuperDeployment multi(std::move(mo));
  ASSERT_TRUE(multi.Start().ok());
  ASSERT_TRUE(multi.WaitForSync(Seconds(20)));

  std::vector<std::shared_ptr<TenantControlPlane>> tcps;
  for (int i = 0; i < 4; ++i) {
    Result<std::shared_ptr<TenantControlPlane>> tcp =
        multi.CreateTenant("tenant-" + std::to_string(i));
    ASSERT_TRUE(tcp.ok()) << tcp.status();
    tcps.push_back(*tcp);
  }
  // Placement is balanced.
  std::vector<size_t> per = multi.TenantsPerSuper();
  EXPECT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0], 2u);
  EXPECT_EQ(per[1], 2u);
  // Duplicate placement is refused.
  EXPECT_TRUE(multi.CreateTenant("tenant-0").status().IsAlreadyExists());

  // Pods work identically regardless of which super cluster hosts a tenant.
  for (size_t i = 0; i < tcps.size(); ++i) {
    TenantClient client(tcps[i].get());
    ASSERT_TRUE(client.Create(BasicPod("default", "web-0")).ok());
  }
  for (size_t i = 0; i < tcps.size(); ++i) {
    TenantClient client(tcps[i].get());
    Result<api::Pod> ready = client.WaitPodReady("default", "web-0", Seconds(20));
    EXPECT_TRUE(ready.ok()) << "tenant-" << i << ": " << ready.status();
  }
  // The pods really live in different super clusters.
  int supers_used[2] = {0, 0};
  for (int i = 0; i < 4; ++i) {
    int idx = multi.SuperOf("tenant-" + std::to_string(i));
    ASSERT_GE(idx, 0);
    supers_used[idx]++;
  }
  EXPECT_EQ(supers_used[0], 2);
  EXPECT_EQ(supers_used[1], 2);

  // Deleting a tenant releases its placement slot.
  ASSERT_TRUE(multi.DeleteTenant("tenant-0").ok());
  EXPECT_EQ(multi.SuperOf("tenant-0"), -1);
  EXPECT_TRUE(multi.DeleteTenant("tenant-0").IsNotFound());
  multi.Stop();
}

// ------------------------------------------------------------- hibernation

TEST(HibernationTest, IdleTenantMemoryShrinksAndResumes) {
  VcDeployment deploy(FastOptions());
  ASSERT_TRUE(deploy.Start().ok());
  auto tcp = deploy.CreateTenant("sleepy");
  ASSERT_TRUE(tcp.ok());
  TenantClient client(tcp->get());

  // Generate churn so the watch-replay log (the reclaimable state) grows.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Create(BasicPod("default", "p" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.WaitPodReady("default", "p" + std::to_string(i), Seconds(30)).ok());
  }
  size_t before = (*tcp)->ApproxMemoryBytes();
  ASSERT_GT(before, 0u);

  (*tcp)->Hibernate();
  EXPECT_TRUE((*tcp)->hibernated());
  size_t after = (*tcp)->ApproxMemoryBytes();
  EXPECT_LT(after, before) << "hibernation reclaimed nothing";

  // The API surface stays readable while hibernated.
  EXPECT_TRUE(client.Get<api::Pod>("default", "p0").ok());

  // Resume: controllers come back; the tenant control plane works again.
  (*tcp)->Resume();
  EXPECT_FALSE((*tcp)->hibernated());
  ASSERT_TRUE(client.Create(BasicPod("default", "after-resume")).ok());
  Result<api::Pod> ready = client.WaitPodReady("default", "after-resume", Seconds(30));
  EXPECT_TRUE(ready.ok()) << ready.status();
  deploy.Stop();
}

TEST(HibernationTest, HibernateIsIdempotentAndSafeWhenStopped) {
  TenantControlPlane::Options to;
  to.tenant_id = "t";
  TenantControlPlane tcp(to);
  tcp.Hibernate();  // not started: no-op
  EXPECT_FALSE(tcp.hibernated());
  tcp.Start();
  tcp.Hibernate();
  tcp.Hibernate();
  EXPECT_TRUE(tcp.hibernated());
  tcp.Resume();
  tcp.Resume();
  EXPECT_FALSE(tcp.hibernated());
  tcp.Stop();
}

}  // namespace
}  // namespace vc::core
