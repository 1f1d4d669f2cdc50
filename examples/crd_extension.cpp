// CRD extension walkthrough (paper §V future work, implemented): the super
// cluster offers an AI gang-scheduler plugin driven by a GpuJob CRD; one
// SyncKind<GpuJob>() call on the syncer makes the capability available to
// tenants with zero changes to their tooling.
#include <cstdio>

#include "vc/crds.h"
#include "vc/deployment.h"

using namespace vc;

int main() {
  core::VcDeployment::Options opts;
  opts.super.num_nodes = 2;
  opts.downward_op_cost = Millis(1);
  opts.upward_op_cost = Millis(1);
  core::VcDeployment deploy(std::move(opts));
  // Without this the tenant's GpuJobs would sit in its own control plane,
  // invisible to the plugin. A kind joins the syncer before it starts.
  if (!deploy.syncer().SyncKind<core::GpuJob>().ok()) return 1;
  std::printf("syncer: GpuJob registered as a synchronized kind\n");
  if (!deploy.Start().ok()) return 1;
  deploy.WaitForSync(Seconds(30));

  // The provider installs the extended scheduler in the super cluster.
  core::GpuJobPlugin::Options po;
  po.server = &deploy.super().server();
  po.total_gpus = 32;
  core::GpuJobPlugin plugin(po);
  plugin.Start();
  plugin.WaitForSync(Seconds(10));
  std::printf("super cluster: GpuJob gang-scheduler plugin online (32 GPUs)\n");

  auto tenant = deploy.CreateTenant("ml-team");
  if (!tenant.ok()) return 1;

  // The tenant submits training jobs with ordinary tooling.
  core::TenantClient kubectl(tenant->get());
  for (int i = 0; i < 3; ++i) {
    core::GpuJob job;
    job.meta.ns = "default";
    job.meta.name = "train-" + std::to_string(i);
    job.replicas = 2;
    job.gpus_per_replica = 8;  // 16 GPUs each; only two fit in 32
    (void)kubectl.Create(job);
  }
  std::printf("tenant submitted 3 GpuJobs (16 GPUs each; cluster has 32)\n");

  RealClock::Get()->SleepFor(Seconds(1));
  for (int i = 0; i < 3; ++i) {
    Result<core::GpuJob> job = kubectl.Get<core::GpuJob>("default",
                                                         "train-" + std::to_string(i));
    if (job.ok()) {
      std::printf("  train-%d: phase=%-8s ready=%d/%d  (%s)\n", i, job->phase.c_str(),
                  job->ready_replicas, job->replicas, job->scheduler_message.c_str());
    }
  }
  std::printf("GPUs in use: %d/32 — gang semantics: the third job waits whole\n",
              plugin.gpus_in_use());

  // Finish one job (tenant deletes it) and watch the queue advance.
  (void)kubectl.Delete<core::GpuJob>("default", "train-0");
  RealClock::Get()->SleepFor(Seconds(1));
  Result<core::GpuJob> third = kubectl.Get<core::GpuJob>("default", "train-2");
  std::printf("\nafter train-0 finished: train-2 phase=%s (admitted from the queue)\n",
              third.ok() ? third->phase.c_str() : "?");

  plugin.Stop();
  deploy.Stop();
  return 0;
}
