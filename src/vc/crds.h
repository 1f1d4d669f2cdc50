// Example custom resource for the paper's CRD-synchronization future work
// (§V: "there exist quite a few scheduler plugins for running artificial
// intelligence (AI) or big data workloads in Kubernetes using new CRDs. A
// tenant user cannot use the extended scheduling capability unless the syncer
// starts to synchronize the required CRD").
//
// GpuJob models such an AI-workload CRD: the tenant declares the job in its
// control plane; the syncer (Syncer::SyncKind<GpuJob>()) copies it to the
// super cluster where an extended scheduler plugin (here: core::GpuJobPlugin,
// a stand-in for a gang scheduler) admits it and drives its status, which
// syncs back up.
#pragma once

#include <atomic>
#include <memory>

#include "api/codec.h"
#include "api/meta.h"
#include "client/informer.h"
#include "common/executor.h"

namespace vc::core {

struct GpuJob {
  static constexpr const char* kKind = "GpuJob";
  static constexpr bool kNamespaced = true;
  api::ObjectMeta meta;

  // ----- spec (tenant-owned, synced downward)
  int32_t replicas = 1;
  int32_t gpus_per_replica = 1;
  std::string framework = "pytorch";
  std::string queue = "default";

  // ----- status (super-owned, synced upward)
  std::string phase = "Pending";  // Pending | Admitted | Running | Completed
  int32_t ready_replicas = 0;
  std::string scheduler_message;

  // CRD hook consumed by ToSuper/DownwardNormalized: these fields belong to
  // the super cluster's scheduler plugin.
  static void ClearSuperOwned(GpuJob& j) {
    j.phase = "Pending";
    j.ready_replicas = 0;
    j.scheduler_message.clear();
  }

  // CRD hook consumed by the syncer: copies the super-owned fields up into
  // the tenant object, and keeps them on the shadow across a downward
  // update; returns true if anything changed.
  static bool CopyStatus(const GpuJob& from, GpuJob& to) {
    if (to.phase == from.phase && to.ready_replicas == from.ready_replicas &&
        to.scheduler_message == from.scheduler_message) {
      return false;
    }
    to.phase = from.phase;
    to.ready_replicas = from.ready_replicas;
    to.scheduler_message = from.scheduler_message;
    return true;
  }

  bool operator==(const GpuJob&) const = default;
};

// A stand-in for the super cluster's extended scheduler plugin (gang
// scheduler for AI jobs): admits pending GpuJobs, simulates gang placement,
// and drives them to Running — the capability a tenant can only use once the
// syncer ships the CRD down (paper §V).
class GpuJobPlugin {
 public:
  struct Options {
    apiserver::APIServer* server = nullptr;
    Clock* clock = RealClock::Get();
    int32_t total_gpus = 64;
    Duration admit_delay = Millis(5);  // simulated gang-scheduling work
  };

  explicit GpuJobPlugin(Options opts);
  ~GpuJobPlugin();

  void Start();
  void Stop();
  bool WaitForSync(Duration timeout);

  int32_t gpus_in_use() const { return gpus_in_use_.load(); }

 private:
  void ReconcileAll();

  Options opts_;
  std::unique_ptr<client::SharedInformer<GpuJob>> informer_;
  TimerHandle reconcile_timer_;
  std::atomic<bool> stop_{true};
  std::atomic<int32_t> gpus_in_use_{0};
};

}  // namespace vc::core

namespace vc::api {

template <>
struct Codec<vc::core::GpuJob> {
  static Json Encode(const vc::core::GpuJob& obj);
  static Result<vc::core::GpuJob> Decode(const Json& j);
  static void Default(vc::core::GpuJob& obj);
};

}  // namespace vc::api
