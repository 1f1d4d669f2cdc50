// The cluster scheduler: single queue, sequential scheduling — the same
// architecture as the default kube-scheduler and therefore the same
// bottleneck the paper identifies (§IV-A: "The default Kubernetes scheduler
// has a single queue, and it schedules Pod sequentially. Therefore, we have
// seen the scheduler throughput peaked at a few hundred Pods per second").
//
// Like the real scheduler it keeps an incrementally-maintained cache of node
// assignments (not a per-cycle rebuild), with a per-node index of residents
// that carry required anti-affinity terms, so a Pod without affinity terms
// filters in O(nodes). The occupancy cost that bends the baseline throughput
// curve of Fig. 9(b) is modeled, not incurred: each cycle holds the one
// scheduling slot (a Reconciler hold, no sleeping thread) for
//     base + per_node_filter * #nodes + per_resident_pod * #assigned_pods
// CostModel defaults are calibrated so a 100-node super cluster peaks at a
// few hundred binds/s (see EXPERIMENTS.md §Calibration). The bind writes by
// CAS on the informer's copy of the Pod (apiserver::UpdateFrom), not by a
// fresh Get.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "client/informer.h"
#include "common/histogram.h"
#include "controllers/runtime.h"
#include "scheduler/predicates.h"

namespace vc::scheduler {

struct CostModel {
  Duration per_pod_base = Micros(600);     // fixed work per scheduling cycle
  Duration per_node_filter = Micros(6);    // each node filtered
  Duration per_resident_pod = std::chrono::nanoseconds(120);  // occupancy scan
};

class Scheduler {
 public:
  struct Options {
    apiserver::APIServer* server = nullptr;
    Clock* clock = RealClock::Get();
    CostModel cost;
    std::string name = "default-scheduler";
  };

  explicit Scheduler(Options opts);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void Start();
  void Stop();

  // Blocks until the pod/node informers have listed.
  bool WaitForSync(Duration timeout);

  uint64_t scheduled() const { return scheduled_.load(); }
  uint64_t failed_attempts() const { return failed_attempts_.load(); }
  size_t assigned_pods() const;
  const Histogram& bind_latency() const { return bind_latency_; }

 private:
  using PodPtr = std::shared_ptr<const api::Pod>;

  struct NodeState {
    std::map<std::string, PodPtr> pods;  // key = pod FullName
    // The residents of `pods` with required anti-affinity terms: the only
    // ones a Pod without affinity terms must be filtered against.
    std::map<std::string, PodPtr> anti_affine;
    api::ResourceList requested;
  };

  // One scheduling cycle: done on a terminal outcome (bound, gone, or not
  // pending anymore), retry with backoff otherwise; the hold is the cycle's
  // modeled cost.
  controllers::ReconcileResult ScheduleOne(const std::string& key);

  // Incremental assignment-cache maintenance, driven by pod informer events.
  void ObservePod(const PodPtr& old_pod, const PodPtr& new_pod);

  Options opts_;
  std::unique_ptr<client::SharedInformer<api::Pod>> pod_informer_;
  std::unique_ptr<client::SharedInformer<api::Node>> node_informer_;
  std::atomic<uint64_t> scheduled_{0};
  std::atomic<uint64_t> failed_attempts_{0};
  Histogram bind_latency_;

  mutable std::mutex cache_mu_;
  std::map<std::string, NodeState> assignments_;  // node name -> state
  size_t assigned_count_ = 0;

  // The scheduling queue: one worker, so cycles run strictly one at a time
  // (the sequential loop of the default kube-scheduler), one FIFO (no
  // key_tenant), and unschedulable Pods retry with per-Pod backoff.
  controllers::Reconciler loop_;  // last: drains before members above die
};

}  // namespace vc::scheduler
