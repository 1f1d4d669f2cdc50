// Shared reconciler runtime — the one control-loop framework every loop in
// the system runs on (built-in controllers, syncer downward/upward pools,
// tenant operator, CRD sync, the scheduler and the kubelets).
//
// Shape: a Reconciler owns a tenant-aware client::FairQueue (paper §III-C:
// per-tenant sub-queues + weighted round-robin; fair=false degrades to the
// shared-FIFO ablation), pumps reconciles onto the clock's shared executor
// with a bounded in-flight budget, and applies one backoff policy:
//
//   ReconcileResult::Done()          → Forget (backoff reset)
//   ReconcileResult::Retry()         → per-item exponential backoff requeue
//   ReconcileResult::RequeueAfter(d) → explicit delay, backoff reset
//
// Delayed requeues dedup against the ready set (promote-or-drop): an Enqueue
// of a key with a pending delayed add supersedes the delay, and an
// EnqueueAfter of a key already queued is dropped — a key is never run twice
// because it sat in both sets.
//
// Reconcile functions may complete asynchronously (the syncer finishes items
// from op-cost charge timers): the runtime hands each reconcile a Completion
// callback and holds the worker slot until it is invoked. Synchronous loops
// use the bool-returning convenience form.
//
// Every Reconciler registers a uniform metrics block (queue depth,
// enqueue→dequeue latency, reconcile latency, retries, in-flight) with the
// MetricsRegistry, so one Collect()/DumpText() shows every control loop.
//
// Teardown contract (from the old QueueWorker, kept verbatim): the in-flight
// slot count is decremented only as the very LAST touch of `this` on the
// processing path, because Stop() returns — and the owner may destroy the
// Reconciler — the moment the count hits zero.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "client/fairqueue.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/histogram.h"
#include "common/metrics.h"

namespace vc::controllers {

// Per-item exponential backoff: base * 2^(failures-1), capped at max.
class ItemBackoff {
 public:
  ItemBackoff(Duration base, Duration max) : base_(base), max_(max) {}

  Duration Next(const std::string& key);
  void Forget(const std::string& key);
  int Failures(const std::string& key) const;

 private:
  const Duration base_;
  const Duration max_;
  mutable std::mutex mu_;
  std::map<std::string, int> failures_;
};

struct ReconcileResult {
  enum class Code { kDone, kRetry, kRequeueAfter };
  Code code = Code::kDone;
  Duration delay{};  // only for kRequeueAfter

  static ReconcileResult Done() { return {Code::kDone, Duration{}}; }
  static ReconcileResult Retry() { return {Code::kRetry, Duration{}}; }
  static ReconcileResult RequeueAfter(Duration d) {
    return {Code::kRequeueAfter, d};
  }
};

class Reconciler {
 public:
  using Item = client::FairQueue::Item;
  // Invoked exactly once per dispatched reconcile — inline or later from
  // another executor task/timer. The worker slot stays occupied until then.
  using Completion = std::function<void(ReconcileResult)>;
  using ReconcileFn = std::function<void(const Item&, Completion)>;
  // Synchronous convenience: true = done, false = retry with backoff.
  using SyncFn = std::function<bool(const std::string& key)>;

  struct Options {
    std::string name = "reconciler";
    Clock* clock = RealClock::Get();
    int workers = 1;  // in-flight budget
    bool fair = true;          // false = shared FIFO (Fig. 11(b) ablation)
    int default_weight = 1;    // WRR weight for auto-registered tenants
    Duration backoff_base = Millis(5);
    Duration backoff_max = Seconds(5);
    // Maps a key to its fairness tenant for the single-arg Enqueue()
    // (super-cluster controllers key by tenant namespace prefix). Unset →
    // everything shares the "" sub-queue, which degenerates to FIFO.
    std::function<std::string(const std::string& key)> key_tenant;
    MetricsRegistry* registry = nullptr;  // nullptr → MetricsRegistry::Global()
  };

  Reconciler(Options opts, ReconcileFn fn);
  Reconciler(Options opts, SyncFn fn);
  ~Reconciler();

  Reconciler(const Reconciler&) = delete;
  Reconciler& operator=(const Reconciler&) = delete;

  void Start();
  // Stop in one call: StopAsync, drain in-flight work (BlockingRegion), then
  // sweep delayed-requeue timers. After Stop returns no callback can touch
  // `this` again.
  void Stop();
  // Marks stopping and shuts the queue down without waiting. Owners that must
  // interleave their own drain work (e.g. the syncer pumping charge timers)
  // call this, loop on WaitIdle, then call Stop() to finish.
  void StopAsync();
  // Waits up to `timeout` for in-flight reconciles to reach zero.
  bool WaitIdle(Duration timeout);

  // WRR registration; re-registering updates the weight live.
  void RegisterTenant(const std::string& tenant, int weight);
  void UnregisterTenant(const std::string& tenant);

  void Enqueue(const std::string& tenant, const std::string& key);
  void Enqueue(const std::string& key);  // tenant via Options::key_tenant
  void EnqueueAfter(const std::string& tenant, const std::string& key,
                    Duration d);
  void EnqueueAfter(const std::string& key, Duration d);

  const std::string& name() const { return opts_.name; }
  uint64_t reconciles() const { return reconciles_.load(); }
  uint64_t retries() const { return retries_.load(); }
  size_t Len() const { return queue_.Len(); }
  int InFlight() const;
  const client::FairQueue& queue() const { return queue_; }

 private:
  // Fills the in-flight budget with executor tasks while items are queued.
  void Pump();
  void Process(const Item& item);
  // Records the outcome, requeues per policy, releases the item and hands the
  // slot to the next queued item; the active_ decrement is the last touch of
  // `this`.
  void Finish(const Item& item, ReconcileResult r, bool ran, TimePoint start);
  void OnDelayed(const std::string& tenant, const std::string& key,
                 TimePoint deadline);

  Options opts_;
  ReconcileFn fn_;
  client::FairQueue queue_;
  ItemBackoff backoff_;
  std::shared_ptr<Executor> exec_;
  Histogram queue_lat_;      // enqueue → dequeue
  Histogram reconcile_lat_;  // dispatch → completion

  mutable std::mutex pump_mu_;
  std::condition_variable drain_cv_;
  int active_ = 0;  // in-flight reconciles (<= opts_.workers)
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> reconciles_{0};
  std::atomic<uint64_t> retries_{0};

  // Pending delayed requeues: full key → deadline. An immediate Enqueue or an
  // earlier EnqueueAfter supersedes an entry; its timer still fires and
  // no-ops on the deadline mismatch (timers are never cancelled under
  // delay_mu_, which OnDelayed takes).
  std::mutex delay_mu_;
  std::map<std::string, TimePoint> delayed_;
  // Every armed delayed-requeue timer, superseded ones included, since each
  // calls into `this` when it fires; Stop cancels them all. Fired ones are
  // pruned once the vector reaches prune_at_.
  std::vector<TimerHandle> timers_;
  size_t prune_at_ = 64;

  // LAST member: unregisters before the data the provider reads dies.
  MetricsRegistry::Registration metrics_reg_;
};

// ns → tenant mapper used to key super-cluster fairness (the syncer maps a
// super namespace back to the owning tenant; the hook returns "" for
// namespaces that belong to no tenant).
using TenantOfFn = std::function<std::string(const std::string& ns)>;

// Builds a Reconciler::Options::key_tenant hook for "ns/name"-shaped keys
// from an ns → tenant mapper. Returns an empty hook when tenant_of is unset.
std::function<std::string(const std::string& key)> NamespacedKeyTenant(
    TenantOfFn tenant_of);

}  // namespace vc::controllers
