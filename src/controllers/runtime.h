// Shared reconciler runtime — the one control-loop framework every loop in
// the system runs on (built-in controllers, syncer downward/upward pools,
// tenant operator, CRD sync, the scheduler and the kubelets).
//
// Shape: a Reconciler owns a tenant-aware client::FairQueue (paper §III-C:
// per-tenant sub-queues + weighted round-robin; fair=false degrades to the
// shared-FIFO ablation), pumps reconciles onto the clock's shared executor
// with a bounded in-flight budget, and applies one backoff policy:
//
//   ReconcileResult::Done()  → Forget (backoff reset)
//   ReconcileResult::Retry() → per-item exponential backoff requeue
//
// Delayed requeues dedup against the ready set (promote-or-drop): an Enqueue
// of a key with a pending delayed add supersedes the delay, and an
// EnqueueAfter of a key already queued is dropped — a key is never run twice
// because it sat in both sets.
//
// A reconcile runs synchronously and may return a hold: the modeled service
// time of the API operations it issued (the syncer's op costs, the
// scheduler's CostModel). The runtime keeps the item's slot for that long on
// an executor timer, so a budget of N workers limits throughput exactly as N
// sleeping threads would, without blocking one; then it runs the usual finish
// (backoff, metrics, slot handoff). Loops without a modeled cost use the
// bool-returning convenience form.
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

// Outcome of one reconcile: done or retry, and how long the item keeps its
// slot after the function returned (counted in reconcile_latency).
struct ReconcileResult {
  bool retry = false;
  Duration hold{};

  static ReconcileResult Done(Duration hold = Duration::zero()) { return {false, hold}; }
  static ReconcileResult Retry(Duration hold = Duration::zero()) { return {true, hold}; }
};

class Reconciler {
 public:
  using Item = client::FairQueue::Item;
  using ReconcileFn = std::function<ReconcileResult(const Item&)>;
  // Convenience: true = done, false = retry with backoff; no hold.
  using SyncFn = std::function<bool(const std::string& key)>;

  struct Options {
    std::string name = "reconciler";
    Clock* clock = RealClock::Get();
    int workers = 1;  // in-flight budget
    bool fair = true;  // false = shared FIFO (Fig. 11(b) ablation)
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
  // Refuses new work, finishes every held slot at once (Stop does not wait
  // out modeled costs), drains in-flight reconciles (BlockingRegion), then
  // sweeps delayed-requeue timers. After Stop returns no callback can touch
  // `this` again.
  void Stop();

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

 private:
  // Fills the in-flight budget with executor tasks while items are queued.
  void Pump();
  void Process(const Item& item);
  // Files a held slot under a timer that releases it; false once stopping
  // (the caller finishes at once).
  bool Hold(const Item& item, bool retry, TimePoint start, Duration hold);
  void ReleaseHold(uint64_t id);
  // Records the outcome of a reconcile that ran (retry, latency), requeues
  // per policy, releases the item and hands the slot to the next queued item,
  // on this thread when `run_next_here` (a hold's release) or else on a new
  // pool task; the active_ decrement is the last touch of `this`.
  void Finish(const Item& item, std::optional<bool> retry, Duration latency,
              bool run_next_here = false);
  void OnDelayed(const std::string& tenant, const std::string& key,
                 TimePoint deadline);

  Options opts_;
  ReconcileFn fn_;
  client::FairQueue queue_;
  ItemBackoff backoff_;
  std::shared_ptr<Executor> exec_;
  Histogram queue_lat_;      // enqueue → dequeue
  Histogram reconcile_lat_;  // dispatch → finish, hold included

  mutable std::mutex pump_mu_;
  std::condition_variable drain_cv_;
  int active_ = 0;  // in-flight reconciles (<= opts_.workers)
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> reconciles_{0};
  std::atomic<uint64_t> retries_{0};

  // Slots held for a modeled cost, by arm order. Stop finishes them early.
  struct Held {
    Item item;
    bool retry;
    TimePoint start;  // dispatch
    TimePoint due;    // end of the hold
    TimerHandle timer;
  };
  std::mutex hold_mu_;
  uint64_t hold_seq_ = 0;
  std::map<uint64_t, Held> holds_;

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
