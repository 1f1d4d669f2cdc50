// The paper's core queuing mechanism (§III-C):
//
//   "All tenant informers send the changed objects to a shared downward FIFO
//    worker queue, which can lead to a well-known queuing unfairness problem
//    for tenants. To eliminate the potential contention, we extend the
//    standard client-go worker queue with fair queuing support. Specifically,
//    we add per tenant sub-queues and use the weighted round-robin scheduling
//    algorithm to dispatch tenant objects to the downward worker queue."
//
// FairQueue implements exactly that: per-tenant sub-queues, weighted
// round-robin dequeue, and the standard client-go dirty/processing dedup
// semantics on (tenant, key) items. Setting Options::fair=false degrades it
// to the single shared FIFO — the ablation measured in Fig. 11(b).
//
// WRR note (paper §IV-A): the paper's prototype scans all registered
// sub-queues on dequeue (O(#tenants)); here a rotation of only *non-empty*
// sub-queues makes dequeue O(1) amortized — hundreds of idle registered
// tenants cost nothing (BM_FairQueueDequeue measures this at 1000 registered
// / 10 active). With equal weights it behaves like plain round-robin.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"

namespace vc::client {

class FairQueue {
 public:
  struct Options {
    bool fair = true;  // false = single shared FIFO (Fig. 11(b) ablation)
    Clock* clock = RealClock::Get();
  };

  struct Item {
    std::string tenant;
    std::string key;
    // When the item first entered the queue (dedup keeps the earliest time);
    // Get() latency against this yields the DWS-Queue phase of Fig. 8.
    TimePoint enqueue_time{};
  };

  FairQueue();  // default Options
  explicit FairQueue(Options opts);

  // Tenant registration sets the WRR weight; unregistered tenants are
  // auto-registered with weight 1 on first Add. (The paper's current
  // system assigns all tenants the same weight; custom weights are its listed
  // future work — supported here.) Re-registering an existing tenant updates
  // its weight in place, so the syncer can apply VirtualCluster spec weight
  // changes live.
  void RegisterTenant(const std::string& tenant, int weight);
  // Drops the tenant's sub-queue including queued keys, and clears the dirty
  // marks of its in-processing items so Done() won't resurrect the sub-queue.
  void UnregisterTenant(const std::string& tenant);

  void Add(const std::string& tenant, const std::string& key);

  // Blocks for the next item chosen by WRR across tenant sub-queues (or FIFO
  // order when fair=false). Returns nullopt on shutdown.
  std::optional<Item> Get();

  // Non-blocking Get: returns the next WRR-chosen item if one is queued
  // (even while shutting down, mirroring Get), nullopt otherwise.
  std::optional<Item> TryGet();

  // Registers fn to run (outside the queue lock) whenever an item becomes
  // available: on Add and on a dirty re-queue in Done. Executor-pump
  // consumers use this instead of blocking in Get.
  void SetReadyCallback(std::function<void()> fn);

  void Done(const Item& item);

  void ShutDown();
  bool ShuttingDown() const;

  size_t Len() const;                       // total queued (all tenants)
  size_t TenantLen(const std::string& t) const;
  // True if (tenant,key) is marked dirty — queued, or re-added while
  // processing (guaranteed to run again via Done's re-queue). Lets callers
  // dedup a delayed add against the ready set (promote-or-drop).
  bool IsQueued(const std::string& tenant, const std::string& key) const;
  uint64_t adds() const;
  uint64_t dedups() const;

 private:
  struct SubQueue {
    std::deque<std::string> keys;
    int weight = 1;
    int credit = 0;            // remaining WRR credit this round
    bool in_rotation = false;  // tenant present in rotation_
  };

  std::string FullKey(const std::string& tenant, const std::string& key) const {
    return tenant + "|" + key;
  }
  // Puts the tenant into the active rotation if not already there (called
  // whenever its sub-queue gains a key).
  void ActivateLocked(const std::string& tenant, SubQueue* sq);
  // Picks the next (tenant,key) under mu_; empties credit bookkeeping.
  std::optional<Item> PopLocked();
  // PopLocked + dirty/processing/enqueue-time bookkeeping shared by
  // Get/TryGet.
  std::optional<Item> TakeLocked();

  Options opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, SubQueue> subqueues_;
  // WRR rotation over non-empty sub-queues only: dequeue pops the front,
  // re-appends while credit lasts, and a tenant leaves when its sub-queue
  // drains — idle registered tenants are never visited.
  std::deque<std::string> rotation_;
  std::deque<Item> fifo_;  // used when fair == false
  std::set<std::string> dirty_;       // full keys queued or awaiting re-queue
  std::set<std::string> processing_;  // full keys held by workers
  std::map<std::string, TimePoint> enqueue_times_;
  std::function<void()> ready_cb_;
  size_t queued_ = 0;
  bool shutting_down_ = false;
  uint64_t adds_ = 0;
  uint64_t dedups_ = 0;
};

}  // namespace vc::client
