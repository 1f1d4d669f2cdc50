// Syncer instrumentation for the paper's evaluation:
//   * the five Pod-creation phases of Fig. 8 / Table I (DWS-Queue,
//     DWS-Process, Super-Sched, UWS-Queue, UWS-Process);
//   * counters for synced objects, races survived, and scan remediations.
//
// Phase samples are recorded once per created Pod (creation path only; echo
// reconciles do not pollute the histograms).
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <optional>

#include "common/clock.h"
#include "common/histogram.h"

namespace vc::core {

struct SyncerMetrics {
  // Pod-creation phases, in chronological order (paper §IV-A).
  Histogram dws_queue;    // time in the downward worker queue
  Histogram dws_process;  // downward synchronization time
  Histogram super_sched;  // super cluster until Pod ready (incl. scheduler)
  Histogram uws_queue;    // time in the upward worker queue
  Histogram uws_process;  // upward synchronization time

  std::atomic<uint64_t> downward_creates{0};
  std::atomic<uint64_t> downward_updates{0};
  std::atomic<uint64_t> downward_deletes{0};
  std::atomic<uint64_t> downward_noops{0};
  std::atomic<uint64_t> upward_updates{0};
  std::atomic<uint64_t> upward_noops{0};
  std::atomic<uint64_t> conflicts_retried{0};
  // Upward writes that lost their CAS: the tenant informer was behind, and
  // its newer version re-triggers the upward reconcile.
  std::atomic<uint64_t> upward_conflicts{0};
  std::atomic<uint64_t> races_tolerated{0};  // object vanished mid-reconcile
  std::atomic<uint64_t> scan_rounds{0};
  std::atomic<uint64_t> scan_resent{0};

  // ---- Super-Sched bookkeeping: downward create completion → ready event.
  void MarkDownwardDone(const std::string& super_pod_key, TimePoint t) {
    std::lock_guard<std::mutex> l(mu_);
    downward_done_.emplace(super_pod_key, t);
  }
  std::optional<TimePoint> TakeDownwardDone(const std::string& super_pod_key) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = downward_done_.find(super_pod_key);
    if (it == downward_done_.end()) return std::nullopt;
    TimePoint t = it->second;
    downward_done_.erase(it);
    return t;
  }
  size_t PendingSched() const {
    std::lock_guard<std::mutex> l(mu_);
    return downward_done_.size();
  }

  void ResetHistograms() {
    dws_queue.Reset();
    dws_process.Reset();
    super_sched.Reset();
    uws_queue.Reset();
    uws_process.Reset();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, TimePoint> downward_done_;
};

}  // namespace vc::core
