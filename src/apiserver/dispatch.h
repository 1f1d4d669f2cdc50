// Server-side priority & fairness for the apiserver — kube-APF
// (APIPriorityAndFairness) reproduced over this repo's primitives. Every verb
// funnels through one typed pipeline:
//
//     Admit    — classify the RequestContext into a priority band
//                (system / leader / workload / best-effort), fair-queue the
//                request against other flows in its band, and either hand it
//                an inflight slot, or shed it with 429 + retry-after.
//     Execute  — run the verb body while the RAII Ticket holds the slot.
//     Account  — queue-wait is recorded at grant time, execution latency at
//                Ticket release; both land in per-band histograms the
//                MetricsRegistry exposes.
//
// Concurrency model (fairness = true):
//   * Each band owns an ASSURED share of the inflight budget
//     (max(1, max_inflight * share / Σshares)) and never borrows from other
//     bands — the original kube-APF model, and the property the Fig. 1 story
//     needs: a best-effort flood can exhaust only its own band, so system
//     and leader latency is bounded by their own traffic.
//   * Within a band, waiting requests are fair-queued per flow
//     (RequestContext::FlowKey — tenant id or user) on a server-side
//     client::FairQueue, so one greedy flow cannot starve its band peers.
//   * Overload sheds: a full band queue rejects new arrivals immediately,
//     and a queued request that cannot get a slot within its band's wait
//     budget (tight for best-effort) gives up — both as TooManyRequests with
//     an advisory retry-after, never by blocking the caller forever.
//
// With fairness = false the dispatcher degrades to the pre-APF behaviour —
// one shared FIFO over max_inflight slots with unbounded waiting — which is
// exactly the interference ablation fig1_interference measures.
//
// Queue waits are real-time (like the watch cache's freshness waits): the
// injected Clock drives only latency accounting, not scheduling.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apiserver/request_context.h"
#include "client/fairqueue.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"

namespace vc::apiserver {

class RequestDispatcher {
 public:
  struct Options {
    Clock* clock = RealClock::Get();
    // Inflight budget across all bands; 0 = unlimited (the dispatcher still
    // classifies and accounts, but never queues or sheds).
    int max_inflight = 0;
    // false = single shared FIFO over max_inflight slots, unbounded waits
    // (the pre-APF apiserver; Fig. 1's interference). true = APF.
    bool fairness = true;
    // Relative assured-concurrency shares per band (kSystem..kBestEffort).
    std::array<int, kNumBands> shares{{4, 3, 2, 1}};
    // Waiting requests allowed per band; arrivals past this shed with 429.
    size_t queue_limit = 1024;
    // Wait budget for a queued request before it sheds with 429.
    Duration max_wait = Seconds(1);
    Duration best_effort_max_wait = Millis(50);
  };

  // RAII inflight slot. Releasing records the execution latency of the
  // request into its band's histogram. Epoch-stamped so a slot admitted
  // before Reset() never corrupts the accounting of the new epoch. The
  // ticket also scopes the request's trace id (trace::CurrentTraceId()) over
  // the verb body, so kv writes and cache reads under the verb inherit it.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    ~Ticket();

    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    PriorityBand band() const { return band_; }
    uint64_t trace() const { return trace_; }

   private:
    friend class RequestDispatcher;
    Ticket(RequestDispatcher* d, PriorityBand band, uint64_t epoch, TimePoint start,
           uint64_t trace)
        : dispatcher_(d),
          band_(band),
          epoch_(epoch),
          start_(start),
          trace_(trace),
          scope_(trace) {}

    RequestDispatcher* dispatcher_ = nullptr;
    PriorityBand band_ = PriorityBand::kWorkload;
    uint64_t epoch_ = 0;
    TimePoint start_{};
    uint64_t trace_ = 0;
    trace::TraceScope scope_;
  };

  explicit RequestDispatcher(Options opts);
  ~RequestDispatcher();

  RequestDispatcher(const RequestDispatcher&) = delete;
  RequestDispatcher& operator=(const RequestDispatcher&) = delete;

  // Blocks until the request holds an inflight slot (fair order within its
  // band), or sheds it with TooManyRequests (queue full / wait budget
  // exhausted) or Unavailable (dispatcher reset mid-wait). Never blocks when
  // max_inflight == 0. `trace` is the request's trace id (0 = untraced); the
  // returned Ticket scopes it over the verb body.
  Result<Ticket> Admit(const RequestContext& ctx, uint64_t trace = 0);

  // Restart support: new epoch, zeroed inflight accounting, all queued
  // waiters failed with Unavailable. Slots admitted under the old epoch
  // become no-ops on release.
  void Reset();

  // Assured concurrency of one band under the current options.
  int AssuredShare(PriorityBand band) const;

  // ----------------------------------------------------------- observability
  struct BandStats {
    uint64_t admitted = 0;   // granted a slot (with or without queuing)
    uint64_t queued = 0;     // had to wait for a slot
    uint64_t shed = 0;       // rejected with 429 (queue full or wait expired)
    int inflight = 0;        // currently executing
    Histogram queue_wait;    // seconds from arrival to slot grant
    Histogram exec;          // seconds from grant to Ticket release
  };
  BandStats Stats(PriorityBand band) const;
  // "band.metric" samples for the owning server's MetricsRegistry provider.
  std::vector<MetricsRegistry::Sample> CollectSamples() const;

 private:
  struct Waiter {
    PriorityBand band = PriorityBand::kWorkload;
    bool granted = false;
    bool shed = false;  // Reset() failed this waiter
  };

  struct Band {
    std::unique_ptr<client::FairQueue> queue;  // waiting requests, per flow
    int inflight = 0;
    size_t waiting = 0;
    uint64_t admitted = 0;
    uint64_t queued = 0;
    uint64_t shed = 0;
    Histogram queue_wait;
    Histogram exec;
    // Exemplars: the trace id behind the worst histogram entry, so a slow
    // request in dispatch.<band>.exec.p99 can be joined to its trace records.
    double slow_exec_s = 0;
    uint64_t slow_exec_trace = 0;
    double slow_wait_s = 0;
    uint64_t slow_wait_trace = 0;
  };

  Band& BandOf(PriorityBand b) { return bands_[static_cast<size_t>(b)]; }
  const Band& BandOf(PriorityBand b) const { return bands_[static_cast<size_t>(b)]; }

  // True when a request of `band` may take a slot right now.
  bool CanRunLocked(PriorityBand band) const;
  // Hands freed capacity to queued waiters, highest band first, per-flow fair
  // within a band. Caller must notify cv_ after unlocking.
  void GrantLocked();
  void ReleaseSlot(PriorityBand band, uint64_t epoch, TimePoint start, uint64_t trace);
  std::unique_ptr<client::FairQueue> NewQueue() const;

  const Options opts_;
  std::array<int, kNumBands> assured_{};  // per-band concurrency (fairness mode)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<Band, kNumBands> bands_;
  int total_inflight_ = 0;  // fairness=false: the only limit that matters
  std::map<std::string, Waiter*> waiters_;  // queue key -> waiter
  uint64_t next_key_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace vc::apiserver
