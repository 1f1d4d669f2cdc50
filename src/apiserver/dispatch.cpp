#include "apiserver/dispatch.h"

#include <algorithm>
#include <chrono>

#include "common/executor.h"

namespace vc::apiserver {

namespace {
// fairness=false keeps the pre-APF single queue: one flow, one band's queue.
constexpr const char* kSharedFlow = "-";

// Advisory client backoff stamped into 429 messages.
constexpr const char* kRetryAfter = " (retry-after=100ms)";

// Trace timestamps reuse the dispatcher's own clock reads (EmitAt) so
// tracing never adds a clock read to the admit/release hot path.
uint64_t Ns(TimePoint tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
          .count());
}
}  // namespace

RequestDispatcher::Ticket& RequestDispatcher::Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    if (dispatcher_ != nullptr) dispatcher_->ReleaseSlot(band_, epoch_, start_, trace_);
    dispatcher_ = other.dispatcher_;
    band_ = other.band_;
    epoch_ = other.epoch_;
    start_ = other.start_;
    trace_ = other.trace_;
    scope_ = std::move(other.scope_);
    other.dispatcher_ = nullptr;
  }
  return *this;
}

RequestDispatcher::Ticket::~Ticket() {
  if (dispatcher_ != nullptr) dispatcher_->ReleaseSlot(band_, epoch_, start_, trace_);
}

RequestDispatcher::RequestDispatcher(Options opts) : opts_(std::move(opts)) {
  int total_share = 0;
  for (int s : opts_.shares) total_share += std::max(s, 0);
  for (int b = 0; b < kNumBands; ++b) {
    // Every band keeps at least one assured slot so a flood elsewhere can
    // never zero out another band's capacity.
    assured_[b] = total_share > 0 && opts_.max_inflight > 0
                      ? std::max(1, opts_.max_inflight * std::max(opts_.shares[b], 0) /
                                        total_share)
                      : std::max(opts_.max_inflight, 0);
    bands_[b].queue = NewQueue();
  }
}

RequestDispatcher::~RequestDispatcher() = default;

std::unique_ptr<client::FairQueue> RequestDispatcher::NewQueue() const {
  client::FairQueue::Options qo;
  qo.fair = opts_.fairness;
  qo.clock = opts_.clock;
  return std::make_unique<client::FairQueue>(qo);
}

bool RequestDispatcher::CanRunLocked(PriorityBand band) const {
  if (opts_.max_inflight <= 0) return true;
  if (!opts_.fairness) return total_inflight_ < opts_.max_inflight;
  return BandOf(band).inflight < assured_[static_cast<size_t>(band)];
}

void RequestDispatcher::GrantLocked() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (int b = 0; b < kNumBands; ++b) {
      Band& band = bands_[b];
      if (band.waiting == 0 || !CanRunLocked(static_cast<PriorityBand>(b))) continue;
      // Pop per-flow fair within the band; skip waiters that already timed
      // out (their keys stay in the queue until popped here).
      while (band.waiting > 0) {
        std::optional<client::FairQueue::Item> item = band.queue->TryGet();
        if (!item.has_value()) {
          // Queue/waiting bookkeeping can briefly disagree while an abandoned
          // waiter is being cleaned up; nothing grantable here.
          band.waiting = 0;
          break;
        }
        band.queue->Done(*item);
        auto it = waiters_.find(item->key);
        if (it == waiters_.end()) continue;  // waiter timed out; skip its key
        Waiter* w = it->second;
        band.waiting--;
        w->granted = true;
        band.inflight++;
        total_inflight_++;
        progress = true;
        break;
      }
      if (progress) break;
    }
  }
}

Result<RequestDispatcher::Ticket> RequestDispatcher::Admit(const RequestContext& ctx,
                                                           uint64_t trace) {
  const PriorityBand pb = ClassifyBand(ctx);
  const uint64_t band_arg = static_cast<uint64_t>(pb);
  const TimePoint arrival = opts_.clock->Now();

  std::unique_lock<std::mutex> lock(mu_);
  Band& band = BandOf(pb);
  // Fast path: capacity available and nobody of this band is queued ahead.
  // Admit == execute here, so it records as a single kExecute. Tracing adds
  // no clock reads to this path: every record reuses a timestamp the
  // dispatcher reads anyway for its latency accounting, which is what keeps
  // the traced BM_DispatchAdmit axis within 10% of untraced.
  if (band.waiting == 0 && CanRunLocked(pb)) {
    band.admitted++;
    band.inflight++;
    total_inflight_++;
    band.queue_wait.RecordSeconds(0.0);
    // Stamped with the ticket-start read taken under mu_, so the
    // kExecute/kAccount stream is a true interleaving the history checker
    // can sweep for per-band overlap.
    const TimePoint start = opts_.clock->Now();
    trace::EmitAt(trace::Component::kDispatch, trace::Verb::kExecute, trace, 0,
                  ctx.FlowKey(), band_arg, Ns(start));
    return Ticket(this, pb, epoch_, start, trace);
  }
  trace::EmitAt(trace::Component::kDispatch, trace::Verb::kAdmit, trace, 0,
                ctx.FlowKey(), band_arg, Ns(arrival));

  if (opts_.fairness && band.waiting >= opts_.queue_limit) {
    band.shed++;
    trace::EmitAt(trace::Component::kDispatch, trace::Verb::kShed, trace, 0,
                  "queue-full", band_arg, Ns(arrival));
    return TooManyRequestsError(std::string("queue full for ") + BandName(pb) +
                                " band" + kRetryAfter);
  }

  band.queued++;
  trace::EmitAt(trace::Component::kDispatch, trace::Verb::kQueue, trace, 0,
                ctx.FlowKey(), band_arg, Ns(arrival));
  const std::string flow = opts_.fairness ? ctx.FlowKey() : kSharedFlow;
  const std::string key = std::to_string(next_key_++);
  Waiter w;
  w.band = pb;
  waiters_[key] = &w;
  band.queue->Add(flow, key);
  band.waiting++;

  // Scheduling waits are real-time; only latency accounting uses opts_.clock.
  const auto deadline =
      std::chrono::steady_clock::now() +
      (pb == PriorityBand::kBestEffort ? opts_.best_effort_max_wait : opts_.max_wait);
  BlockingRegion blocking;
  while (!w.granted && !w.shed) {
    if (!opts_.fairness) {
      cv_.wait(lock);  // pre-APF behaviour: wait forever for a slot
      continue;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }
  waiters_.erase(key);
  // A Reset() mid-wait wins even over a racing grant: the accounting the
  // grant updated was zeroed, so the slot must not be used.
  if (w.shed) {
    return UnavailableError("front end restarting, request not admitted");
  }
  if (w.granted) {
    const TimePoint now = opts_.clock->Now();
    const Duration waited = now - arrival;
    band.queue_wait.Record(waited);
    const double waited_s = std::chrono::duration<double>(waited).count();
    if (waited_s > band.slow_wait_s && trace != 0) {
      band.slow_wait_s = waited_s;
      band.slow_wait_trace = trace;
    }
    // Still under mu_ (cv wait re-acquired it): the slot has been held since
    // GrantLocked, so stamping kExecute here can only under-report overlap.
    trace::EmitAt(trace::Component::kDispatch, trace::Verb::kExecute, trace, 0,
                  {}, band_arg, Ns(now));
    return Ticket(this, pb, epoch_, now, trace);
  }
  // Timed out: the key stays queued until GrantLocked pops and skips it (the
  // waiters_ entry is gone); only the waiting count needs fixing here.
  if (band.waiting > 0) band.waiting--;
  band.shed++;
  trace::Emit(trace::Component::kDispatch, trace::Verb::kShed, trace, 0,
              "wait-budget", band_arg);
  return TooManyRequestsError(std::string(BandName(pb)) +
                              " band saturated: no slot within wait budget" + kRetryAfter);
}

void RequestDispatcher::ReleaseSlot(PriorityBand pb, uint64_t epoch, TimePoint start,
                                    uint64_t trace) {
  std::unique_lock<std::mutex> lock(mu_);
  if (epoch != epoch_) return;  // slot predates a Reset(); accounting is gone
  Band& band = BandOf(pb);
  const TimePoint now = opts_.clock->Now();
  const Duration took = now - start;
  band.exec.Record(took);
  const double took_s = std::chrono::duration<double>(took).count();
  if (took_s > band.slow_exec_s && trace != 0) {
    band.slow_exec_s = took_s;
    band.slow_exec_trace = trace;
  }
  trace::EmitAt(trace::Component::kDispatch, trace::Verb::kAccount, trace, 0, {},
                static_cast<uint64_t>(pb), Ns(now));
  if (band.inflight > 0) band.inflight--;
  if (total_inflight_ > 0) total_inflight_--;
  GrantLocked();
  lock.unlock();
  cv_.notify_all();
}

void RequestDispatcher::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  epoch_++;
  total_inflight_ = 0;
  for (auto& [key, w] : waiters_) {
    (void)key;
    w->shed = true;
  }
  waiters_.clear();
  for (int b = 0; b < kNumBands; ++b) {
    bands_[b].inflight = 0;
    bands_[b].waiting = 0;
    bands_[b].queue = NewQueue();
    bands_[b].slow_exec_s = 0;
    bands_[b].slow_exec_trace = 0;
    bands_[b].slow_wait_s = 0;
    bands_[b].slow_wait_trace = 0;
  }
  lock.unlock();
  cv_.notify_all();
}

int RequestDispatcher::AssuredShare(PriorityBand band) const {
  return assured_[static_cast<size_t>(band)];
}

RequestDispatcher::BandStats RequestDispatcher::Stats(PriorityBand pb) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Band& band = BandOf(pb);
  BandStats out;
  out.admitted = band.admitted;
  out.queued = band.queued;
  out.shed = band.shed;
  out.inflight = band.inflight;
  out.queue_wait = band.queue_wait;
  out.exec = band.exec;
  return out;
}

std::vector<MetricsRegistry::Sample> RequestDispatcher::CollectSamples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricsRegistry::Sample> out;
  for (int b = 0; b < kNumBands; ++b) {
    const Band& band = bands_[b];
    const std::string prefix = std::string("dispatch.") + BandName(static_cast<PriorityBand>(b));
    out.emplace_back(prefix + ".admitted", static_cast<double>(band.admitted));
    out.emplace_back(prefix + ".queued", static_cast<double>(band.queued));
    out.emplace_back(prefix + ".shed", static_cast<double>(band.shed));
    out.emplace_back(prefix + ".inflight", static_cast<double>(band.inflight));
    AppendHistogram(&out, prefix + ".queue_wait", band.queue_wait);
    AppendHistogram(&out, prefix + ".exec", band.exec);
    // Exemplars: trace ids are < 2^53 by construction, so the double-valued
    // sample carries them exactly; 0 = no traced request seen yet.
    out.emplace_back(prefix + ".exec.slowest_trace",
                     static_cast<double>(band.slow_exec_trace));
    out.emplace_back(prefix + ".queue_wait.slowest_trace",
                     static_cast<double>(band.slow_wait_trace));
  }
  return out;
}

}  // namespace vc::apiserver
