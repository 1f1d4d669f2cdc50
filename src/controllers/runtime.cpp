#include "controllers/runtime.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"

namespace vc::controllers {

Duration ItemBackoff::Next(const std::string& key) {
  std::lock_guard<std::mutex> l(mu_);
  int failures = ++failures_[key];
  Duration d = base_;
  for (int i = 1; i < failures && d < max_; ++i) d *= 2;
  return std::min(d, max_);
}

void ItemBackoff::Forget(const std::string& key) {
  std::lock_guard<std::mutex> l(mu_);
  failures_.erase(key);
}

int ItemBackoff::Failures(const std::string& key) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = failures_.find(key);
  return it == failures_.end() ? 0 : it->second;
}

Reconciler::Reconciler(Options opts, ReconcileFn fn)
    : opts_(std::move(opts)),
      fn_(std::move(fn)),
      queue_(client::FairQueue::Options{opts_.fair, opts_.clock}),
      backoff_(opts_.backoff_base, opts_.backoff_max),
      exec_(Executor::SharedFor(opts_.clock)) {
  if (opts_.workers < 1) opts_.workers = 1;
  MetricsRegistry* reg =
      opts_.registry != nullptr ? opts_.registry : &MetricsRegistry::Global();
  metrics_reg_ = reg->Register(opts_.name, [this] {
    std::vector<MetricsRegistry::Sample> s;
    s.emplace_back("queue_depth", static_cast<double>(queue_.Len()));
    s.emplace_back("in_flight", static_cast<double>(InFlight()));
    s.emplace_back("reconciles", static_cast<double>(reconciles_.load()));
    s.emplace_back("retries", static_cast<double>(retries_.load()));
    AppendHistogram(&s, "queue_latency", queue_lat_);
    AppendHistogram(&s, "reconcile_latency", reconcile_lat_);
    return s;
  });
}

Reconciler::Reconciler(Options opts, SyncFn fn)
    : Reconciler(std::move(opts),
                 ReconcileFn([f = std::move(fn)](const Item& item) {
                   return f(item.key) ? ReconcileResult::Done() : ReconcileResult::Retry();
                 })) {}

Reconciler::~Reconciler() { Stop(); }

void Reconciler::Start() {
  {
    std::lock_guard<std::mutex> l(pump_mu_);
    if (started_) return;
    started_ = true;
  }
  stopping_.store(false);
  queue_.SetReadyCallback([this] { Pump(); });
  Pump();
}

void Reconciler::Stop() {
  stopping_.store(true);
  queue_.ShutDown();
  // Held slots finish now. A reconcile still running sees `stopping_` under
  // hold_mu_ in Hold() and finishes without holding, so one sweep suffices.
  std::map<uint64_t, Held> holds;
  {
    std::lock_guard<std::mutex> l(hold_mu_);
    holds.swap(holds_);
  }
  for (auto& [id, h] : holds) {
    // Blocks out an in-flight release, which then finds nothing to finish.
    h.timer.Cancel();
    Finish(h.item, h.retry, h.due - h.start);
  }
  {
    // Drain: in-flight reconciles finish (or short-circuit on `stopping_`);
    // queued items are consumed and Done'd without reconciling.
    BlockingRegion br;
    std::unique_lock<std::mutex> l(pump_mu_);
    drain_cv_.wait(l, [this] { return active_ == 0; });
    started_ = false;
  }
  // Cancel every delayed-requeue timer, superseded ones included; Cancel
  // blocks out an in-flight OnDelayed, so none runs after Stop returns. Done
  // outside delay_mu_, which OnDelayed takes. No timer is armed after this:
  // EnqueueAfter drops under `stopping_`, and in-flight reconciles arm their
  // retries before the slot decrement that the drain waited on.
  std::vector<TimerHandle> timers;
  {
    std::lock_guard<std::mutex> l(delay_mu_);
    timers.swap(timers_);
    delayed_.clear();
  }
  for (TimerHandle& t : timers) t.Cancel();
}

void Reconciler::RegisterTenant(const std::string& tenant, int weight) {
  queue_.RegisterTenant(tenant, weight);
}

void Reconciler::UnregisterTenant(const std::string& tenant) {
  queue_.UnregisterTenant(tenant);
}

void Reconciler::Enqueue(const std::string& tenant, const std::string& key) {
  {
    // An immediate add supersedes a pending delayed one (promote): drop the
    // entry so the timer no-ops, then enqueue now.
    std::lock_guard<std::mutex> l(delay_mu_);
    delayed_.erase(tenant + "|" + key);
  }
  queue_.Add(tenant, key);
}

void Reconciler::Enqueue(const std::string& key) {
  Enqueue(opts_.key_tenant ? opts_.key_tenant(key) : std::string(), key);
}

void Reconciler::EnqueueAfter(const std::string& tenant, const std::string& key,
                              Duration d) {
  if (d <= Duration::zero()) {
    Enqueue(tenant, key);
    return;
  }
  std::lock_guard<std::mutex> l(delay_mu_);
  if (stopping_.load()) return;
  // Promote-or-drop: a key already in the ready/dirty set will run anyway —
  // a delayed duplicate would make it run twice.
  if (queue_.IsQueued(tenant, key)) return;
  const TimePoint deadline = opts_.clock->Now() + d;
  auto [it, inserted] = delayed_.try_emplace(tenant + "|" + key, deadline);
  if (!inserted) {
    if (it->second <= deadline) return;  // sooner one armed
    it->second = deadline;
  }
  if (timers_.size() >= prune_at_) {
    std::erase_if(timers_, [](const TimerHandle& t) { return !t.active(); });
    prune_at_ = std::max<size_t>(64, 2 * timers_.size());
  }
  timers_.push_back(exec_->RunAfter(
      d, [this, tenant, key, deadline] { OnDelayed(tenant, key, deadline); }));
}

void Reconciler::EnqueueAfter(const std::string& key, Duration d) {
  EnqueueAfter(opts_.key_tenant ? opts_.key_tenant(key) : std::string(), key,
               d);
}

void Reconciler::OnDelayed(const std::string& tenant, const std::string& key,
                           TimePoint deadline) {
  {
    std::lock_guard<std::mutex> l(delay_mu_);
    auto it = delayed_.find(tenant + "|" + key);
    // Superseded (promoted, re-armed earlier, or swept): stale timer no-ops.
    if (it == delayed_.end() || it->second != deadline) return;
    delayed_.erase(it);
  }
  queue_.Add(tenant, key);
}

int Reconciler::InFlight() const {
  std::lock_guard<std::mutex> l(pump_mu_);
  return active_;
}

void Reconciler::Pump() {
  std::unique_lock<std::mutex> l(pump_mu_);
  while (active_ < opts_.workers) {
    std::optional<Item> item = queue_.TryGet();
    if (!item) break;
    ++active_;
    l.unlock();
    if (!exec_->Submit([this, it = *item] { Process(it); })) {
      LOG(WARN) << opts_.name << ": executor shut down; dropped " << item->key;
      queue_.Done(*item);
      l.lock();
      --active_;
      drain_cv_.notify_all();
      continue;
    }
    l.lock();
  }
}

void Reconciler::Process(const Item& item) {
  if (stopping_.load()) {
    Finish(item, std::nullopt, Duration::zero());
    return;
  }
  queue_lat_.Record(opts_.clock->Now() - item.enqueue_time);
  const TimePoint start = opts_.clock->Now();
  // One trace id per reconcile attempt; the scope makes it ambient so every
  // apiserver call the body makes (and the kv writes underneath) joins it.
  // arg identifies the reconciler (name hash; the name itself is in dumps of
  // the apiserver records the id links to).
  const uint64_t trace = trace::Enabled() ? trace::NewTraceId() : 0;
  trace::Emit(trace::Component::kReconciler, trace::Verb::kDequeue, trace, 0,
              item.key, Fnv1a64(opts_.name));
  trace::TraceScope scope(trace);
  const ReconcileResult r = fn_(item);
  trace::Emit(trace::Component::kReconciler, trace::Verb::kReconcile, trace,
              r.retry ? 1 : 0, item.key, Fnv1a64(opts_.name));
  if (r.hold > Duration::zero() && Hold(item, r.retry, start, r.hold)) return;
  Finish(item, r.retry, opts_.clock->Now() - start);
}

bool Reconciler::Hold(const Item& item, bool retry, TimePoint start,
                      Duration hold) {
  // hold_mu_ spans RunAfter: the release takes it, so it cannot miss the
  // entry filed here.
  std::lock_guard<std::mutex> l(hold_mu_);
  if (stopping_.load()) return false;
  const uint64_t id = hold_seq_++;
  TimerHandle timer = exec_->RunAfter(hold, [this, id] { ReleaseHold(id); });
  holds_.emplace(id, Held{item, retry, start, opts_.clock->Now() + hold,
                          std::move(timer)});
  return true;
}

void Reconciler::ReleaseHold(uint64_t id) {
  std::optional<Held> h;
  {
    std::lock_guard<std::mutex> l(hold_mu_);
    auto it = holds_.find(id);
    if (it == holds_.end()) return;  // Stop finished it
    h = std::move(it->second);
    holds_.erase(it);
  }
  // Already on a pool task (the timer's): the next item runs here.
  Finish(h->item, h->retry, opts_.clock->Now() - h->start, /*run_next_here=*/true);
}

void Reconciler::Finish(const Item& item, std::optional<bool> retry,
                        Duration latency, bool run_next_here) {
  if (retry) {
    reconcile_lat_.Record(latency);
    reconciles_.fetch_add(1);
    const std::string fk = item.tenant + "|" + item.key;
    if (*retry) {
      retries_.fetch_add(1);
      EnqueueAfter(item.tenant, item.key, backoff_.Next(fk));
    } else {
      backoff_.Forget(fk);
    }
  }
  queue_.Done(item);
  // Hand the slot to the next queued item instead of re-pumping after the
  // decrement: the moment active_ hits zero Stop() returns and the object may
  // be destroyed, so the decrement must be the last touch of `this` on this
  // code path.
  std::unique_lock<std::mutex> l(pump_mu_);
  std::optional<Item> next;
  if (!stopping_.load()) next = queue_.TryGet();
  if (next) {
    l.unlock();
    if (run_next_here) {
      Process(*next);
      return;
    }
    if (exec_->Submit([this, it = *next] { Process(it); })) return;
    LOG(WARN) << opts_.name << ": executor shut down; dropped " << next->key;
    queue_.Done(*next);
    l.lock();
  }
  --active_;
  drain_cv_.notify_all();
}

std::function<std::string(const std::string& key)> NamespacedKeyTenant(
    TenantOfFn tenant_of) {
  if (!tenant_of) return {};
  return [t = std::move(tenant_of)](const std::string& key) {
    return t(key.substr(0, key.find('/')));
  };
}

}  // namespace vc::controllers
