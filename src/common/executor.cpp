#include "common/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>


namespace vc {

namespace {

thread_local Executor* tls_exec = nullptr;
thread_local int tls_block_depth = 0;

}  // namespace

// ---------------------------------------------------------------------------
// TimerHandle

struct TimerHandle::State {
  std::mutex mu;
  std::condition_variable cv;
  std::function<void()> fn;
  Duration period{0};       // zero → one-shot
  TimePoint deadline{};
  bool cancelled = false;
  bool running = false;
  bool done = false;        // fired to completion (one-shot) or cancelled
  std::thread::id runner{};
};

bool TimerHandle::Cancel() {
  if (!state_) return false;
  std::unique_lock<std::mutex> l(state_->mu);
  const bool prevented = !state_->running && !state_->done;
  state_->cancelled = true;
  if (prevented) {
    // Still armed (or queued but not started): the fire task will observe
    // `cancelled` and return without running the callback.
    state_->done = true;
    state_->cv.notify_all();
    return true;
  }
  if (state_->running && state_->runner != std::this_thread::get_id()) {
    state_->cv.wait(l, [&] { return !state_->running; });
  }
  return false;
}

bool TimerHandle::active() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> l(state_->mu);
  return !state_->done;
}

// ---------------------------------------------------------------------------
// Executor: construction / pool

Executor::Executor(Options opts)
    : clock_(opts.clock != nullptr ? opts.clock : RealClock::Get()), name_(opts.name) {
  target_ = opts.threads;
  if (target_ <= 0) {
    target_ = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    for (int i = 0; i < target_; ++i) SpawnWorkerLocked();
  }
  if (clock_->TicksManually()) {
    // The notify takes timer_mu_: TimerLoop reads Now() and then waits under
    // it, and an Advance landing between the two must not be lost (a manual
    // clock's wait has no timeout to recover by).
    tick_listener_ = clock_->AddTickListener([this] {
      std::lock_guard<std::mutex> l(timer_mu_);
      timer_cv_.notify_all();
    });
    has_tick_listener_ = true;
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
  {
    std::lock_guard<std::mutex> l(mu_);
    ++threads_created_;  // the timer thread
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::SpawnWorkerLocked() {
  threads_.emplace_back([this] { WorkerLoop(); });
  ++live_;
  ++threads_created_;
}

bool Executor::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (pool_shutdown_) return false;
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
  return true;
}

void Executor::Wait() {
  std::unique_lock<std::mutex> l(mu_);
  idle_cv_.wait(l, [this] { return queue_.empty() && busy_ == 0; });
}

void Executor::WorkerLoop() {
  tls_exec = this;
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    work_cv_.wait(l, [this] { return pool_shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (pool_shutdown_) return;  // drained
      continue;
    }
    std::function<void()> fn = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    l.unlock();
    fn();
    fn = nullptr;  // destroy captures outside the lock
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    l.lock();
    --busy_;
    if (queue_.empty() && busy_ == 0) idle_cv_.notify_all();
  }
}

void Executor::OnBlocked() {
  std::lock_guard<std::mutex> l(mu_);
  ++blocked_;
  if (!pool_shutdown_ && live_ - blocked_ < target_ && live_ < target_ + kMaxSpareThreads) {
    SpawnWorkerLocked();
  }
}

void Executor::OnUnblocked() {
  std::lock_guard<std::mutex> l(mu_);
  --blocked_;
}

void Executor::BeginBlocking() {
  Executor* e = tls_exec;
  if (e == nullptr) return;
  if (tls_block_depth++ > 0) return;
  e->OnBlocked();
}

void Executor::EndBlocking() {
  Executor* e = tls_exec;
  if (e == nullptr) return;
  if (--tls_block_depth > 0) return;
  e->OnUnblocked();
}

int Executor::threads() const {
  std::lock_guard<std::mutex> l(mu_);
  return live_;
}

uint64_t Executor::threads_created() const {
  std::lock_guard<std::mutex> l(mu_);
  return threads_created_;
}

uint64_t Executor::tasks_run() const { return tasks_run_.load(std::memory_order_relaxed); }

size_t Executor::pending_timers() const {
  std::lock_guard<std::mutex> l(timer_mu_);
  return timers_.size();
}

// ---------------------------------------------------------------------------
// Timers

void Executor::Retire(const TimerPtr& state) {
  std::lock_guard<std::mutex> sl(state->mu);
  state->cancelled = true;
  state->done = true;
  state->cv.notify_all();
}

void Executor::TimerLoop() {
  const bool manual = clock_->TicksManually();
  std::unique_lock<std::mutex> l(timer_mu_);
  while (!timer_stop_) {
    const TimePoint now = clock_->Now();
    std::vector<TimerPtr> due;
    while (!timers_.empty() && timers_.begin()->first <= now) {
      due.push_back(std::move(timers_.begin()->second));
      timers_.erase(timers_.begin());
    }
    if (!due.empty()) {
      l.unlock();
      for (const TimerPtr& s : due) FireTimer(s);
      l.lock();
      continue;
    }
    if (manual || timers_.empty()) {
      // Manual clocks signal via the tick listener; otherwise there is
      // nothing to wait for until a new timer arrives.
      timer_cv_.wait(l);
    } else {
      timer_cv_.wait_for(l, timers_.begin()->first - now);
    }
  }
}

void Executor::Schedule(const TimerPtr& state) {
  const bool due = state->deadline <= clock_->Now();
  bool stopped;
  bool earliest = false;
  {
    std::lock_guard<std::mutex> l(timer_mu_);
    stopped = timer_stop_;
    if (!stopped && !due) {
      const auto it = timers_.emplace(state->deadline, state);
      earliest = it == timers_.begin();
    }
  }
  if (stopped) {
    Retire(state);
  } else if (due) {
    FireTimer(state);
  } else if (earliest && !clock_->TicksManually()) {
    // The timer thread sleeps until the earliest deadline; wake it to
    // shorten that sleep. Under a manual clock it sleeps until the next
    // Advance, and the tick listener wakes it then.
    timer_cv_.notify_all();
  }
}

void Executor::FireTimer(const TimerPtr& state) {
  bool ok = Submit([this, state] {
    {
      std::lock_guard<std::mutex> sl(state->mu);
      if (state->cancelled || state->done) return;
      state->running = true;
      state->runner = std::this_thread::get_id();
    }
    state->fn();
    bool rearm = false;
    {
      std::lock_guard<std::mutex> sl(state->mu);
      state->running = false;
      state->runner = std::thread::id{};
      if (state->period > Duration::zero() && !state->cancelled) {
        const TimePoint now = clock_->Now();
        state->deadline += state->period;
        if (state->deadline <= now) state->deadline = now + state->period;
        rearm = true;
      } else {
        state->done = true;
      }
      state->cv.notify_all();
    }
    if (rearm) Schedule(state);
  });
  if (!ok) Retire(state);
}

TimerHandle Executor::Arm(Duration delay, Duration period, std::function<void()> fn) {
  auto state = std::make_shared<TimerState>();
  state->fn = std::move(fn);
  state->period = period;
  state->deadline = clock_->Now() + std::max(Duration::zero(), delay);
  Schedule(state);
  return TimerHandle(std::move(state));
}

TimerHandle Executor::RunAfter(Duration delay, std::function<void()> fn) {
  return Arm(delay, Duration::zero(), std::move(fn));
}

TimerHandle Executor::RunEvery(Duration initial_delay, Duration period,
                               std::function<void()> fn) {
  return Arm(initial_delay, std::max(kMinPeriod, period), std::move(fn));
}

TimerHandle Executor::RunEvery(Duration period, std::function<void()> fn) {
  return RunEvery(period, period, std::move(fn));
}

// ---------------------------------------------------------------------------
// Shutdown

void Executor::Shutdown() {
  {
    std::lock_guard<std::mutex> l(shutdown_mu_);
    if (shut_) return;
    shut_ = true;
  }
  if (has_tick_listener_) clock_->RemoveTickListener(tick_listener_);
  std::multimap<TimePoint, TimerPtr> pending;
  {
    std::lock_guard<std::mutex> l(timer_mu_);
    timer_stop_ = true;
    pending.swap(timers_);
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Armed timers never made it to the pool.
  for (const auto& [deadline, s] : pending) Retire(s);
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> l(mu_);
    pool_shutdown_ = true;
    workers.swap(threads_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> l(mu_);
  live_ = 0;
}

// ---------------------------------------------------------------------------
// Registry

Executor* Executor::Default() {
  // Leaked on purpose: its threads and timers serve the whole process life.
  static Executor* exec = new Executor([] {
    Options o;
    o.name = "default-executor";
    return o;
  }());
  return exec;
}

namespace {

std::mutex g_registry_mu;
std::map<Clock*, std::weak_ptr<Executor>>& Registry() {
  static auto* m = new std::map<Clock*, std::weak_ptr<Executor>>();
  return *m;
}

}  // namespace

std::shared_ptr<Executor> Executor::SharedFor(Clock* clock) {
  if (clock == nullptr || clock == RealClock::Get()) {
    // Non-owning handle onto the process-wide executor.
    return std::shared_ptr<Executor>(Default(), [](Executor*) {});
  }
  std::lock_guard<std::mutex> l(g_registry_mu);
  std::weak_ptr<Executor>& slot = Registry()[clock];
  if (std::shared_ptr<Executor> sp = slot.lock()) return sp;
  Options o;
  o.clock = clock;
  o.name = "clock-executor";
  std::shared_ptr<Executor> sp(new Executor(o), [clock](Executor* e) {
    delete e;
    std::lock_guard<std::mutex> rl(g_registry_mu);
    auto it = Registry().find(clock);
    // Only erase if no concurrent SharedFor() already repopulated the slot.
    if (it != Registry().end() && it->second.expired()) Registry().erase(it);
  });
  slot = sp;
  return sp;
}

// ---------------------------------------------------------------------------
// Strand

Strand::Strand(std::shared_ptr<Executor> exec, std::function<bool()> body)
    : exec_(std::move(exec)), body_(std::move(body)) {}

void Strand::Signal() {
  uint32_t s = state_.load();
  uint32_t next;
  do {
    if ((s & kStopped) != 0 || s == (kActive | kPending)) return;
    next = (s & kActive) != 0 ? s | kPending : kActive;
  } while (!state_.compare_exchange_weak(s, next));
  if (next != kActive) return;  // the run in progress makes one more pass
  if (!exec_->Submit([this] { Run(); })) Run();
}

void Strand::Run() {
  for (;;) {
    // Consume the signals so far; one that lands during the body re-arms it.
    const uint32_t s = state_.fetch_and(~kPending);
    if ((s & kStopped) == 0 && body_()) continue;
    std::lock_guard<std::mutex> l(mu_);
    uint32_t cur = state_.load();
    while (cur == kActive || (cur & kStopped) != 0) {
      // Go idle; a stopped strand also drops the pass a signal asked for.
      if (state_.compare_exchange_weak(cur, cur & kStopped)) {
        idle_cv_.notify_all();
        return;
      }
    }
  }
}

void Strand::Flush() {
  const auto idle = [this] { return (state_.load() & kActive) == 0; };
  {
    // Checked under mu_: a run that has just gone idle may still be notifying.
    std::lock_guard<std::mutex> l(mu_);
    if (idle()) return;
  }
  BlockingRegion blocking;  // the run may need a pool slot to finish
  std::unique_lock<std::mutex> l(mu_);
  idle_cv_.wait(l, idle);
}

void Strand::Stop() {
  state_.fetch_or(kStopped);
  Flush();
}

void Strand::Start() { state_.fetch_and(~kStopped); }

void ParallelFor(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back([&fn, i] { fn(i); });
  // Joining can take arbitrarily long; if the caller is a shared-pool worker
  // the pool must not lose the slot while we wait.
  BlockingRegion br;
  for (auto& t : ts) t.join();
}

uint64_t ProcessThreadCount() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t n = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      n = std::strtoull(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return n;
}

}  // namespace vc
