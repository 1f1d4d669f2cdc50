#include "common/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

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
    // Still sitting in the wheel (or queued but not started): the fire task
    // will observe `cancelled` and return without running the callback.
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
    : clock_(opts.clock != nullptr ? opts.clock : RealClock::Get()),
      name_(opts.name),
      tick_duration_(Millis(1)),
      epoch_(clock_->Now()) {
  target_ = opts.threads;
  if (target_ <= 0) {
    target_ = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  }
  max_live_ = target_ + std::max(0, opts.max_spare_threads);
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
    if (pool_shutdown_) {
      LOG(WARN) << name_ << ": Submit after Shutdown; task dropped";
      return false;
    }
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
  if (!pool_shutdown_ && live_ - blocked_ < target_ && live_ < max_live_) {
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
  return timer_count_;
}

// ---------------------------------------------------------------------------
// Timer wheel
//
// Ticks are 1ms from `epoch_`. Level L slot width is 64^L ticks; a timer due
// in `delta` ticks lives at level L where 64^L <= delta < 64^(L+1), indexed by
// bits [6L, 6L+6) of its absolute due tick, so cascading a slot re-files its
// entries into lower levels with no re-sorting. Deadlines beyond the wheel
// horizon (~4.6h) sit in an overflow map. Clock jumps of >= 64 ticks (manual
// clocks fast-forwarding) take a bulk path that sweeps every slot once.

int64_t Executor::TickOf(TimePoint tp) const {
  const Duration d = tp - epoch_;
  if (d <= Duration::zero()) return 0;
  // Round deadlines up so a timer never fires before its due time.
  return (d.count() + tick_duration_.count() - 1) / tick_duration_.count();
}

int64_t Executor::FloorTickOf(TimePoint tp) const {
  const Duration d = tp - epoch_;
  if (d <= Duration::zero()) return 0;
  return d.count() / tick_duration_.count();
}

void Executor::ArmLocked(const TimerPtr& state, std::vector<TimerPtr>* due) {
  AddTimerLocked(state, due);
}

void Executor::AddTimerLocked(const TimerPtr& state, std::vector<TimerPtr>* due) {
  const int64_t dtick = TickOf(state->deadline);
  const int64_t delta = dtick - tick_;
  if (delta <= 0) {
    due->push_back(state);
    return;
  }
  int64_t span = kWheelSlots;
  for (int level = 0; level < kWheelLevels; ++level, span <<= kWheelBits) {
    if (delta < span) {
      const int idx = static_cast<int>((dtick >> (kWheelBits * level)) & (kWheelSlots - 1));
      wheel_[level][idx].push_back(state);
      ++timer_count_;
      return;
    }
  }
  overflow_.emplace(dtick, state);
  ++timer_count_;
}

void Executor::CascadeLocked(int level, std::vector<TimerPtr>* due) {
  if (level >= kWheelLevels) {
    // Pull overflow entries that now fit in the wheel.
    const int64_t horizon = tick_ + (int64_t{1} << (kWheelBits * kWheelLevels));
    while (!overflow_.empty() && overflow_.begin()->first < horizon) {
      TimerPtr s = overflow_.begin()->second;
      overflow_.erase(overflow_.begin());
      --timer_count_;
      AddTimerLocked(s, due);
    }
    return;
  }
  const int idx = static_cast<int>((tick_ >> (kWheelBits * level)) & (kWheelSlots - 1));
  std::vector<TimerPtr> entries = std::move(wheel_[level][idx]);
  wheel_[level][idx].clear();
  timer_count_ -= entries.size();
  if (idx == 0) CascadeLocked(level + 1, due);
  for (const TimerPtr& s : entries) AddTimerLocked(s, due);
}

void Executor::AdvanceLocked(int64_t now_tick, std::vector<TimerPtr>* due) {
  if (now_tick <= tick_) return;
  if (now_tick - tick_ >= kWheelSlots) {
    // Bulk path: collect everything and re-file against the new tick. Work is
    // O(pending timers), independent of how far the clock jumped.
    std::vector<TimerPtr> all;
    for (auto& level : wheel_) {
      for (auto& slot : level) {
        all.insert(all.end(), slot.begin(), slot.end());
        slot.clear();
      }
    }
    for (auto& [t, s] : overflow_) all.push_back(s);
    overflow_.clear();
    timer_count_ = 0;
    tick_ = now_tick;
    for (const TimerPtr& s : all) AddTimerLocked(s, due);
    return;
  }
  while (tick_ < now_tick) {
    ++tick_;
    const int idx = static_cast<int>(tick_ & (kWheelSlots - 1));
    if (idx == 0) CascadeLocked(1, due);
    std::vector<TimerPtr> entries = std::move(wheel_[0][idx]);
    wheel_[0][idx].clear();
    timer_count_ -= entries.size();
    // Everything filed in a level-0 slot is due exactly at that tick.
    for (const TimerPtr& s : entries) due->push_back(s);
  }
}

int64_t Executor::NextWakeTickLocked() const {
  if (timer_count_ == 0) return -1;
  for (int64_t t = tick_ + 1; t <= tick_ + kWheelSlots - 1; ++t) {
    if (!wheel_[0][t & (kWheelSlots - 1)].empty()) return t;
  }
  // Nothing in level 0: sleep to the next cascade boundary (<= 64 ticks out),
  // which will re-file upper-level entries downward.
  return (tick_ & ~static_cast<int64_t>(kWheelSlots - 1)) + kWheelSlots;
}

void Executor::TimerLoop() {
  const bool manual = clock_->TicksManually();
  std::unique_lock<std::mutex> l(timer_mu_);
  while (!timer_stop_) {
    std::vector<TimerPtr> due;
    AdvanceLocked(FloorTickOf(clock_->Now()), &due);
    if (!due.empty()) {
      l.unlock();
      for (const TimerPtr& s : due) FireTimer(s);
      l.lock();
      continue;
    }
    const int64_t wake = NextWakeTickLocked();
    if (manual || wake < 0) {
      // Manual clocks signal via the tick listener; otherwise there is
      // nothing to wait for until a new timer arrives.
      timer_cv_.wait(l);
      continue;
    }
    const TimePoint wake_tp = epoch_ + wake * tick_duration_;
    const TimePoint now = clock_->Now();
    const Duration d = wake_tp > now ? wake_tp - now : tick_duration_;
    timer_cv_.wait_for(l, d);
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
    if (rearm) {
      std::vector<TimerPtr> due;
      bool stopped;
      {
        std::lock_guard<std::mutex> tl(timer_mu_);
        stopped = timer_stop_;
        if (!stopped) ArmLocked(state, &due);
      }
      if (stopped) {
        std::lock_guard<std::mutex> sl(state->mu);
        state->done = true;
        state->cv.notify_all();
      } else {
        timer_cv_.notify_all();
        // A periodic timer that is already due again (period shorter than the
        // elapsed tick) fires from here rather than waiting for the wheel.
        for (const TimerPtr& s : due) FireTimer(s);
      }
    }
  });
  if (!ok) {
    std::lock_guard<std::mutex> sl(state->mu);
    state->done = true;
    state->cv.notify_all();
  }
}

TimerHandle Executor::RunAfter(Duration delay, std::function<void()> fn) {
  auto state = std::make_shared<TimerState>();
  state->fn = std::move(fn);
  state->deadline = clock_->Now() + std::max(Duration::zero(), delay);
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> l(timer_mu_);
    if (timer_stop_) {
      std::lock_guard<std::mutex> sl(state->mu);
      state->done = true;
      return TimerHandle(std::move(state));
    }
    if (delay <= Duration::zero()) {
      fire_now = true;
    } else {
      std::vector<TimerPtr> due;
      ArmLocked(state, &due);
      if (!due.empty()) fire_now = true;  // already past due on this clock
    }
  }
  TimerHandle h(state);
  if (fire_now) {
    FireTimer(state);
  } else {
    timer_cv_.notify_all();
  }
  return h;
}

TimerHandle Executor::RunEvery(Duration initial_delay, Duration period,
                               std::function<void()> fn) {
  auto state = std::make_shared<TimerState>();
  state->fn = std::move(fn);
  state->period = std::max<Duration>(tick_duration_, period);
  state->deadline = clock_->Now() + std::max(Duration::zero(), initial_delay);
  bool fire_now = false;
  {
    std::lock_guard<std::mutex> l(timer_mu_);
    if (timer_stop_) {
      std::lock_guard<std::mutex> sl(state->mu);
      state->done = true;
      return TimerHandle(std::move(state));
    }
    if (initial_delay <= Duration::zero()) {
      fire_now = true;
    } else {
      std::vector<TimerPtr> due;
      ArmLocked(state, &due);
      if (!due.empty()) fire_now = true;
    }
  }
  TimerHandle h(state);
  if (fire_now) {
    FireTimer(state);
  } else {
    timer_cv_.notify_all();
  }
  return h;
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
  std::vector<TimerPtr> pending;
  {
    std::lock_guard<std::mutex> l(timer_mu_);
    timer_stop_ = true;
    for (auto& level : wheel_) {
      for (auto& slot : level) {
        pending.insert(pending.end(), slot.begin(), slot.end());
        slot.clear();
      }
    }
    for (auto& [t, s] : overflow_) pending.push_back(s);
    overflow_.clear();
    timer_count_ = 0;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Timers still in the wheel never made it to the pool: mark them dead so
  // Cancel()/active() observers resolve.
  for (const TimerPtr& s : pending) {
    std::lock_guard<std::mutex> sl(s->mu);
    s->cancelled = true;
    s->done = true;
    s->cv.notify_all();
  }
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
