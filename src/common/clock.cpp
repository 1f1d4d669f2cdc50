#include "common/clock.h"

#include <thread>

#include "common/executor.h"

namespace vc {

RealClock* RealClock::Get() {
  // Leaked like Executor::Default(), whose timer thread reads it until the
  // process is gone: a destroyed static would be called during exit.
  static RealClock* const clock = new RealClock();
  return clock;
}

void RealClock::SleepFor(Duration d) {
  if (d <= Duration::zero()) return;
  if (d >= Millis(5)) {
    // Long enough that a shared-pool worker sleeping here should not count
    // against the pool's capacity.
    BlockingRegion br;
    std::this_thread::sleep_for(d);
  } else {
    std::this_thread::sleep_for(d);
  }
}

int64_t RealClock::WallUnixMillis() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void ManualClock::SleepFor(Duration d) {
  // A manual-clock sleep blocks until some other thread calls Advance(); if
  // the sleeper is a pool worker, the pool must be compensated or the thread
  // that would Advance() could be starved of a worker slot.
  BlockingRegion br;
  std::unique_lock<std::mutex> l(mu_);
  const TimePoint deadline = now_ + d;
  cv_.wait(l, [&] { return now_ >= deadline; });
}

void ManualClock::Advance(Duration d) {
  {
    std::lock_guard<std::mutex> l(mu_);
    now_ += d;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> ll(listeners_mu_);
  for (auto& [id, fn] : listeners_) fn();
}

size_t ManualClock::AddTickListener(std::function<void()> fn) {
  std::lock_guard<std::mutex> l(listeners_mu_);
  const size_t id = next_listener_id_++;
  listeners_.emplace(id, std::move(fn));
  return id;
}

void ManualClock::RemoveTickListener(size_t id) {
  std::lock_guard<std::mutex> l(listeners_mu_);
  listeners_.erase(id);
}

}  // namespace vc
