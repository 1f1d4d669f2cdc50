// Helpers for tests that hold one component's executor still while the rest
// of the system runs: ExecutorGate parks every worker of an executor, and a
// component built on its own OwnPoolClock gets an executor nothing else
// shares.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/executor.h"

namespace vc {

// Real time on a clock of its own. Executor::SharedFor keys pools by clock,
// so a component built on this clock runs its strands (watch fan-out, watch
// cache apply, timers) on a pool of its own, which an ExecutorGate can park
// while components on the real clock keep running.
class OwnPoolClock final : public Clock {
 public:
  TimePoint Now() const override { return RealClock::Get()->Now(); }
  void SleepFor(Duration d) override { RealClock::Get()->SleepFor(d); }
  int64_t WallUnixMillis() const override { return RealClock::Get()->WallUnixMillis(); }
};

// Parks every worker of `exec` until destroyed: while the gate lives no task
// on that executor runs, so no watch consumer it hosts (store fan-out, watch
// cache, informer) sees a write made meanwhile.
class ExecutorGate {
 public:
  explicit ExecutorGate(Executor* exec) : workers_(exec->threads()) {
    for (int i = 0; i < workers_; ++i) {
      exec->Submit([this] {
        std::unique_lock<std::mutex> l(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(l, [this] { return open_; });
        --parked_;
        cv_.notify_all();
      });
    }
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return parked_ == workers_; });
  }
  // Releases the workers and waits until each has left its task, so the
  // gate outlives every use of it.
  ~ExecutorGate() {
    std::unique_lock<std::mutex> l(mu_);
    open_ = true;
    cv_.notify_all();
    cv_.wait(l, [this] { return parked_ == 0; });
  }

  ExecutorGate(const ExecutorGate&) = delete;
  ExecutorGate& operator=(const ExecutorGate&) = delete;

 private:
  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  bool open_ = false;
};

}  // namespace vc
