// Helpers for tests that run a component on a manual clock: the component's
// retry and delay timers sit on the clock's shared executor and fire only
// when the test advances time, so a test can say exactly which ones fired.
#pragma once

#include <future>
#include <memory>

#include "common/executor.h"

namespace vc {

// Returns once the clock's shared executor has no queued or running task.
inline void Settle(Clock* clock) { Executor::SharedFor(clock)->Wait(); }

// Advances `clock` by `d` and returns once every timer due by then has fired
// and the tasks it started have finished. A sentinel timer due at the new
// time fires after every earlier one: the executor fires timers in deadline
// order and the pool starts tasks in FIFO order, so when the sentinel runs
// the earlier timers' tasks have started.
template <typename ManualTime>
void AdvanceAndSettle(ManualTime* clock, Duration d) {
  std::shared_ptr<Executor> exec = Executor::SharedFor(clock);
  std::promise<void> fired;
  TimerHandle sentinel = exec->RunAfter(d, [&fired] { fired.set_value(); });
  clock->Advance(d);
  fired.get_future().wait();
  exec->Wait();
}

}  // namespace vc
