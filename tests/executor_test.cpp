// Unit tests for the shared executor + timer service (common/executor.h):
// task ordering, timer cancellation semantics, RunEvery behaviour under
// manual-clock fast-forward, shutdown with pending timers, blocking
// compensation, and the Strand's Signal/Flush/Stop contract.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "pool_gate.h"

namespace vc {
namespace {

// Polls a predicate on the real clock: timer fires are asynchronous (the
// timer thread submits callbacks to the pool) even when a ManualClock drives
// the timers, so observable effects need a real-time wait.
template <typename Pred>
bool Eventually(Pred pred, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (pred()) return true;
    RealClock::Get()->SleepFor(Millis(1));
  }
  return pred();
}

TEST(ExecutorTest, SubmittedTasksRunInOrderOnSingleWorker) {
  Executor::Options o;
  o.threads = 1;
  Executor exec(o);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(exec.Submit([&, i] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(i);
    }));
  }
  exec.Wait();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(exec.tasks_run(), 32u);
}

TEST(ExecutorTest, SubmitAfterShutdownReturnsFalse) {
  Executor exec;
  std::atomic<int> ran{0};
  ASSERT_TRUE(exec.Submit([&] { ran++; }));
  exec.Shutdown();
  EXPECT_FALSE(exec.Submit([&] { ran++; }));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorTest, TimersFireInDeadlineOrder) {
  ManualClock clock;
  Executor::Options o;
  o.threads = 1;  // serialize fires so the order is observable
  o.clock = &clock;
  Executor exec(o);
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&, id] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(id);
    };
  };
  exec.RunAfter(Millis(30), record(3));
  exec.RunAfter(Millis(10), record(1));
  exec.RunAfter(Millis(20), record(2));
  EXPECT_EQ(exec.pending_timers(), 3u);

  clock.Advance(Millis(100));  // one bulk jump past all three deadlines
  ASSERT_TRUE(Eventually([&] {
    std::lock_guard<std::mutex> l(mu);
    return order.size() == 3u;
  }));
  std::lock_guard<std::mutex> l(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(exec.pending_timers(), 0u);
}

// One long manual-clock jump fires every due timer in deadline order, not in
// arm order, and leaves the later ones armed.
TEST(ExecutorTest, LongJumpFiresInDeadlineOrder) {
  ManualClock clock;
  Executor::Options o;
  o.threads = 1;  // serialize fires so the order is observable
  o.clock = &clock;
  Executor exec(o);
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&, id] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(id);
    };
  };
  auto fired = [&](size_t n) {
    return Eventually([&] {
      std::lock_guard<std::mutex> l(mu);
      return order.size() == n;
    });
  };
  constexpr int kFiveHoursMs = 5 * 3600 * 1000;  // ids are delays in ms
  exec.RunAfter(std::chrono::hours(5), record(kFiveHoursMs));
  exec.RunAfter(Millis(100), record(100));
  exec.RunAfter(Millis(70), record(70));
  exec.RunAfter(Millis(5), record(5));

  clock.Advance(Millis(200));
  ASSERT_TRUE(fired(3));
  {
    std::lock_guard<std::mutex> l(mu);
    EXPECT_EQ(order, (std::vector<int>{5, 70, 100}));
  }
  EXPECT_EQ(exec.pending_timers(), 1u);

  clock.Advance(std::chrono::hours(5));
  ASSERT_TRUE(fired(4));
  std::lock_guard<std::mutex> l(mu);
  EXPECT_EQ(order.back(), kFiveHoursMs);
  EXPECT_EQ(exec.pending_timers(), 0u);
}

// Deadlines are exact, not rounded up to a millisecond.
TEST(ExecutorTest, SubMillisecondDeadlineFiresOnTime) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  exec.RunAfter(Micros(1500), [&] { fired++; });
  clock.Advance(Micros(1500));
  EXPECT_TRUE(Eventually([&] { return fired.load() == 1; }));
}

// On the real clock the timer thread sleeps until the earliest deadline; a
// timer armed into an empty executor, or ahead of every armed one, must wake
// it.
TEST(ExecutorTest, RealClockTimerWakesSleepingTimerThread) {
  Executor exec;
  std::atomic<int> fired{0};
  exec.RunAfter(Millis(5), [&] { fired++; });
  ASSERT_TRUE(Eventually([&] { return fired.load() == 1; }, 1000));
  TimerHandle late = exec.RunAfter(Seconds(60), [&] { fired += 100; });
  exec.RunAfter(Millis(5), [&] { fired++; });
  EXPECT_TRUE(Eventually([&] { return fired.load() == 2; }, 1000));
  EXPECT_TRUE(late.Cancel());
}

TEST(ExecutorTest, TimerNeverFiresEarly) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  exec.RunAfter(Millis(10), [&] { fired++; });
  clock.Advance(Millis(9));
  RealClock::Get()->SleepFor(Millis(50));
  EXPECT_EQ(fired.load(), 0);
  clock.Advance(Millis(1));
  EXPECT_TRUE(Eventually([&] { return fired.load() == 1; }));
}

TEST(ExecutorTest, CancelPreventsPendingFire) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunAfter(Millis(10), [&] { fired++; });
  EXPECT_TRUE(h.active());
  EXPECT_TRUE(h.Cancel());   // prevented
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.Cancel());  // second cancel: nothing left to prevent
  clock.Advance(Millis(100));
  RealClock::Get()->SleepFor(Millis(50));
  EXPECT_EQ(fired.load(), 0);
}

TEST(ExecutorTest, CancelAfterFireReportsNotPrevented) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunAfter(Millis(5), [&] { fired++; });
  clock.Advance(Millis(10));
  ASSERT_TRUE(Eventually([&] { return fired.load() == 1; }));
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.active());
}

TEST(ExecutorTest, EmptyHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h);
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(h.Cancel());
}

// A bulk fast-forward spanning many periods must produce ONE fire (fixed-rate
// re-arm anchors the next deadline at now + period), not a catch-up burst.
TEST(ExecutorTest, RunEveryDoesNotBurstAfterFastForward) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunEvery(Millis(10), [&] { fired++; });

  clock.Advance(Millis(500));  // 50 periods in one jump
  ASSERT_TRUE(Eventually([&] { return fired.load() >= 1; }));
  RealClock::Get()->SleepFor(Millis(50));  // give a would-be burst time to show
  EXPECT_EQ(fired.load(), 1);

  // Steady ticking resumes at the period from the (re-anchored) deadline.
  for (int i = 0; i < 3; ++i) {
    int before = fired.load();
    clock.Advance(Millis(10));
    ASSERT_TRUE(Eventually([&] { return fired.load() == before + 1; }));
  }
  EXPECT_TRUE(h.Cancel());
}

TEST(ExecutorTest, RunEveryCancelStopsRepeats) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunEvery(Millis(10), [&] { fired++; });
  clock.Advance(Millis(10));
  ASSERT_TRUE(Eventually([&] { return fired.load() == 1; }));
  h.Cancel();  // in-flight or re-armed — either way, no further fires
  int settled = fired.load();
  clock.Advance(Millis(200));
  RealClock::Get()->SleepFor(Millis(50));
  EXPECT_EQ(fired.load(), settled);
  EXPECT_FALSE(h.active());
}

TEST(ExecutorTest, RunEveryInitialDelayIsHonored) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunEvery(Millis(50), Millis(10), [&] { fired++; });
  clock.Advance(Millis(40));
  RealClock::Get()->SleepFor(Millis(30));
  EXPECT_EQ(fired.load(), 0);  // still inside the initial delay
  clock.Advance(Millis(10));
  ASSERT_TRUE(Eventually([&] { return fired.load() == 1; }));
  clock.Advance(Millis(10));
  ASSERT_TRUE(Eventually([&] { return fired.load() == 2; }));
  h.Cancel();
}

// Destroying an executor with armed timers must not fire or leak them.
TEST(ExecutorTest, ShutdownWithPendingTimers) {
  ManualClock clock;
  std::atomic<int> fired{0};
  {
    Executor::Options o;
    o.clock = &clock;
    Executor exec(o);
    for (int i = 0; i < 100; ++i) {
      exec.RunAfter(Millis(10 + i), [&] { fired++; });
    }
    exec.RunEvery(Millis(5), [&] { fired++; });
    EXPECT_EQ(exec.pending_timers(), 101u);
    exec.Shutdown();
  }
  // Advancing the clock after teardown must be inert (the tick listener was
  // removed) — this would crash or fire if shutdown leaked armed timers.
  clock.Advance(Seconds(10));
  RealClock::Get()->SleepFor(Millis(20));
  EXPECT_EQ(fired.load(), 0);
}

TEST(ExecutorTest, RunAfterAfterShutdownIsInert) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  exec.Shutdown();
  std::atomic<int> fired{0};
  TimerHandle h = exec.RunAfter(Millis(1), [&] { fired++; });
  clock.Advance(Millis(10));
  RealClock::Get()->SleepFor(Millis(20));
  EXPECT_EQ(fired.load(), 0);
  EXPECT_FALSE(h.active());
}

// A worker that blocks inside a BlockingRegion must not starve the pool:
// compensation spawns a spare so queued tasks keep running, and tasks that
// wait on other tasks cannot deadlock a bounded pool.
TEST(ExecutorTest, BlockingRegionSpawnsCompensation) {
  Executor::Options o;
  o.threads = 1;  // the tightest pool: one blocked worker = full stall
  Executor exec(o);
  std::atomic<bool> release{false};
  std::atomic<bool> unblocked{false};
  ASSERT_TRUE(exec.Submit([&] {
    BlockingRegion br;
    while (!release.load()) RealClock::Get()->SleepFor(Millis(1));
  }));
  // Without compensation this second task would never run.
  ASSERT_TRUE(exec.Submit([&] { unblocked = true; }));
  EXPECT_TRUE(Eventually([&] { return unblocked.load(); }));
  release = true;
  exec.Wait();
  EXPECT_GE(exec.threads(), 2);  // the spare was retained as a worker
}

TEST(ExecutorTest, SharedForReturnsSameExecutorPerClock) {
  ManualClock clock;
  std::shared_ptr<Executor> a = Executor::SharedFor(&clock);
  std::shared_ptr<Executor> b = Executor::SharedFor(&clock);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->clock(), &clock);

  ManualClock other;
  std::shared_ptr<Executor> c = Executor::SharedFor(&other);
  EXPECT_NE(a.get(), c.get());

  // The real clock (and nullptr) map to the process-wide default.
  EXPECT_EQ(Executor::SharedFor(RealClock::Get()).get(), Executor::Default());
  EXPECT_EQ(Executor::SharedFor(nullptr).get(), Executor::Default());
}

// The per-clock executor dies with its last reference; a fresh SharedFor on
// the same clock builds a fresh executor rather than resurrecting the dead
// one.
TEST(ExecutorTest, SharedForExecutorDiesWithLastReference) {
  ManualClock clock;
  Executor* first;
  {
    std::shared_ptr<Executor> a = Executor::SharedFor(&clock);
    first = a.get();
    std::atomic<int> ran{0};
    ASSERT_TRUE(a->Submit([&] { ran++; }));
    EXPECT_TRUE(Eventually([&] { return ran.load() == 1; }));
  }
  std::shared_ptr<Executor> b = Executor::SharedFor(&clock);
  ASSERT_NE(b, nullptr);
  std::atomic<int> ran{0};
  ASSERT_TRUE(b->Submit([&] { ran++; }));
  EXPECT_TRUE(Eventually([&] { return ran.load() == 1; }));
  (void)first;  // the old pointer may or may not be reused by the allocator
}

// Many components arming and cancelling timers concurrently while the clock
// fast-forwards: the executor must neither lose nor double-fire timers.
TEST(ExecutorTest, ConcurrentArmCancelAdvanceStress) {
  ManualClock clock;
  Executor::Options o;
  o.clock = &clock;
  Executor exec(o);
  std::atomic<int> fired{0};
  std::atomic<bool> stop{false};

  std::thread advancer([&] {
    while (!stop.load()) {
      clock.Advance(Millis(7));
      RealClock::Get()->SleepFor(Millis(1));
    }
  });

  constexpr int kIters = 200;
  std::atomic<int> cancelled{0};
  std::thread armer([&] {
    for (int i = 0; i < kIters; ++i) {
      TimerHandle h = exec.RunAfter(Millis(1 + i % 20), [&] { fired++; });
      if (i % 3 == 0) {
        if (h.Cancel()) cancelled++;
      }
    }
  });
  armer.join();
  // Every timer either fired or was counted as prevented — none lost.
  EXPECT_TRUE(Eventually([&] { return fired.load() + cancelled.load() == kIters; }));
  stop = true;
  advancer.join();
  EXPECT_EQ(fired.load() + cancelled.load(), kIters);
}

// ---------------------------------------------------------------------------
// Strand

std::shared_ptr<Executor> SmallExecutor(int threads = 2) {
  Executor::Options o;
  o.threads = threads;
  return std::make_shared<Executor>(o);
}

// A strand body that parks inside its first pass until Release(), so a test
// can act while a run is in progress.
class ParkingBody {
 public:
  bool operator()() {
    std::unique_lock<std::mutex> l(mu_);
    ++passes_;
    cv_.notify_all();
    cv_.wait(l, [this] { return released_; });
    return false;
  }
  void AwaitPasses(int n) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return passes_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int passes() {
    std::lock_guard<std::mutex> l(mu_);
    return passes_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int passes_ = 0;
  bool released_ = false;
};

// Signals that land while a run is queued behind a parked pool cost no task
// and no extra pass: the queued run has not consumed anything yet.
TEST(StrandTest, SignalsWhileScheduledShareOneTask) {
  auto exec = SmallExecutor();
  std::atomic<int> passes{0};
  Strand strand(exec, [&] {
    passes++;
    return false;
  });
  const uint64_t before = exec->tasks_run();
  {
    ExecutorGate gate(exec.get());
    for (int i = 0; i < 16; ++i) strand.Signal();
  }
  strand.Flush();
  exec->Wait();
  EXPECT_EQ(passes.load(), 1);
  // The gate's own tasks plus exactly one strand run.
  EXPECT_EQ(exec->tasks_run() - before, static_cast<uint64_t>(exec->threads()) + 1);
}

// K signals during a parked body pass add no task and exactly one more pass.
TEST(StrandTest, SignalsDuringRunAddOnePassAndNoTask) {
  auto exec = SmallExecutor();
  ParkingBody body;
  Strand strand(exec, [&] { return body(); });
  strand.Signal();
  body.AwaitPasses(1);
  const uint64_t tasks = exec->tasks_run();
  for (int i = 0; i < 16; ++i) strand.Signal();
  body.Release();
  strand.Flush();
  exec->Wait();
  EXPECT_EQ(body.passes(), 2);
  EXPECT_EQ(exec->tasks_run() - tasks, 1u);  // the run itself, now finished
}

// A run loops in place while the body reports more work.
TEST(StrandTest, RunLoopsWhileBodyHasMore) {
  auto exec = SmallExecutor();
  std::atomic<int> passes{0};
  Strand strand(exec, [&] { return ++passes < 5; });
  const uint64_t before = exec->tasks_run();
  strand.Signal();
  strand.Flush();
  exec->Wait();
  EXPECT_EQ(passes.load(), 5);
  EXPECT_EQ(exec->tasks_run() - before, 1u);
}

TEST(StrandTest, FlushWaitsForSignalledRun) {
  auto exec = SmallExecutor();
  std::atomic<bool> done{false};
  Strand strand(exec, [&] {
    RealClock::Get()->SleepFor(Millis(30));
    done = true;
    return false;
  });
  strand.Signal();
  strand.Flush();
  EXPECT_TRUE(done.load());
}

// Stop waits out the pass in progress; the pass a signal asked for during it
// and every later signal are refused.
TEST(StrandTest, StopWaitsOutRunAndRefusesMore) {
  auto exec = SmallExecutor();
  ParkingBody body;
  Strand strand(exec, [&] { return body(); });
  strand.Signal();
  body.AwaitPasses(1);
  strand.Signal();  // asks for a second pass
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    strand.Stop();
    stopped = true;
  });
  RealClock::Get()->SleepFor(Millis(20));
  EXPECT_FALSE(stopped.load());  // the parked pass is still in progress
  body.Release();
  stopper.join();
  const uint64_t tasks = exec->tasks_run();
  strand.Signal();
  exec->Wait();
  EXPECT_EQ(body.passes(), 1);
  EXPECT_EQ(exec->tasks_run(), tasks);
}

TEST(StrandTest, SignalWorksAgainAfterRestart) {
  auto exec = SmallExecutor();
  std::atomic<int> passes{0};
  Strand strand(exec, [&] {
    passes++;
    return false;
  });
  strand.Signal();
  strand.Flush();
  strand.Stop();
  strand.Signal();
  exec->Wait();
  EXPECT_EQ(passes.load(), 1);
  strand.Start();
  strand.Signal();
  strand.Flush();
  EXPECT_EQ(passes.load(), 2);
}

// Once the executor is shut down Submit fails, and the run happens inline on
// the signalling thread so no signalled work is lost.
TEST(StrandTest, RunsInlineWhenSubmitFails) {
  auto exec = SmallExecutor();
  exec->Shutdown();
  std::atomic<int> passes{0};
  std::thread::id ran_on;
  Strand strand(exec, [&] {
    ran_on = std::this_thread::get_id();
    return ++passes < 3;
  });
  strand.Signal();
  EXPECT_EQ(passes.load(), 3);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  strand.Signal();
  EXPECT_EQ(passes.load(), 4);
}

}  // namespace
}  // namespace vc
