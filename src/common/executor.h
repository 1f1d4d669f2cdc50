// Shared task executor + timer service.
//
// The paper's §III-C centralization argument applied to our own threading:
// instead of every controller / worker pool / retry pump / heartbeat loop /
// per-tenant scan owning a dedicated thread (O(tenants × components) threads),
// all components share one bounded worker pool and one timer thread that
// keeps the armed timers in a single deadline-ordered map. Thread count stays
// O(hardware concurrency) regardless of how many tenants are attached.
//
// - Submit(fn): run fn on the shared pool. Returns false once the executor is
//   shut down; a caller that then drops the work says so (a Strand runs it
//   inline instead, the reconciler runtime warns).
// - RunAfter/RunEvery: cancellable timers driven off the injectable Clock.
//   Every timer due by Now() fires in deadline order (equal deadlines in arm
//   order), at its exact deadline. With a ManualClock timers fire only when
//   the test advances the clock (the executor registers a tick listener), so
//   fast-forward works and one long jump still fires in deadline order.
// - TimerHandle::Cancel(): returns true iff the callback was prevented from
//   (ever) running. Blocks while a callback is in flight, unless called from
//   inside the callback itself, so after Cancel() returns the callee may be
//   destroyed. Cancellation is lazy: the entry stays armed until its deadline
//   and is then dropped without running.
// - BlockingRegion: RAII marker a pool task wraps around operations that block
//   the worker (sleeps, joins, waiting on other tasks). The pool compensates
//   by spawning a spare worker so throughput is preserved and tasks waiting on
//   other tasks cannot deadlock the bounded pool. Spares are retained (they
//   become ordinary workers) rather than retired, bounding total threads at
//   target + kMaxSpareThreads.
//
// Executors are looked up per Clock via SharedFor(): components derive their
// executor from the clock they were already constructed with, so the real
// clock maps to the process-wide Default() executor and each test ManualClock
// gets its own deterministic executor that dies with its last user.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace vc {

class Executor;

// Cancellable handle for a timer created by RunAfter/RunEvery. Copyable;
// copies share the same underlying timer.
class TimerHandle {
 public:
  TimerHandle() = default;

  // Cancels the timer. Returns true when the pending fire was prevented (the
  // callback never ran and never will); false when the callback already ran,
  // is running, or the handle is empty. Blocks until an in-flight callback
  // returns unless invoked from that callback's own thread, so once Cancel()
  // has returned the callback's captures may safely be destroyed.
  bool Cancel();

  // True while the timer can still fire (not cancelled, not completed).
  bool active() const;

  explicit operator bool() const { return state_ != nullptr; }

 private:
  friend class Executor;
  struct State;
  explicit TimerHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Executor {
 public:
  struct Options {
    // Worker threads; 0 → max(2, hardware concurrency).
    int threads = 0;
    // Time source driving the timers. Under a manual clock timers fire only
    // via Advance() (the executor registers a tick listener).
    Clock* clock = nullptr;  // nullptr → RealClock::Get()
    std::string name = "executor";
  };

  Executor() : Executor(Options{}) {}
  explicit Executor(Options opts);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Enqueue work. Returns false after Shutdown.
  bool Submit(std::function<void()> fn);

  // One-shot timer: run fn on the pool once `delay` has elapsed on the clock.
  TimerHandle RunAfter(Duration delay, std::function<void()> fn);

  // Periodic timer: first fire after `initial_delay`, then re-armed `period`
  // after each completed run (fixed-rate anchor: if a run overshoots, the next
  // fire is scheduled from now rather than bursting to catch up). Runs never
  // overlap. Periods shorter than kMinPeriod are raised to it.
  TimerHandle RunEvery(Duration initial_delay, Duration period, std::function<void()> fn);
  TimerHandle RunEvery(Duration period, std::function<void()> fn);

  // Blocks until the task queue is empty and no task is executing (pending
  // timers that have not fired do not count).
  void Wait();

  // Stops the timer thread (pending timers are cancelled), drains the task
  // queue, and joins all workers. Idempotent.
  void Shutdown();

  Clock* clock() const { return clock_; }
  // Live worker threads right now (excludes the timer thread).
  int threads() const;
  // Total threads ever created by this executor (workers + spares + timer).
  uint64_t threads_created() const;
  uint64_t tasks_run() const;
  // Armed timers, cancelled ones included until their deadline passes.
  size_t pending_timers() const;

  // Process-wide executor on the real clock. Created on first use; its
  // threads live until process exit.
  static Executor* Default();

  // Shared executor for `clock`: the real clock maps to Default() (non-owning
  // handle); any other clock gets a lazily-created executor shared by all
  // components using that clock and destroyed with its last reference.
  static std::shared_ptr<Executor> SharedFor(Clock* clock);

  // Blocking-compensation markers (no-ops off-pool). Prefer BlockingRegion.
  static void BeginBlocking();
  static void EndBlocking();

  // Shortest RunEvery period.
  static constexpr Duration kMinPeriod = Millis(1);

 private:
  using TimerState = TimerHandle::State;
  using TimerPtr = std::shared_ptr<TimerState>;

  // Cap on compensation workers spawned for BlockingRegions.
  static constexpr int kMaxSpareThreads = 256;

  void WorkerLoop();
  void TimerLoop();
  void SpawnWorkerLocked();
  void OnBlocked();
  void OnUnblocked();

  // The one arm path behind RunAfter and both RunEvery overloads.
  TimerHandle Arm(Duration delay, Duration period, std::function<void()> fn);
  // Files `state` under its deadline, or fires it at once when it is already
  // due; after Shutdown it retires the timer instead.
  void Schedule(const TimerPtr& state);
  void FireTimer(const TimerPtr& state);
  // Marks a timer that will never run again as finished, so Cancel()/active()
  // observers resolve.
  static void Retire(const TimerPtr& state);

  Clock* clock_;
  const std::string name_;

  // Worker pool.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int target_ = 0;
  int live_ = 0;
  int blocked_ = 0;
  int busy_ = 0;
  bool pool_shutdown_ = false;
  uint64_t threads_created_ = 0;
  std::atomic<uint64_t> tasks_run_{0};

  // Armed timers by deadline; a multimap keeps equal deadlines in arm order.
  mutable std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::multimap<TimePoint, TimerPtr> timers_;
  bool timer_stop_ = false;
  std::thread timer_thread_;
  size_t tick_listener_ = 0;
  bool has_tick_listener_ = false;

  std::mutex shutdown_mu_;
  bool shut_ = false;
};

// RAII wrapper for Executor::BeginBlocking/EndBlocking. Wrap any section of a
// pool task that blocks on something other than its own CPU work.
class BlockingRegion {
 public:
  BlockingRegion() { Executor::BeginBlocking(); }
  ~BlockingRegion() { Executor::EndBlocking(); }
  BlockingRegion(const BlockingRegion&) = delete;
  BlockingRegion& operator=(const BlockingRegion&) = delete;
};

// Strand: runs one body on an Executor, one call at a time — the
// "schedule → rerun-if-signalled → drain-on-stop" loop behind the kv watch
// dispatch, the watch cache's apply and every informer's reflector step.
//
// - The body returns true while it has more work right now.
// - Signal(): submits a run only when the strand is idle. While a run is
//   scheduled or in progress it only marks "run again": one atomic
//   read-modify-write, no task, and K signals during a run add exactly one
//   more body pass. A run calls the body in place on its worker until the
//   body reports no more work and no signal arrived since the pass began, so
//   a busy strand holds its worker for as long as work keeps arriving. A body
//   that drains in bounded batches bounds only the time between its own
//   checks (stop), not how long the strand holds the worker.
// - Flush(): returns once every run signalled before the call has finished.
// - Stop(): refuses further runs (Signal becomes a no-op and a scheduled run
//   exits without calling the body), then waits, inside a BlockingRegion,
//   for the run in progress. Start() admits runs again. The destructor stops.
// - If Submit fails (the executor is shut down) the run happens inline on the
//   signalling thread, so no signalled work is lost.
//
// Flush and Stop must not be called from inside the body (they would wait for
// themselves). Declare a Strand member after everything its body touches, so
// it stops before any of that is destroyed.
class Strand {
 public:
  Strand(std::shared_ptr<Executor> exec, std::function<bool()> body);
  ~Strand() { Stop(); }

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  void Signal();
  void Flush();
  void Stop();
  void Start();

  Executor* executor() const { return exec_.get(); }

 private:
  // state_ bits. kActive: a run is scheduled or in progress. kPending: a
  // signal arrived during that run. kStopped: runs are refused.
  static constexpr uint32_t kActive = 1;
  static constexpr uint32_t kPending = 2;
  static constexpr uint32_t kStopped = 4;

  void Run();

  const std::shared_ptr<Executor> exec_;
  const std::function<bool()> body_;
  std::atomic<uint32_t> state_{0};
  // A run leaves kActive under mu_, so a waiter that saw it set is woken,
  // and the run touches nothing of the strand after that unlock.
  std::mutex mu_;
  std::condition_variable idle_cv_;
};

// Launch `n` copies of fn(i) on fresh threads and join them all, inside a
// BlockingRegion. For fan-out bursts and load generation where per-thread
// identity matters.
void ParallelFor(int n, const std::function<void(int)>& fn);

// Number of OS threads in this process (from /proc/self/status), for
// benchmarks that assert thread-count bounds.
uint64_t ProcessThreadCount();

}  // namespace vc
