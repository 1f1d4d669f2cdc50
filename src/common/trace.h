// vc::trace — nanosecond-overhead request tracing for the control plane.
//
// The hot path (Emit) writes one fixed-size binary record into a per-thread
// lock-free ring buffer: no syscalls, no locks, no allocation, no formatting.
// Formatting is deferred to DumpText()/Drain(), which run off the hot path
// (test teardown, failure hooks, the history checker). The design follows the
// best-effort-logger shape: per-thread buffers published through an atomic
// registry, fixed-size records, oldest-record overwrite on ring wrap.
//
//   * One record is 64 bytes (8 words), written as relaxed atomic word
//     stores so a concurrent drain is bounded-stale, never UB. The writer
//     publishes with a release store of the ring head; a reader that observes
//     head >= seq + kRingSize knows slot seq may be mid-overwrite and counts
//     it as dropped instead of decoding torn bytes.
//   * Thread registry: up to kMaxThreads buffers in an atomic slot array.
//     Slots are recycled through a free list when threads exit (records of a
//     dead thread stay drainable until the slot is reused).
//   * Overflow is explicit: head - drained beyond the ring capacity means the
//     oldest records were overwritten before anybody drained them. The
//     per-thread dropped counters are exported through the MetricsRegistry
//     and the history checker refuses to certify a window with drops.
//   * Opt-in: tracing is OFF by default (Enabled() is a relaxed bool load,
//     so a disabled Emit costs one branch). The shared test main enables it
//     for every test binary; production callers opt in via SetEnabled(true).
//
// Trace IDs: NewTraceId() is lock-free (per-thread counter salted by the
// thread's registration incarnation) and ids stay below 2^53 so they survive
// a round-trip through the double-valued MetricsRegistry (exemplars).
// CurrentTraceId()/TraceScope thread a request's id through layers that do
// not pass a RequestContext explicitly (kv writes under an apiserver verb,
// reconcile bodies calling back into the apiserver).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vc {
class MetricsRegistry;
}

namespace vc::trace {

// Who emitted the record. Values are stable (they appear in dumps).
enum class Component : uint8_t {
  kApiServer = 0,   // verb entry (request span root)
  kDispatch = 1,    // RequestDispatcher Admit/Queue/Execute/Account/Shed
  kKv = 2,          // store mutations
  kWatch = 3,       // per-watcher fan-out (arg = watcher id)
  kWatchCache = 4,  // WatchCache apply / fresh serves
  kReconciler = 5,  // reconciler runtime dequeue/reconcile
  kSyncer = 6,      // cross-cluster up/down sync
  kKubelet = 7,     // node agent status writes
  kTest = 8,        // tests / synthetic histories
};

enum class Verb : uint8_t {
  // Request pipeline (kApiServer / kDispatch).
  kRequest = 0,  // verb admitted at the apiserver; key = "<verb> <Kind>"
  kAdmit = 1,    // dispatcher classification; arg = band
  kQueue = 2,    // had to wait for a slot; arg = band
  kExecute = 3,  // slot granted (recorded under the dispatcher lock); arg = band
  kAccount = 4,  // slot released (under the lock); arg = band
  kShed = 5,     // rejected 429/503; arg = band
  // Store mutations (kKv). revision = committed store revision.
  kPut = 6,
  kDelete = 7,
  kCasFail = 8,  // conditional write lost its race; revision = expected
  // Per-watcher fan-out (kWatch). arg = watcher id; exactly one of these is
  // recorded per (watcher, store revision) once the watcher is registered —
  // that totality is what makes the no-gap check sound.
  kDeliver = 9,    // data event offered
  kBookmark = 10,  // revision-only bookmark offered
  kSkip = 11,      // invisible to this watcher (prefix miss / filtered)
  // Watch cache (kWatchCache).
  kCacheApply = 12,  // event applied; revision = cache revision after apply
  kCacheServe = 13,  // fresh read served; revision = observed, arg = target
  // Reconciler runtime (kReconciler). arg = Fnv1a64(reconciler name).
  kDequeue = 14,
  kReconcile = 15,  // body returned; revision = 1 on retry, else 0
  // Syncer (kSyncer).
  kDownSync = 16,
  kUpSync = 17,
  // Kubelet (kKubelet).
  kStatusWrite = 18,
};

const char* ComponentName(Component c);
const char* VerbName(Verb v);

// Bytes of key preserved per record (the tail of the key — the discriminating
// part of /registry/<Kind>/<ns>/<name> paths).
inline constexpr size_t kKeyBytes = 24;

// A decoded record (drain/dump side only; the ring holds the packed form).
struct TraceRecord {
  uint64_t trace_id = 0;
  uint64_t t_mono_ns = 0;  // steady_clock, comparable across threads
  int64_t revision = 0;
  uint64_t arg = 0;
  uint32_t thread = 0;  // registry slot of the emitting thread
  uint16_t key_len = 0;  // original key length (key below may be truncated)
  Component component = Component::kTest;
  Verb verb = Verb::kRequest;
  std::string key;  // at most kKeyBytes (tail of the original key)
};

namespace internal {

inline constexpr size_t kRingSize = 8192;  // records per thread, power of two
inline constexpr size_t kMaxThreads = 256;

// One packed record: 8 relaxed-atomic words (64 bytes, one cache line).
//   w0 trace_id | w1 t_mono_ns | w2 revision | w3 arg
//   w4 tid | verb<<32 | component<<40 | key_len<<48
//   w5..w7 key bytes (tail, zero-padded)
struct alignas(64) Slot {
  std::array<std::atomic<uint64_t>, 8> w;
};

struct ThreadBuffer {
  std::atomic<uint64_t> head{0};  // total records ever written by this slot
  uint32_t tid = 0;               // registry slot index
  std::atomic<bool> live{false};  // a thread currently owns this buffer
  // Drain bookkeeping, guarded by the process-wide drain mutex (cold path).
  uint64_t drained = 0;       // records consumed by Drain()
  uint64_t dropped_base = 0;  // overwritten-before-drain total at last drain
  std::array<Slot, kRingSize> ring;
};

extern std::atomic<bool> g_enabled;
extern std::array<std::atomic<ThreadBuffer*>, kMaxThreads> g_threads;

// Registers (or re-uses) this thread's buffer. Cold path: called once per
// thread incarnation.
ThreadBuffer* RegisterThread();

inline ThreadBuffer*& TlsBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  return buffer;
}

}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

// The hot path with a caller-supplied timestamp: call sites that already read
// the clock for their own latency accounting (the dispatcher reads it under
// its lock on both grant and release) pass that value instead of paying a
// second clock read — the clock is most of Emit's cost. `now` must come from
// `steady_clock` (or the component's injected clock) so the drain merge stays
// meaningful. Safe from any thread, including under locks; never blocks.
inline void EmitAt(Component c, Verb v, uint64_t trace_id, int64_t revision,
                   std::string_view key, uint64_t arg, uint64_t now) {
  if (!Enabled()) return;
  internal::ThreadBuffer* b = internal::TlsBuffer();
  if (b == nullptr) {
    b = internal::RegisterThread();
    if (b == nullptr) return;  // registry exhausted: drop (counted globally)
  }
  const uint64_t seq = b->head.load(std::memory_order_relaxed);
  internal::Slot& s = b->ring[seq & (internal::kRingSize - 1)];
  s.w[0].store(trace_id, std::memory_order_relaxed);
  s.w[1].store(now, std::memory_order_relaxed);
  s.w[2].store(static_cast<uint64_t>(revision), std::memory_order_relaxed);
  s.w[3].store(arg, std::memory_order_relaxed);
  s.w[4].store(static_cast<uint64_t>(b->tid) |
                   (static_cast<uint64_t>(static_cast<uint8_t>(v)) << 32) |
                   (static_cast<uint64_t>(static_cast<uint8_t>(c)) << 40) |
                   (static_cast<uint64_t>(key.size() > 0xffff ? 0xffff
                                                              : key.size())
                    << 48),
               std::memory_order_relaxed);
  uint64_t kw[3] = {0, 0, 0};
  const size_t n = key.size() < kKeyBytes ? key.size() : kKeyBytes;
  if (n != 0) std::memcpy(kw, key.data() + (key.size() - n), n);  // data() may be null
  s.w[5].store(kw[0], std::memory_order_relaxed);
  s.w[6].store(kw[1], std::memory_order_relaxed);
  s.w[7].store(kw[2], std::memory_order_relaxed);
  // Publish: a drain that acquires `head` sees every word of slot `seq`.
  b->head.store(seq + 1, std::memory_order_release);
}

// The general hot path: ~35 ns when enabled (see BM_TraceRecord; the clock
// read dominates), one relaxed branch when disabled.
inline void Emit(Component c, Verb v, uint64_t trace_id, int64_t revision,
                 std::string_view key, uint64_t arg = 0) {
  if (!Enabled()) return;
  EmitAt(c, v, trace_id, revision, key, arg,
         static_cast<uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count()));
}

// Lock-free per-request id, unique process-wide, always < 2^53 (exemplar
// metrics carry ids as doubles). 0 is reserved for "untraced".
uint64_t NewTraceId();

// The ambient trace id of the current thread (0 = none). Set via TraceScope.
uint64_t CurrentTraceId();

// RAII ambient-trace-id scope: layers that cannot thread an id explicitly
// (kv writes under a verb, reconcile bodies calling the apiserver) read
// CurrentTraceId(). Movable; restores the previous id on destruction.
class TraceScope {
 public:
  TraceScope() = default;
  explicit TraceScope(uint64_t id);
  TraceScope(TraceScope&& other) noexcept { *this = std::move(other); }
  TraceScope& operator=(TraceScope&& other) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  uint64_t prev_ = 0;
  bool active_ = false;
};

// ------------------------------------------------------------------ draining

struct DrainResult {
  std::vector<TraceRecord> records;  // merged, sorted by t_mono_ns
  uint64_t dropped = 0;  // records overwritten (or torn) inside this window
};

// Consumes every undrained record from every thread buffer. Serialized by an
// internal mutex; concurrent emitters keep running (their new records land in
// the next drain). `dropped` counts records lost to ring overwrite since the
// previous drain.
DrainResult Drain();

// Forgets everything recorded so far (drain cursors jump to head, dropped
// counters reset). Tests call this to open a clean checker window.
void Reset();

// Deferred formatting end-to-end: renders the most recent `max_per_thread`
// records of every thread buffer (NON-consuming; drain cursors unchanged).
// This is the --trace-dump-on-failure hook's output.
void DumpText(std::ostream& os, size_t max_per_thread = 64);

// Formats one decoded record (shared by DumpText and checker violations).
std::string FormatRecord(const TraceRecord& r);

// Total records overwritten before being drained, across all threads (live
// running count; Drain() folds the current window into its result).
uint64_t DroppedTotal();
// Records ever emitted / thread buffers ever registered.
uint64_t EmittedTotal();
size_t ThreadCount();

// "trace.*" samples: records_total, dropped_total, threads, plus a
// per-thread t<NN>.dropped counter for every registered buffer.
std::vector<std::pair<std::string, double>> CollectSamples();

// Registers the samples above as a "trace" provider in the process-global
// MetricsRegistry. Idempotent; the registration lives for the process.
void RegisterMetrics();

}  // namespace vc::trace
