#include "common/trace.h"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"

namespace vc::trace {

namespace internal {

// Off by default: production binaries pay zero per-event cost unless a
// caller opts in. The shared test main and the tracing benchmarks call
// SetEnabled(true) explicitly.
std::atomic<bool> g_enabled{false};
std::array<std::atomic<ThreadBuffer*>, kMaxThreads> g_threads{};

namespace {

// Cold-path state: registration free list and the drain cursor lock.
std::mutex g_reg_mu;
std::vector<uint32_t> g_free_slots;       // recycled by exited threads
uint32_t g_next_slot = 0;                 // high-water slot count
std::atomic<uint64_t> g_lost_records{0};  // emits with no registrable slot
std::atomic<uint64_t> g_incarnations{0};  // trace-id salt source

std::mutex g_drain_mu;  // serializes Drain/Reset cursor updates

thread_local uint64_t tls_current_trace = 0;

// Per-thread registration handle. Destruction (thread exit) recycles the
// slot; the buffer itself is never freed, so drains of a dead thread's
// records stay valid.
struct ThreadRef {
  ThreadBuffer* buffer = nullptr;
  uint64_t id_salt = 0;  // incarnation, unique per registration
  uint64_t next_id = 0;  // per-thread trace-id counter
  ~ThreadRef() {
    if (buffer == nullptr) return;
    buffer->live.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> l(g_reg_mu);
    g_free_slots.push_back(buffer->tid);
    TlsBuffer() = nullptr;
    buffer = nullptr;
  }
};

ThreadRef& Ref() {
  thread_local ThreadRef ref;
  return ref;
}

// Decodes slot `seq` of `b`. Returns false (torn: overwritten mid-read) when
// the writer lapped the slot while we were copying it.
bool DecodeSlot(const ThreadBuffer& b, uint64_t seq, TraceRecord* out) {
  const Slot& s = b.ring[seq & (kRingSize - 1)];
  uint64_t w[8];
  for (int i = 0; i < 8; ++i) w[i] = s.w[i].load(std::memory_order_relaxed);
  // Re-check after the copy: if the head moved past seq + kRingSize the
  // writer may have been mid-overwrite of this slot.
  if (b.head.load(std::memory_order_acquire) > seq + kRingSize) return false;
  out->trace_id = w[0];
  out->t_mono_ns = w[1];
  out->revision = static_cast<int64_t>(w[2]);
  out->arg = w[3];
  out->thread = static_cast<uint32_t>(w[4] & 0xffffffffu);
  out->verb = static_cast<Verb>((w[4] >> 32) & 0xff);
  out->component = static_cast<Component>((w[4] >> 40) & 0xff);
  out->key_len = static_cast<uint16_t>((w[4] >> 48) & 0xffff);
  char kb[kKeyBytes];
  std::memcpy(kb, &w[5], 8);
  std::memcpy(kb + 8, &w[6], 8);
  std::memcpy(kb + 16, &w[7], 8);
  const size_t n =
      out->key_len < kKeyBytes ? out->key_len : kKeyBytes;
  out->key.assign(kb, n);
  return true;
}

}  // namespace

ThreadBuffer* RegisterThread() {
  ThreadRef& ref = Ref();
  if (ref.buffer != nullptr) return ref.buffer;
  std::lock_guard<std::mutex> l(g_reg_mu);
  uint32_t slot;
  if (!g_free_slots.empty()) {
    slot = g_free_slots.back();
    g_free_slots.pop_back();
  } else if (g_next_slot < kMaxThreads) {
    slot = g_next_slot++;
  } else {
    g_lost_records.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  ThreadBuffer* b = g_threads[slot].load(std::memory_order_acquire);
  if (b == nullptr) {
    b = new ThreadBuffer();  // lives for the process (post-mortem dumps)
    b->tid = slot;
    g_threads[slot].store(b, std::memory_order_release);
  }
  b->live.store(true, std::memory_order_release);
  ref.buffer = b;
  ref.id_salt = g_incarnations.fetch_add(1, std::memory_order_relaxed) + 1;
  TlsBuffer() = b;
  return b;
}

}  // namespace internal

using internal::g_threads;
using internal::kMaxThreads;
using internal::kRingSize;
using internal::ThreadBuffer;

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t NewTraceId() {
  internal::ThreadRef& ref = internal::Ref();
  if (ref.buffer == nullptr && internal::RegisterThread() == nullptr) {
    // Registry exhausted; still hand out unique ids from a shared counter.
    static std::atomic<uint64_t> fallback{0};
    return (1ull << 52) | (fallback.fetch_add(1, std::memory_order_relaxed) &
                           ((1ull << 32) - 1));
  }
  // salt < 2^20 incarnations and a 32-bit counter keep ids under 2^52, so an
  // id survives the double-valued MetricsRegistry exactly.
  return ((ref.id_salt & ((1ull << 20) - 1)) << 32) |
         (++ref.next_id & ((1ull << 32) - 1));
}

uint64_t CurrentTraceId() { return internal::tls_current_trace; }

TraceScope::TraceScope(uint64_t id) : active_(true) {
  prev_ = internal::tls_current_trace;
  internal::tls_current_trace = id;
}

TraceScope& TraceScope::operator=(TraceScope&& other) noexcept {
  if (this != &other) {
    if (active_) internal::tls_current_trace = prev_;
    prev_ = other.prev_;
    active_ = other.active_;
    other.active_ = false;
  }
  return *this;
}

TraceScope::~TraceScope() {
  if (active_) internal::tls_current_trace = prev_;
}

const char* ComponentName(Component c) {
  switch (c) {
    case Component::kApiServer: return "apiserver";
    case Component::kDispatch: return "dispatch";
    case Component::kKv: return "kv";
    case Component::kWatch: return "watch";
    case Component::kWatchCache: return "cache";
    case Component::kReconciler: return "reconciler";
    case Component::kSyncer: return "syncer";
    case Component::kKubelet: return "kubelet";
    case Component::kTest: return "test";
  }
  return "?";
}

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kRequest: return "request";
    case Verb::kAdmit: return "admit";
    case Verb::kQueue: return "queue";
    case Verb::kExecute: return "execute";
    case Verb::kAccount: return "account";
    case Verb::kShed: return "shed";
    case Verb::kPut: return "put";
    case Verb::kDelete: return "delete";
    case Verb::kCasFail: return "cas-fail";
    case Verb::kDeliver: return "deliver";
    case Verb::kBookmark: return "bookmark";
    case Verb::kSkip: return "skip";
    case Verb::kCacheApply: return "apply";
    case Verb::kCacheServe: return "serve-fresh";
    case Verb::kDequeue: return "dequeue";
    case Verb::kReconcile: return "reconcile";
    case Verb::kDownSync: return "down-sync";
    case Verb::kUpSync: return "up-sync";
    case Verb::kStatusWrite: return "status-write";
  }
  return "?";
}

std::string FormatRecord(const TraceRecord& r) {
  std::ostringstream os;
  os << "t" << r.thread << " +" << r.t_mono_ns << "ns "
     << ComponentName(r.component) << "/" << VerbName(r.verb);
  if (r.trace_id != 0) os << " trace=" << Hex64(r.trace_id);
  if (r.revision != 0) os << " rev=" << r.revision;
  if (r.arg != 0) os << " arg=" << r.arg;
  if (!r.key.empty()) {
    os << " key=";
    if (r.key_len > r.key.size()) os << "…";  // truncated: tail only
    os << r.key;
  }
  return os.str();
}

DrainResult Drain() {
  std::lock_guard<std::mutex> l(internal::g_drain_mu);
  DrainResult out;
  out.dropped = 0;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b == nullptr) continue;
    const uint64_t head = b->head.load(std::memory_order_acquire);
    uint64_t start = b->drained;
    if (head > kRingSize && head - kRingSize > start) {
      out.dropped += (head - kRingSize) - start;
      start = head - kRingSize;
    }
    for (uint64_t seq = start; seq < head; ++seq) {
      TraceRecord r;
      if (internal::DecodeSlot(*b, seq, &r)) {
        out.records.push_back(std::move(r));
      } else {
        out.dropped++;  // lapped while reading: treat as overwritten
      }
    }
    b->dropped_base += out.dropped;  // fold this window into the live gauge
    b->drained = head;
  }
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.t_mono_ns < b.t_mono_ns;
                   });
  return out;
}

void Reset() {
  std::lock_guard<std::mutex> l(internal::g_drain_mu);
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b == nullptr) continue;
    b->drained = b->head.load(std::memory_order_acquire);
    b->dropped_base = 0;
  }
}

void DumpText(std::ostream& os, size_t max_per_thread) {
  os << "=== vc::trace dump (last " << max_per_thread
     << " records per thread; deferred formatting) ===\n";
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b == nullptr) continue;
    const uint64_t head = b->head.load(std::memory_order_acquire);
    if (head == 0) continue;
    uint64_t start = head > kRingSize ? head - kRingSize : 0;
    if (head - start > max_per_thread) start = head - max_per_thread;
    os << "--- thread t" << b->tid << (b->live.load() ? "" : " (exited)")
       << ": records " << start << ".." << head << " of " << head << "\n";
    for (uint64_t seq = start; seq < head; ++seq) {
      TraceRecord r;
      if (internal::DecodeSlot(*b, seq, &r)) os << FormatRecord(r) << "\n";
    }
  }
  os.flush();
}

uint64_t DroppedTotal() {
  uint64_t total =
      internal::g_lost_records.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(internal::g_drain_mu);
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b == nullptr) continue;
    const uint64_t head = b->head.load(std::memory_order_acquire);
    total += b->dropped_base;
    if (head > kRingSize && head - kRingSize > b->drained) {
      total += (head - kRingSize) - b->drained;  // pending, not yet drained
    }
  }
  return total;
}

uint64_t EmittedTotal() {
  uint64_t total = 0;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b != nullptr) total += b->head.load(std::memory_order_acquire);
  }
  return total;
}

size_t ThreadCount() {
  size_t n = 0;
  for (size_t i = 0; i < kMaxThreads; ++i) {
    if (g_threads[i].load(std::memory_order_acquire) != nullptr) n++;
  }
  return n;
}

std::vector<std::pair<std::string, double>> CollectSamples() {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("records_total", static_cast<double>(EmittedTotal()));
  out.emplace_back("dropped_total", static_cast<double>(DroppedTotal()));
  out.emplace_back("threads", static_cast<double>(ThreadCount()));
  std::lock_guard<std::mutex> l(internal::g_drain_mu);
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ThreadBuffer* b = g_threads[i].load(std::memory_order_acquire);
    if (b == nullptr) continue;
    const uint64_t head = b->head.load(std::memory_order_acquire);
    uint64_t dropped = b->dropped_base;
    if (head > kRingSize && head - kRingSize > b->drained) {
      dropped += (head - kRingSize) - b->drained;
    }
    if (head == 0 && dropped == 0) continue;
    const std::string prefix = "t" + std::to_string(b->tid) + ".";
    out.emplace_back(prefix + "records", static_cast<double>(head));
    out.emplace_back(prefix + "dropped", static_cast<double>(dropped));
  }
  return out;
}

void RegisterMetrics() {
  // The registration lives until exit: trace buffers are process-global, so
  // there is no owner whose teardown should unregister it earlier. A static
  // object rather than a leaked pointer keeps LeakSanitizer quiet; the
  // registry it unregisters from at exit is never destroyed.
  static MetricsRegistry::Registration reg =
      MetricsRegistry::Global().Register("trace", [] {
        std::vector<MetricsRegistry::Sample> s;
        for (auto& [name, value] : CollectSamples()) s.emplace_back(name, value);
        return s;
      });
}

}  // namespace vc::trace
