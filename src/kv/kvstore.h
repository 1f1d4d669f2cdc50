// An etcd-like versioned, watchable key-value store — the persistence layer
// under every apiserver (super cluster and each tenant control plane gets its
// own instance, mirroring the paper's "a dedicated etcd can be assigned to
// each tenant control plane").
//
// Semantics reproduced from etcd/Kubernetes that the rest of the stack relies
// on:
//   * A single store-wide revision, monotonically increasing by 1 per
//     successful mutation. An entry carries create_revision / mod_revision.
//   * Conditional writes (compare-and-swap on mod_revision) — the apiserver
//     maps resourceVersion conflicts (HTTP 409) onto these.
//   * List(prefix) returns a consistent snapshot plus the revision it was
//     taken at, so a client can start a watch from that exact point.
//   * Watch(prefix, from_revision) replays historical events after
//     from_revision from the event log, then streams live events, with no gap
//     and no duplication. If from_revision has been compacted the watch fails
//     with Gone (etcd's ErrCompacted / HTTP 410), forcing the client to
//     relist — the reflector handles this.
//   * Per-watcher bounded buffers: a slow watcher overflows and is closed
//     with Gone rather than blocking writers.
//
// Hot-path structure (DESIGN.md §12):
//   * One sorted map of live entries under one shared_mutex (mu_). A commit
//     holds mu_ exclusive for the whole commit: it checks the CAS
//     precondition, mints the next revision, updates the map entry in place,
//     appends to the replay log / WAL / watch dispatch queue, and advances
//     the published revision — so the log is in revision order by
//     construction, and the watch no-gap/no-dup and commit-monotonicity
//     contracts hold for any number of concurrent writers.
//     `CurrentRevision()` returns that published revision (lock-free): every
//     revision at or below it is fully visible to Get/List/Watch.
//   * Get and List take mu_ shared, so a List is the exact state at the
//     revision it reports. List is one range scan of the sorted map.
//   * Values are shared blobs (`Blob` = shared_ptr<const string>): Get, List
//     snapshots, watch events, the replay log, and the WAL all alias one
//     allocation instead of deep-copying under a lock.
//   * Writers never fan out: Put/Delete append the event to the log, enqueue
//     a dispatch command, and return. Filter evaluation, bookmark pacing, and
//     overflow poisoning run on one vc::Strand (one body call at a time) on
//     the shared Executor, preserving per-watcher ordering and the
//     no-gap/no-dup replay contract (registration commands are sequenced
//     through the same queue, with replay captured under mu_).
//   * Durability is opt-in (`Options::wal_dir`): committed events append to a
//     write-ahead log in revision order (sharing the same Blob
//     allocations, flushed in byte-bounded batches or per-commit), with
//     atomic snapshot checkpoints truncating the log. A store constructed
//     over an existing wal_dir restores snapshot + WAL byte-exact, with its
//     revision stream intact.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/status.h"

namespace vc::kv {

namespace wal {
class Writer;
struct Record;
}  // namespace wal

// Immutable shared value buffer. Copying a Blob bumps a refcount; the bytes
// are written once (at Put) and shared by the live entry, the replay log,
// every watch delivery, and every List snapshot that references them.
// Converts implicitly to `const std::string&` so existing call sites (codec,
// selectors, tests) keep working unchanged.
class Blob {
 public:
  Blob() = default;
  Blob(std::string s) : ptr_(std::make_shared<const std::string>(std::move(s))) {}
  Blob(const char* s) : ptr_(std::make_shared<const std::string>(s)) {}
  explicit Blob(std::shared_ptr<const std::string> p) : ptr_(std::move(p)) {}

  const std::string& str() const {
    static const std::string kEmpty;
    return ptr_ ? *ptr_ : kEmpty;
  }
  operator const std::string&() const { return str(); }

  // The underlying shared buffer (null when empty); lets consumers keep the
  // bytes alive without copying (decode memoization, informer caches).
  const std::shared_ptr<const std::string>& share() const { return ptr_; }

  const char* data() const { return str().data(); }
  size_t size() const { return ptr_ ? ptr_->size() : 0; }
  bool empty() const { return size() == 0; }
  void reset() { ptr_.reset(); }

  friend bool operator==(const Blob& a, const Blob& b) { return a.str() == b.str(); }
  friend bool operator!=(const Blob& a, const Blob& b) { return !(a == b); }
  friend bool operator==(const Blob& a, const std::string& b) { return a.str() == b; }
  friend bool operator==(const std::string& a, const Blob& b) { return a == b.str(); }
  friend bool operator==(const Blob& a, const char* b) { return a.str() == b; }
  friend bool operator==(const char* a, const Blob& b) { return b.str() == a; }
  friend std::ostream& operator<<(std::ostream& os, const Blob& b) { return os << b.str(); }

 private:
  std::shared_ptr<const std::string> ptr_;
};

// kBookmark carries no key/value — only a revision. It tells a watcher "you
// have seen everything up to here" so an idle watcher's resume revision keeps
// pace with the store even when every data event is filtered away from it
// (etcd progress notify / Kubernetes watch bookmarks).
enum class EventType { kPut, kDelete, kBookmark };

struct Event {
  EventType type = EventType::kPut;
  std::string key;
  Blob value;       // new value (empty for kDelete/kBookmark)
  Blob prev_value;  // value before this event (empty for first Put)
  int64_t revision = 0;  // store revision of this event
  // vc::trace id of the mutation that produced this event (0 = untraced), so
  // a watch delivery can be joined to the write that caused it end to end.
  uint64_t trace = 0;
};

struct Entry {
  std::string key;
  Blob value;
  int64_t create_revision = 0;
  int64_t mod_revision = 0;
  int64_t version = 0;  // number of writes to this key since creation
};

// A stream of events delivered to one watcher. Thread-safe.
class WatchChannel {
 public:
  // Blocks up to `timeout` for the next event.
  //   kTimeout  — no event arrived in time (channel still healthy)
  //   kAborted  — Cancel() was called
  //   kGone     — the watcher was too slow and its buffer overflowed, or the
  //               store was shut down; caller must relist and re-watch.
  Result<Event> Next(Duration timeout);

  // Non-blocking variant: returns the next buffered event, or nullopt when
  // the buffer is empty (check ok() to distinguish "healthy but idle" from
  // "dead"). Used by tests and push-driven consumers.
  std::optional<Event> TryNext();

  void Cancel();
  bool ok() const;

  // Registers fn to be invoked after every state change a consumer should
  // react to: a new event buffered, Cancel, or channel death. Invocations are
  // serialized under an internal mutex; SetSignal(nullptr) blocks out any
  // in-flight invocation, so afterwards the old fn's captures may safely be
  // destroyed. Called from inside fn on the signalling thread (a strand that
  // runs its body inline), it takes effect when that invocation returns, as
  // TimerHandle::Cancel does from its own callback. Push-driven consumers
  // (SharedInformer) use this instead of blocking in Next().
  void SetSignal(std::function<void()> fn);

  // Kills the channel with Gone (410) as a broken-watch/compaction signal:
  // consumers must relist. Used by the store's BreakWatches and by an
  // apiserver front end restarting over a SHARED store, which must break only
  // the channels it vended.
  void CloseGone();

 private:
  friend class KvStore;
  explicit WatchChannel(size_t capacity) : capacity_(capacity) {}

  // Store-side: enqueue; returns false (and poisons the channel) on overflow.
  bool Offer(const Event& e);

  void Signal();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> queue_;
  const size_t capacity_;
  bool cancelled_ = false;
  bool gone_ = false;

  // Held while invoking signal_; taken only after mu_ is released.
  std::mutex signal_mu_;
  std::function<void()> signal_;
  // The thread invoking signal_, and a SetSignal it made meanwhile (applied
  // under signal_mu_ once the invocation returns).
  std::atomic<std::thread::id> signalling_{};
  std::optional<std::function<void()>> deferred_;
};

struct ListResult {
  std::vector<Entry> entries;
  int64_t revision = 0;  // snapshot revision; start watches from here
  // Paged variant only: true when live keys remain under the prefix past the
  // last returned entry.
  bool more = false;
};

// Server-side watch configuration (apiserver ListOptions/WatchOptions map
// onto this).
struct WatchParams {
  int64_t from_revision = 0;
  size_t buffer_capacity = 8192;
  // Optional event transform applied store-side before enqueueing: return the
  // (possibly rewritten) event to deliver it, nullopt to drop it. Used by the
  // apiserver to evaluate selectors once at dispatch instead of per client
  // decode, and to rewrite "object left the selection" puts into deletes.
  // Runs on the dispatch strand, not under the writer's lock.
  std::function<std::optional<Event>(const Event&)> filter;
  // When > 0, a watcher that had `bookmark_interval` revisions pass without a
  // delivered event receives a revision-only kBookmark instead of silence.
  int64_t bookmark_interval = 0;
};

class KvStore {
 public:
  struct Options {
    // Bounds the watch-replay event log by event count; older events are
    // auto-compacted (watchers needing them get Gone).
    size_t max_log_events = 200000;
    // Additional byte bound on the replay log (keys + values + headers);
    // 0 = bounded by event count only.
    size_t max_log_bytes = 0;
    // Seeds the revision counter, used when rebuilding a store across a
    // simulated restart so revisions stay monotone for clients. When WAL
    // recovery finds a higher revision on disk, the recovered value wins.
    int64_t start_revision = 0;
    // Executor hosting the watch-dispatch strand. nullptr → the process-wide
    // default executor.
    std::shared_ptr<Executor> executor;

    // ---- durability (empty wal_dir = in-memory store, the default) ----
    // Directory for the write-ahead log + snapshot; created if missing. The
    // constructor restores any state found there (snapshot, then WAL replay
    // up to the first torn record) and folds it into a fresh checkpoint.
    std::string wal_dir;
    // true: every Put/Delete flushes its WAL record before returning (the
    // acked prefix survives a crash byte-exact). false: records buffer up to
    // wal_buffer_bytes between flushes.
    bool wal_sync_every_commit = false;
    // Byte threshold that triggers an async batch flush in buffered mode.
    size_t wal_buffer_bytes = 1u << 20;
    // WAL file size that triggers an automatic snapshot checkpoint (which
    // truncates the log). 0 = only explicit SnapshotNow() checkpoints.
    size_t wal_rotate_bytes = 64u << 20;
  };

  explicit KvStore(Options opts);
  explicit KvStore(size_t max_log_events = 200000, int64_t start_revision = 0);
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  // Conditional put.
  //   expected_mod_revision == nullopt : unconditional upsert
  //   expected_mod_revision == 0       : create; fails AlreadyExists if present
  //   expected_mod_revision == r > 0   : update iff current mod_revision == r,
  //                                      else Conflict (or NotFound if absent)
  // Returns the new store revision. The write is published (visible to
  // CurrentRevision/Get/List/Watch — and flushed, in WAL sync mode) before
  // returning.
  Result<int64_t> Put(const std::string& key, std::string value,
                      std::optional<int64_t> expected_mod_revision = std::nullopt);

  // Conditional delete, same precondition semantics as Put (0 is invalid).
  Result<int64_t> Delete(const std::string& key,
                         std::optional<int64_t> expected_mod_revision = std::nullopt);

  // Takes the store lock shared: waits out an in-flight commit, never
  // another reader.
  Result<Entry> Get(const std::string& key) const;

  // Snapshot of all live entries whose key starts with `prefix`, sorted by
  // key, plus the revision of the snapshot. Entry values alias the stored
  // blobs (no copy). Consistent because the scan holds the store lock
  // shared: no writer is mid-commit.
  ListResult List(const std::string& prefix) const;

  // Paged variant: entries with key > start_after (all of them when empty),
  // at most `limit` (0 = unlimited). Sets ListResult::more when live keys
  // remain under the prefix past the last returned entry, so callers can
  // build continue tokens without a second scan.
  ListResult List(const std::string& prefix, size_t limit,
                  const std::string& start_after) const;

  // The latest published revision: every revision <= this value is fully
  // visible to Get/List/Watch replay. Lock-free.
  int64_t CurrentRevision() const;
  int64_t CompactedRevision() const;

  // Begin watching keys under `prefix` for events with revision >
  // from_revision. from_revision is normally ListResult::revision. Fails with
  // Gone when from_revision < compacted revision.
  Result<std::shared_ptr<WatchChannel>> Watch(const std::string& prefix,
                                              int64_t from_revision,
                                              size_t buffer_capacity = 8192);

  // Full-featured variant: server-side event filtering + bookmark emission.
  Result<std::shared_ptr<WatchChannel>> Watch(const std::string& prefix,
                                              WatchParams params);

  // Drop replay-log events with revision <= up_to (watchers already created
  // are unaffected; new watches from before `up_to` get Gone).
  void Compact(int64_t up_to);

  // Closes all watch channels with Gone; further mutations fail Unavailable.
  // Flushes any buffered WAL records.
  void Shutdown();
  bool IsShutdown() const;

  // Simulates an apiserver restart: every active watch breaks with Gone
  // (clients must relist) but data and revisions are preserved, like etcd
  // state surviving a process restart.
  void BreakWatches();

  // Fault injection for the history checker's own acceptance test: the next
  // `n` watch deliveries are dropped SILENTLY (no offer, no trace record) —
  // a genuine per-watcher gap that trace::CheckHistory must flag.
  void TestDropNextDeliveries(int n);

  // Blocks until every event enqueued before this call has been offered to
  // (or filtered away from) every watcher. Tests and benchmarks use this to
  // draw a line under the asynchronous fan-out; safe to call from executor
  // tasks (waits inside a BlockingRegion).
  void FlushWatchDispatch();

  // Approximate bytes held by live entries (keys + values).
  size_t ApproxBytes() const;
  size_t EntryCount() const;
  // Approximate bytes held by the watch-replay event log (reclaimable via
  // Compact — the "swappable" state of an idle control plane). O(1).
  size_t LogBytes() const;
  size_t LogEvents() const;

  // ---- durability controls (no-ops / errors when wal_dir is empty) ----

  // Flushes all buffered WAL records to the file. Returns the sticky WAL
  // health status (first IO error wins).
  Status SyncWal();
  // Writes a full-state snapshot at the current revision and truncates
  // the WAL. FailedPrecondition-ish error when durability is off.
  Status SnapshotNow();
  // Sticky WAL health: OK until the first write/flush error.
  Status WalHealth() const;
  size_t WalFileBytes() const;
  uint64_t WalCheckpoints() const;
  // Crash simulation for recovery tests: drops every buffered (un-flushed)
  // WAL record and closes the file WITHOUT flushing, exactly as if the
  // process died. The in-memory store keeps working; further mutations are
  // simply no longer logged.
  void TestAbandonWal();

 private:
  struct Watcher {
    std::string prefix;
    std::shared_ptr<WatchChannel> channel;
    std::function<std::optional<Event>(const Event&)> filter;  // nullptr = all
    int64_t bookmark_interval = 0;
    // Revision of the last event (data or bookmark) offered to the channel;
    // drives bookmark pacing.
    int64_t last_sent_revision = 0;
    // Process-unique id stamped into per-watcher trace records (the history
    // checker keys its no-gap/no-dup sequences on it).
    uint64_t id = 0;
  };

  // A unit of work for the dispatch strand. Either a store event to fan out,
  // or a watcher registration (replay captured under mu_) to splice
  // into the fan-out at exactly its snapshot position.
  struct DispatchCmd {
    enum class Kind { kEvent, kRegister };
    Kind kind = Kind::kEvent;
    Event event;                // kEvent
    Watcher watcher;            // kRegister
    std::vector<Event> replay;  // kRegister: raw events in (from_revision, R]
    uint64_t epoch = 0;         // kRegister: guards against BreakWatches races
  };

  static size_t EventBytes(const Event& e);

  // Commit tail; mu_ held exclusive, `e.revision` minted and the map entry
  // already updated. Appends to the WAL batch, the replay log (trimming it)
  // and, if anyone listens, the dispatch queue, then advances published_.
  // From here the write is globally visible (read-your-write holds).
  // Returns true when it queued a dispatch command.
  bool PublishLocked(Event e);
  void TrimLogLocked();
  // Enqueues cmd (requires mu_ held exclusive, so queue order == revision
  // order) without signalling the strand; signal dispatch_ after unlocking.
  void EnqueueLocked(DispatchCmd cmd);
  // The dispatch strand's body: processes one queued command; false when
  // the queue was empty.
  bool DispatchOne();
  void ProcessCmd(DispatchCmd cmd);
  // Offers `e` if it survives the watcher's filter; otherwise emits a
  // bookmark when the watcher has been quiet for bookmark_interval revisions.
  // Records exactly one of deliver/bookmark/skip per (watcher, revision) —
  // the totality the checker's no-gap validation rests on. `now_ns` is the
  // trace timestamp, read once per dispatched event rather than per watcher
  // so fan-out to N watchers pays one clock read.
  void OfferFiltered(Watcher& w, const Event& e, uint64_t now_ns);

  // ---- durability internals ----
  void RecoverFromDisk(const Options& opts);
  // Applies one replayed mutation directly to the map (no events, no
  // publication) during recovery.
  void ApplyRecovered(const wal::Record& rec);
  // Queues `e` into the pending WAL batch; mu_ held exclusive (revision
  // order == batch order).
  void AppendWalLocked(const Event& e);
  // Post-commit flush policy: sync mode flushes every commit, buffered mode
  // flushes when the pending batch exceeds wal_buffer_bytes. Called with NO
  // locks held.
  void MaybeFlushWal();
  // Flush + (if due) checkpoint; wal_io_mu_ held.
  Status FlushWalLocked();
  Status CheckpointLocked();

  // The store lock. A commit holds it exclusive from its CAS check to its
  // publication, so the replay log, the WAL batch and the dispatch queue
  // are in revision order. Watch registration (which thereby freezes
  // published_ for an exact replay splice), Compact, the checkpoint
  // snapshot, the WAL batch swap and the shutdown flag flip also hold it
  // exclusive; Get, List and the log accessors hold it shared.
  mutable std::shared_mutex mu_;
  std::map<std::string, Entry> keys_;  // live entries, sorted for List

  // The store revision. A commit mints published_ + 1 and stores it, both
  // under mu_; CurrentRevision() reads it lock-free.
  std::atomic<int64_t> published_{0};
  std::atomic<int64_t> compacted_{0};
  std::atomic<bool> shutdown_{false};

  // The replay log, guarded by mu_: events with revision in
  // (compacted_, published_].
  std::deque<Event> log_;
  const size_t max_log_events_;
  const size_t max_log_bytes_;
  size_t log_bytes_ = 0;  // incremental mirror of the log's EventBytes sum

  std::atomic<size_t> live_bytes_{0};
  std::atomic<size_t> entry_count_{0};

  // ---- durability state ----
  const bool wal_sync_every_commit_;
  const size_t wal_buffer_bytes_;
  const size_t wal_rotate_bytes_;
  std::string wal_dir_;
  // True while records should be logged; cleared by TestAbandonWal and on
  // unrecoverable setup errors. Relaxed reads on the commit path.
  std::atomic<bool> wal_active_{false};
  // Pending records, appended under mu_ (revision order) holding the
  // committed Blobs by reference — no byte copy on the commit path; encoding
  // happens at flush time under wal_io_mu_. wal_pending_bytes_ is read
  // without mu_ by MaybeFlushWal (approximate trigger), hence atomic.
  std::vector<wal::Record> wal_pending_;
  std::atomic<size_t> wal_pending_bytes_{0};
  // Serializes all WAL file IO and checkpoints. Ordering: wal_io_mu_ may be
  // taken first, then mu_; never the other way around.
  mutable std::mutex wal_io_mu_;
  std::unique_ptr<wal::Writer> wal_;  // null = durability off or abandoned
  Status wal_health_;                 // guarded by wal_io_mu_
  uint64_t wal_checkpoints_ = 0;      // guarded by wal_io_mu_

  // Dispatch queue. Commits push under mu_ + pend_mu_; the strand
  // pops under pend_mu_ alone.
  std::mutex pend_mu_;
  std::deque<DispatchCmd> pending_;
  uint64_t epoch_ = 0;  // bumped by BreakWatches/Shutdown; guarded by pend_mu_

  // Watchers are owned by the dispatch strand; fan_mu_ also admits
  // Shutdown/BreakWatches swapping the set out to close it.
  std::mutex fan_mu_;
  std::vector<Watcher> watchers_;
  // Live watchers + queued registrations. When zero, writers skip enqueueing
  // event commands entirely (the log still records them for future replay).
  std::atomic<int64_t> fan_targets_{0};
  // Pending silent delivery drops (TestDropNextDeliveries); strand-only reads.
  std::atomic<int> test_drop_deliveries_{0};

  // The watch dispatch strand (DispatchOne on Options::executor). Declared
  // last so it stops before anything it touches is destroyed.
  Strand dispatch_;
};

}  // namespace vc::kv
