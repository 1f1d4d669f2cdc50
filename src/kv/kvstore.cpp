#include "kv/kvstore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/logging.h"
#include "common/strings.h"
#include "common/trace.h"
#include "kv/wal.h"

namespace vc::kv {

namespace {
// Watcher ids are process-unique (not per-store): the history checker keys
// per-watcher sequences on the id alone, and one test may run many stores.
std::atomic<uint64_t> g_next_watcher_id{1};
}  // namespace

// ---------------------------------------------------------------- WatchChannel

Result<Event> WatchChannel::Next(Duration timeout) {
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait_for(l, timeout, [this] { return !queue_.empty() || cancelled_ || gone_; });
  if (!queue_.empty()) {
    Event e = std::move(queue_.front());
    queue_.pop_front();
    return e;
  }
  if (cancelled_) return AbortedError("watch cancelled");
  if (gone_) return GoneError("watch channel closed (overflow or shutdown)");
  return TimeoutError("no watch event");
}

std::optional<Event> WatchChannel::TryNext() {
  std::lock_guard<std::mutex> l(mu_);
  if (queue_.empty()) return std::nullopt;
  Event e = std::move(queue_.front());
  queue_.pop_front();
  return e;
}

void WatchChannel::Cancel() {
  {
    std::lock_guard<std::mutex> l(mu_);
    cancelled_ = true;
  }
  cv_.notify_all();
  Signal();
}

void WatchChannel::SetSignal(std::function<void()> fn) {
  // This thread already holds signal_mu_ in Signal() below.
  if (signalling_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
    deferred_ = std::move(fn);
    return;
  }
  std::lock_guard<std::mutex> l(signal_mu_);
  signal_ = std::move(fn);
}

void WatchChannel::Signal() {
  // A consumer acting on its channel from inside its own signal (Cancel):
  // this thread holds signal_mu_ already, and signal_ stays installed until
  // the outer invocation returns.
  if (signalling_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
    if (signal_) signal_();
    return;
  }
  std::lock_guard<std::mutex> l(signal_mu_);
  if (!signal_) return;
  signalling_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  signal_();
  signalling_.store(std::thread::id(), std::memory_order_relaxed);
  if (deferred_) {
    signal_ = std::move(*deferred_);
    deferred_.reset();
  }
}

bool WatchChannel::ok() const {
  std::lock_guard<std::mutex> l(mu_);
  return !cancelled_ && !gone_;
}

bool WatchChannel::Offer(const Event& e) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> l(mu_);
    if (cancelled_ || gone_) return false;
    if (queue_.size() >= capacity_) {
      // Slow watcher: poison instead of blocking the dispatcher. The client
      // will observe Gone and relist, exactly like a real etcd watch falling
      // behind the compaction window.
      gone_ = true;
      queue_.clear();
      overflow = true;
    } else {
      queue_.push_back(e);
    }
  }
  // Outside mu_: the signal callback may call back into the channel.
  if (overflow) LOG(WARN) << "kv watch channel overflow (capacity=" << capacity_ << ")";
  cv_.notify_all();
  Signal();
  return !overflow;
}

void WatchChannel::CloseGone() {
  {
    std::lock_guard<std::mutex> l(mu_);
    gone_ = true;
  }
  cv_.notify_all();
  Signal();
}

// -------------------------------------------------------------------- KvStore

KvStore::KvStore(Options opts)
    : published_(opts.start_revision),
      compacted_(opts.start_revision),
      max_log_events_(opts.max_log_events),
      max_log_bytes_(opts.max_log_bytes),
      wal_sync_every_commit_(opts.wal_sync_every_commit),
      wal_buffer_bytes_(opts.wal_buffer_bytes),
      wal_rotate_bytes_(opts.wal_rotate_bytes),
      wal_dir_(opts.wal_dir),
      dispatch_(opts.executor ? std::move(opts.executor) : Executor::SharedFor(RealClock::Get()),
                [this] { return DispatchOne(); }) {
  if (!wal_dir_.empty()) RecoverFromDisk(opts);
}

KvStore::KvStore(size_t max_log_events, int64_t start_revision)
    : KvStore([&] {
        Options o;
        o.max_log_events = max_log_events;
        o.start_revision = start_revision;
        return o;
      }()) {}

KvStore::~KvStore() { Shutdown(); }

// ------------------------------------------------------------------- recovery

void KvStore::ApplyRecovered(const wal::Record& rec) {
  // Constructor-only: no locks, no readers, no events — rebuild the map
  // exactly as the original op stream left it.
  auto it = keys_.lower_bound(rec.key);
  const bool found = it != keys_.end() && it->first == rec.key;
  if (rec.type == 2) {  // delete
    if (!found) return;
    live_bytes_.fetch_sub(rec.key.size() + it->second.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    keys_.erase(it);
    return;
  }
  if (!found) {
    live_bytes_.fetch_add(rec.key.size() + rec.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    keys_.emplace_hint(it, rec.key,
                       Entry{rec.key, rec.value, rec.revision, rec.revision, 1});
    return;
  }
  Entry& cur = it->second;
  live_bytes_.fetch_add(rec.value.size(), std::memory_order_relaxed);
  live_bytes_.fetch_sub(cur.value.size(), std::memory_order_relaxed);
  cur.value = rec.value;
  cur.mod_revision = rec.revision;
  ++cur.version;
}

void KvStore::RecoverFromDisk(const Options& opts) {
  namespace fs = std::filesystem;
  const std::string snap_path = wal_dir_ + "/" + wal::kSnapshotFile;
  const std::string wal_path = wal_dir_ + "/" + wal::kWalFile;
  std::error_code ec;
  fs::create_directories(wal_dir_, ec);
  if (ec) {
    wal_health_ = InternalError(StrFormat("create wal dir %s: %s",
                                          wal_dir_.c_str(), ec.message().c_str()));
    LOG(ERROR) << "kv: durability disabled: " << wal_health_.message();
    return;
  }
  Result<wal::SnapshotData> snap = wal::ReadSnapshot(snap_path);
  if (!snap.ok()) {
    wal_health_ = snap.status();
    LOG(ERROR) << "kv: durability disabled: " << wal_health_.message();
    return;
  }
  const int64_t snap_revision = snap->revision;
  int64_t recovered = snap_revision;
  for (Entry& e : snap->entries) {
    live_bytes_.fetch_add(e.key.size() + e.value.size(), std::memory_order_relaxed);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    keys_.emplace_hint(keys_.end(), e.key, std::move(e));
  }
  Result<wal::ReplayStats> stats =
      wal::Replay(wal_path, [&](wal::Record rec) {
        if (rec.revision <= snap_revision) return;  // already in the snapshot
        ApplyRecovered(rec);
        recovered = rec.revision;
      });
  if (!stats.ok()) {
    wal_health_ = stats.status();
    LOG(ERROR) << "kv: durability disabled: " << wal_health_.message();
    return;
  }
  if (stats->torn_tail) {
    LOG(WARN) << "kv: wal " << wal_path << " ended in a torn record after revision "
              << recovered << "; discarding the damaged tail";
  }
  const int64_t rev = std::max(recovered, opts.start_revision);
  published_.store(rev, std::memory_order_relaxed);
  // The replay log does not survive a restart: watches older than the
  // recovered revision must relist (410 Gone), like an etcd whose compaction
  // caught up to its snapshot.
  compacted_.store(rev, std::memory_order_relaxed);
  // Fold everything into a fresh checkpoint: a torn WAL tail must never
  // shadow future appends, and restart cost stays proportional to live state
  // instead of accreted history.
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  wal_active_.store(true, std::memory_order_relaxed);
  if (Status s = CheckpointLocked(); !s.ok()) {
    LOG(ERROR) << "kv: recovery checkpoint failed: " << s.message();
  }
}

// ----------------------------------------------------------------- durability

void KvStore::AppendWalLocked(const Event& e) {
  if (!wal_active_.load(std::memory_order_relaxed)) return;
  wal::Record rec;
  rec.type = e.type == EventType::kDelete ? 2 : 1;
  rec.revision = e.revision;
  rec.key = e.key;
  rec.value = e.value;  // refcount bump, no byte copy under mu_
  // Approximate on-disk size (payload + framing) for the flush trigger.
  wal_pending_bytes_.fetch_add(e.key.size() + e.value.size() + 25,
                               std::memory_order_relaxed);
  wal_pending_.push_back(std::move(rec));
}

void KvStore::MaybeFlushWal() {
  if (wal_dir_.empty()) return;
  if (wal_sync_every_commit_ ||
      wal_pending_bytes_.load(std::memory_order_relaxed) >= wal_buffer_bytes_) {
    // Sticky wal_health_ records a failure; the mutation itself succeeded.
    (void)SyncWal();
  }
}

Status KvStore::SyncWal() {
  if (wal_dir_.empty()) return OkStatus();
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  return FlushWalLocked();
}

Status KvStore::FlushWalLocked() {
  std::vector<wal::Record> batch;
  {
    std::unique_lock<std::shared_mutex> l(mu_);
    batch.swap(wal_pending_);
    wal_pending_bytes_.store(0, std::memory_order_relaxed);
  }
  // Abandoned or unhealthy: drop the batch (the swap above keeps the pending
  // queue from growing without bound after TestAbandonWal).
  if (!wal_active_.load(std::memory_order_relaxed) || wal_ == nullptr) {
    return wal_health_;
  }
  if (!wal_health_.ok()) return wal_health_;
  std::string bytes;
  for (const wal::Record& r : batch) wal::EncodeRecord(r, &bytes);
  if (Status s = wal_->WriteBatch(bytes); !s.ok()) {
    wal_health_ = s;
    LOG(ERROR) << "kv: wal write failed: " << s.message();
    return s;
  }
  if (wal_rotate_bytes_ > 0 && wal_->file_bytes() > wal_rotate_bytes_) {
    return CheckpointLocked();
  }
  return OkStatus();
}

Status KvStore::CheckpointLocked() {
  if (!wal_active_.load(std::memory_order_relaxed)) {
    return UnavailableError("wal abandoned");
  }
  if (!wal_health_.ok()) return wal_health_;
  wal::SnapshotData snap;
  {
    // With mu_ held no commit is in flight: the map is the exact state at
    // published_, and every pending record has revision <= it, so the
    // snapshot supersedes them all.
    std::unique_lock<std::shared_mutex> l(mu_);
    snap.revision = published_.load(std::memory_order_relaxed);
    snap.compacted = compacted_.load(std::memory_order_relaxed);
    wal_pending_.clear();
    wal_pending_bytes_.store(0, std::memory_order_relaxed);
    snap.entries.reserve(keys_.size());
    for (const auto& [key, entry] : keys_) snap.entries.push_back(entry);
  }  // release mu_ before file IO
  if (Status s = wal::WriteSnapshot(wal_dir_ + "/" + wal::kSnapshotFile, snap);
      !s.ok()) {
    wal_health_ = s;
    LOG(ERROR) << "kv: snapshot write failed: " << s.message();
    return s;
  }
  Result<std::unique_ptr<wal::Writer>> w = wal::Writer::Open(
      wal_dir_ + "/" + wal::kWalFile, snap.revision, /*truncate=*/true);
  if (!w.ok()) {
    wal_health_ = w.status();
    LOG(ERROR) << "kv: wal reopen failed: " << wal_health_.message();
    return wal_health_;
  }
  wal_ = std::move(*w);
  ++wal_checkpoints_;
  return OkStatus();
}

Status KvStore::SnapshotNow() {
  if (wal_dir_.empty()) return InvalidArgumentError("durability is not enabled");
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  if (Status s = FlushWalLocked(); !s.ok()) return s;
  return CheckpointLocked();
}

Status KvStore::WalHealth() const {
  if (wal_dir_.empty()) return OkStatus();
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  return wal_health_;
}

size_t KvStore::WalFileBytes() const {
  if (wal_dir_.empty()) return 0;
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  return wal_ ? wal_->file_bytes() : 0;
}

uint64_t KvStore::WalCheckpoints() const {
  if (wal_dir_.empty()) return 0;
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  return wal_checkpoints_;
}

void KvStore::TestAbandonWal() {
  std::lock_guard<std::mutex> wl(wal_io_mu_);
  wal_active_.store(false, std::memory_order_relaxed);
  {
    std::unique_lock<std::shared_mutex> l(mu_);
    wal_pending_.clear();
    wal_pending_bytes_.store(0, std::memory_order_relaxed);
  }
  // Closing the fd does not flush anything we have not already written: the
  // Writer is unbuffered (batches live in wal_pending_, dropped above).
  wal_.reset();
}

// ------------------------------------------------------------------- dispatch

void KvStore::OfferFiltered(Watcher& w, const Event& e, uint64_t now_ns) {
  if (StartsWith(e.key, w.prefix)) {
    if (test_drop_deliveries_.load(std::memory_order_relaxed) > 0 &&
        test_drop_deliveries_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return;  // injected fault: silently lose the delivery (no record)
    }
    if (!w.filter) {
      if (w.channel->Offer(e)) {
        trace::EmitAt(trace::Component::kWatch, trace::Verb::kDeliver, e.trace,
                      e.revision, e.key, w.id, now_ns);
      }
      w.last_sent_revision = e.revision;
      return;
    }
    if (std::optional<Event> out = w.filter(e)) {
      if (w.channel->Offer(*out)) {
        trace::EmitAt(trace::Component::kWatch, trace::Verb::kDeliver, e.trace,
                      e.revision, e.key, w.id, now_ns);
      }
      w.last_sent_revision = e.revision;
      return;
    }
  }
  // Event invisible to this watcher (prefix miss or filtered out). Keep its
  // resume revision fresh with a bookmark so a later re-watch from that
  // revision survives compaction of everything it never needed to see.
  if (w.bookmark_interval > 0 &&
      e.revision - w.last_sent_revision >= w.bookmark_interval) {
    Event bm;
    bm.type = EventType::kBookmark;
    bm.revision = e.revision;
    if (w.channel->Offer(bm)) {
      trace::EmitAt(trace::Component::kWatch, trace::Verb::kBookmark, e.trace,
                    e.revision, e.key, w.id, now_ns);
    }
    w.last_sent_revision = e.revision;
    return;
  }
  // Invisible and no bookmark due: record the skip so the checker can prove
  // this revision was CONSIDERED for this watcher (gap vs. filter decision).
  trace::EmitAt(trace::Component::kWatch, trace::Verb::kSkip, e.trace,
                e.revision, e.key, w.id, now_ns);
}

namespace {
// One trace timestamp per dispatched event: fanning one event out to N
// watchers costs one clock read, not N (the clock dominates EmitAt's cost).
uint64_t TraceNowNs() {
  return trace::Enabled()
             ? static_cast<uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch().count())
             : 0;
}
}  // namespace

size_t KvStore::EventBytes(const Event& e) {
  return sizeof(Event) + e.key.size() + e.value.size() + e.prev_value.size();
}

void KvStore::TrimLogLocked() {
  while (!log_.empty() &&
         (log_.size() > max_log_events_ ||
          (max_log_bytes_ > 0 && log_bytes_ > max_log_bytes_))) {
    log_bytes_ -= EventBytes(log_.front());
    compacted_.store(log_.front().revision, std::memory_order_relaxed);
    log_.pop_front();
  }
}

bool KvStore::PublishLocked(Event e) {
  const int64_t rev = e.revision;
  AppendWalLocked(e);
  log_bytes_ += EventBytes(e);
  log_.push_back(e);
  TrimLogLocked();
  const bool enqueue = fan_targets_.load(std::memory_order_relaxed) > 0;
  if (enqueue) {
    DispatchCmd cmd;
    cmd.kind = DispatchCmd::Kind::kEvent;
    cmd.event = std::move(e);
    EnqueueLocked(std::move(cmd));
  }
  // Last: a reader that observes `rev` also observes the map change and the
  // log entry made above.
  published_.store(rev, std::memory_order_release);
  return enqueue;
}

void KvStore::EnqueueLocked(DispatchCmd cmd) {
  std::lock_guard<std::mutex> pl(pend_mu_);
  pending_.push_back(std::move(cmd));
}

bool KvStore::DispatchOne() {
  DispatchCmd cmd;
  {
    std::lock_guard<std::mutex> pl(pend_mu_);
    if (pending_.empty()) return false;
    cmd = std::move(pending_.front());
    pending_.pop_front();
  }
  ProcessCmd(std::move(cmd));
  return true;
}

void KvStore::ProcessCmd(DispatchCmd cmd) {
  std::lock_guard<std::mutex> fl(fan_mu_);
  if (cmd.kind == DispatchCmd::Kind::kRegister) {
    uint64_t epoch_now;
    {
      std::lock_guard<std::mutex> pl(pend_mu_);
      epoch_now = epoch_;
    }
    if (cmd.epoch != epoch_now) {
      // BreakWatches/Shutdown ran after this registration was enqueued but
      // before it reached the strand: it must break like the rest.
      cmd.watcher.channel->CloseGone();
      fan_targets_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    const uint64_t replay_ns = TraceNowNs();
    for (const Event& e : cmd.replay) {
      OfferFiltered(cmd.watcher, e, replay_ns);
      if (!cmd.watcher.channel->ok()) break;
    }
    watchers_.push_back(std::move(cmd.watcher));
    return;
  }
  // Fan an event out to live watchers; drop the dead ones.
  const uint64_t now_ns = TraceNowNs();
  auto it = watchers_.begin();
  while (it != watchers_.end()) {
    if (!it->channel->ok()) {
      it = watchers_.erase(it);
      fan_targets_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    OfferFiltered(*it, cmd.event, now_ns);
    ++it;
  }
}

void KvStore::FlushWatchDispatch() { dispatch_.Flush(); }

// ------------------------------------------------------------------ mutations

Result<int64_t> KvStore::Put(const std::string& key, std::string value,
                             std::optional<int64_t> expected_mod_revision) {
  Blob blob(std::move(value));  // allocate before taking the lock
  int64_t rev;
  bool enqueued;
  {
    std::unique_lock<std::shared_mutex> l(mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("store is shut down");
    }
    auto it = keys_.lower_bound(key);
    Entry* cur = it != keys_.end() && it->first == key ? &it->second : nullptr;
    if (expected_mod_revision.has_value()) {
      int64_t want = *expected_mod_revision;
      if (want == 0) {
        if (cur != nullptr) {
          trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                      trace::CurrentTraceId(), want, key);
          return AlreadyExistsError("key exists: " + key);
        }
      } else {
        if (cur == nullptr) return NotFoundError("key not found: " + key);
        if (cur->mod_revision != want) {
          trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                      trace::CurrentTraceId(), want, key);
          return ConflictError(StrFormat("mod revision mismatch for %s: have %lld want %lld",
                                         key.c_str(),
                                         static_cast<long long>(cur->mod_revision),
                                         static_cast<long long>(want)));
        }
      }
    }
    // Mint only after every precondition passed: failed writes consume no
    // revision, keeping the stream dense.
    rev = published_.load(std::memory_order_relaxed) + 1;
    Event e;
    e.type = EventType::kPut;
    e.key = key;
    e.value = blob;
    e.revision = rev;
    e.trace = trace::CurrentTraceId();
    live_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
    if (cur == nullptr) {
      live_bytes_.fetch_add(key.size(), std::memory_order_relaxed);
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      keys_.emplace_hint(it, key, Entry{key, std::move(blob), rev, rev, 1});
    } else {
      live_bytes_.fetch_sub(cur->value.size(), std::memory_order_relaxed);
      e.prev_value = std::move(cur->value);
      cur->value = std::move(blob);
      cur->mod_revision = rev;
      ++cur->version;
    }
    // Stamped under mu_: commit records trace in revision order, which the
    // checker's commit-monotonicity pass asserts.
    trace::Emit(trace::Component::kKv, trace::Verb::kPut, e.trace, rev, key);
    enqueued = PublishLocked(std::move(e));
  }
  if (enqueued) dispatch_.Signal();
  MaybeFlushWal();
  return rev;
}

Result<int64_t> KvStore::Delete(const std::string& key,
                                std::optional<int64_t> expected_mod_revision) {
  int64_t rev;
  bool enqueued;
  {
    std::unique_lock<std::shared_mutex> l(mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("store is shut down");
    }
    auto it = keys_.find(key);
    if (it == keys_.end()) return NotFoundError("key not found: " + key);
    Entry& cur = it->second;
    if (expected_mod_revision.has_value() &&
        cur.mod_revision != *expected_mod_revision) {
      trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                  trace::CurrentTraceId(), *expected_mod_revision, key);
      return ConflictError(StrFormat("mod revision mismatch for %s: have %lld want %lld",
                                     key.c_str(),
                                     static_cast<long long>(cur.mod_revision),
                                     static_cast<long long>(*expected_mod_revision)));
    }
    rev = published_.load(std::memory_order_relaxed) + 1;  // as in Put
    Event e;
    e.type = EventType::kDelete;
    e.key = key;
    e.prev_value = std::move(cur.value);
    e.revision = rev;
    e.trace = trace::CurrentTraceId();
    live_bytes_.fetch_sub(key.size() + e.prev_value.size(), std::memory_order_relaxed);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    keys_.erase(it);
    trace::Emit(trace::Component::kKv, trace::Verb::kDelete, e.trace, rev, key);
    enqueued = PublishLocked(std::move(e));
  }
  if (enqueued) dispatch_.Signal();
  MaybeFlushWal();
  return rev;
}

// ---------------------------------------------------------------------- reads

Result<Entry> KvStore::Get(const std::string& key) const {
  std::shared_lock<std::shared_mutex> l(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return NotFoundError("key not found: " + key);
  return it->second;
}

ListResult KvStore::List(const std::string& prefix) const {
  return List(prefix, /*limit=*/0, /*start_after=*/"");
}

ListResult KvStore::List(const std::string& prefix, size_t limit,
                         const std::string& start_after) const {
  // mu_ shared: no commit is in flight, so the scan is the exact state at
  // published_.
  std::shared_lock<std::shared_mutex> l(mu_);
  ListResult out;
  out.revision = published_.load(std::memory_order_relaxed);
  auto it = start_after.empty() ? keys_.lower_bound(prefix)
                                : keys_.upper_bound(start_after);
  for (; it != keys_.end() && StartsWith(it->first, prefix); ++it) {
    if (limit > 0 && out.entries.size() >= limit) {
      out.more = true;
      break;
    }
    out.entries.push_back(it->second);
  }
  return out;
}

int64_t KvStore::CurrentRevision() const {
  return published_.load(std::memory_order_seq_cst);
}

int64_t KvStore::CompactedRevision() const {
  return compacted_.load(std::memory_order_seq_cst);
}

// --------------------------------------------------------------------- watch

Result<std::shared_ptr<WatchChannel>> KvStore::Watch(const std::string& prefix,
                                                     int64_t from_revision,
                                                     size_t buffer_capacity) {
  WatchParams params;
  params.from_revision = from_revision;
  params.buffer_capacity = buffer_capacity;
  return Watch(prefix, std::move(params));
}

Result<std::shared_ptr<WatchChannel>> KvStore::Watch(const std::string& prefix,
                                                     WatchParams params) {
  std::shared_ptr<WatchChannel> ch;
  {
    // mu_ exclusive blocks commits, freezing published_: every event <=
    // published_ is in log_ (or compacted), and every later commit enqueues
    // its dispatch command AFTER this registration. The strand therefore
    // replays (from_revision, published_] exactly once and live events
    // resume at published_ + 1 — no gap, no duplication. Shutdown also sets
    // its flag under mu_, so a registration that saw shutdown == false
    // fully enqueued (with its epoch) before Shutdown's epoch bump.
    std::unique_lock<std::shared_mutex> l(mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("store is shut down");
    }
    const int64_t compacted = compacted_.load(std::memory_order_relaxed);
    if (params.from_revision < compacted) {
      return GoneError(StrFormat("revision %lld compacted (compacted=%lld)",
                                 static_cast<long long>(params.from_revision),
                                 static_cast<long long>(compacted)));
    }
    ch = std::shared_ptr<WatchChannel>(new WatchChannel(params.buffer_capacity));
    DispatchCmd cmd;
    cmd.kind = DispatchCmd::Kind::kRegister;
    cmd.watcher.prefix = prefix;
    cmd.watcher.channel = ch;
    cmd.watcher.filter = std::move(params.filter);
    cmd.watcher.bookmark_interval = params.bookmark_interval;
    cmd.watcher.last_sent_revision = params.from_revision;
    cmd.watcher.id = g_next_watcher_id.fetch_add(1, std::memory_order_relaxed);
    for (const Event& e : log_) {
      if (e.revision <= params.from_revision) continue;
      cmd.replay.push_back(e);
    }
    {
      std::lock_guard<std::mutex> pl(pend_mu_);
      cmd.epoch = epoch_;
    }
    fan_targets_.fetch_add(1, std::memory_order_relaxed);
    EnqueueLocked(std::move(cmd));
  }
  dispatch_.Signal();
  return ch;
}

void KvStore::Compact(int64_t up_to) {
  std::unique_lock<std::shared_mutex> l(mu_);
  while (!log_.empty() && log_.front().revision <= up_to) {
    log_bytes_ -= EventBytes(log_.front());
    compacted_.store(log_.front().revision, std::memory_order_relaxed);
    log_.pop_front();
  }
  if (up_to > compacted_.load(std::memory_order_relaxed) &&
      up_to <= published_.load(std::memory_order_seq_cst)) {
    compacted_.store(up_to, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- lifecycle

void KvStore::Shutdown() {
  bool already;
  {
    // A commit holds mu_ throughout, so once the flag flips under mu_ no
    // commit is mid-flight and new writers observe shutdown_.
    std::unique_lock<std::shared_mutex> l(mu_);
    already = shutdown_.exchange(true, std::memory_order_seq_cst);
  }
  if (already) {
    // A concurrent first Shutdown may still be flushing; wait for it so the
    // destructor never races the strand.
    FlushWatchDispatch();
    return;
  }
  // Durability: flush any buffered records so a clean shutdown loses nothing.
  if (!wal_dir_.empty()) (void)SyncWal();
  {
    std::lock_guard<std::mutex> pl(pend_mu_);
    ++epoch_;  // queued registrations must break too
  }
  std::vector<Watcher> watchers;
  {
    std::lock_guard<std::mutex> fl(fan_mu_);
    watchers.swap(watchers_);
    fan_targets_.fetch_sub(static_cast<int64_t>(watchers.size()),
                           std::memory_order_relaxed);
  }
  for (Watcher& w : watchers) w.channel->CloseGone();
  // Drain the strand: leftover events fan out to the (now empty) watcher set
  // and stale registrations observe the epoch bump and close.
  FlushWatchDispatch();
}

void KvStore::BreakWatches() {
  {
    std::lock_guard<std::mutex> pl(pend_mu_);
    ++epoch_;
  }
  std::vector<Watcher> watchers;
  {
    std::lock_guard<std::mutex> fl(fan_mu_);
    watchers.swap(watchers_);
    fan_targets_.fetch_sub(static_cast<int64_t>(watchers.size()),
                           std::memory_order_relaxed);
  }
  for (Watcher& w : watchers) w.channel->CloseGone();
}

void KvStore::TestDropNextDeliveries(int n) {
  test_drop_deliveries_.fetch_add(n, std::memory_order_relaxed);
}

bool KvStore::IsShutdown() const {
  return shutdown_.load(std::memory_order_acquire);
}

// ------------------------------------------------------------------- accessors

size_t KvStore::ApproxBytes() const {
  return live_bytes_.load(std::memory_order_relaxed);
}

size_t KvStore::EntryCount() const {
  return entry_count_.load(std::memory_order_relaxed);
}

size_t KvStore::LogBytes() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  return log_bytes_;
}

size_t KvStore::LogEvents() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  return log_.size();
}

}  // namespace vc::kv
