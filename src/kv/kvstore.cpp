#include "kv/kvstore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/hash.h"
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
  std::lock_guard<std::mutex> l(signal_mu_);
  signal_ = std::move(fn);
}

void WatchChannel::Signal() {
  std::lock_guard<std::mutex> l(signal_mu_);
  if (signal_) signal_();
}

bool WatchChannel::ok() const {
  std::lock_guard<std::mutex> l(mu_);
  return !cancelled_ && !gone_;
}

bool WatchChannel::Offer(const Event& e) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (cancelled_ || gone_) return false;
    if (queue_.size() >= capacity_) {
      // Slow watcher: poison instead of blocking the dispatcher. The client
      // will observe Gone and relist, exactly like a real etcd watch falling
      // behind the compaction window.
      gone_ = true;
      queue_.clear();
      LOG(WARN) << "kv watch channel overflow (capacity=" << capacity_ << ")";
      cv_.notify_all();
      Signal();
      return false;
    }
    queue_.push_back(e);
  }
  cv_.notify_all();
  Signal();
  return true;
}

void WatchChannel::CloseGone() {
  {
    std::lock_guard<std::mutex> l(mu_);
    gone_ = true;
  }
  cv_.notify_all();
  Signal();
}

// ----------------------------------------------------------------- ShardIndex

ShardIndex::~ShardIndex() {
  std::atomic<IndexNode*>* b = buckets_.load(std::memory_order_relaxed);
  if (b == nullptr) return;
  for (size_t i = 0; i < kBuckets; ++i) {
    IndexNode* n = b[i].load(std::memory_order_relaxed);
    while (n != nullptr) {
      IndexNode* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
  delete[] b;
}

std::atomic<IndexNode*>* ShardIndex::EnsureBuckets() {
  std::atomic<IndexNode*>* b = buckets_.load(std::memory_order_acquire);
  if (b != nullptr) return b;
  // Single writer (shard lock held): no CAS needed, just publish the zeroed
  // array so concurrent lock-free readers see either null or a valid table.
  b = new std::atomic<IndexNode*>[kBuckets]();
  buckets_.store(b, std::memory_order_seq_cst);
  return b;
}

IndexNode* ShardIndex::Upsert(IndexNode* n) {
  std::atomic<IndexNode*>* b = EnsureBuckets();
  std::atomic<IndexNode*>& head = b[(n->hash >> 4) & (kBuckets - 1)];
  IndexNode* prev = nullptr;
  IndexNode* cur = head.load(std::memory_order_seq_cst);
  while (cur != nullptr &&
         !(cur->hash == n->hash && cur->entry.key == n->entry.key)) {
    prev = cur;
    cur = cur->next.load(std::memory_order_seq_cst);
  }
  // Fill n->next before the publishing store below makes n reachable. The
  // displaced node keeps its own next pointer intact: a reader that already
  // holds it can still finish traversing the chain through it.
  n->next.store(cur != nullptr ? cur->next.load(std::memory_order_seq_cst)
                               : head.load(std::memory_order_seq_cst),
                std::memory_order_relaxed);
  if (cur == nullptr) {
    head.store(n, std::memory_order_seq_cst);
    return nullptr;
  }
  if (prev != nullptr) {
    prev->next.store(n, std::memory_order_seq_cst);
  } else {
    head.store(n, std::memory_order_seq_cst);
  }
  return cur;
}

IndexNode* ShardIndex::Erase(std::string_view key, uint64_t hash) {
  std::atomic<IndexNode*>* b = buckets_.load(std::memory_order_acquire);
  if (b == nullptr) return nullptr;
  std::atomic<IndexNode*>& head = b[(hash >> 4) & (kBuckets - 1)];
  IndexNode* prev = nullptr;
  IndexNode* cur = head.load(std::memory_order_seq_cst);
  while (cur != nullptr && !(cur->hash == hash && cur->entry.key == key)) {
    prev = cur;
    cur = cur->next.load(std::memory_order_seq_cst);
  }
  if (cur == nullptr) return nullptr;
  IndexNode* next = cur->next.load(std::memory_order_seq_cst);
  if (prev != nullptr) {
    prev->next.store(next, std::memory_order_seq_cst);
  } else {
    head.store(next, std::memory_order_seq_cst);
  }
  return cur;
}

const IndexNode* ShardIndex::Find(std::string_view key, uint64_t hash) const {
  std::atomic<IndexNode*>* b = buckets_.load(std::memory_order_seq_cst);
  if (b == nullptr) return nullptr;
  const IndexNode* n = b[(hash >> 4) & (kBuckets - 1)].load(std::memory_order_seq_cst);
  while (n != nullptr && !(n->hash == hash && n->entry.key == key)) {
    n = n->next.load(std::memory_order_seq_cst);
  }
  return n;
}

// -------------------------------------------------------------------- KvStore

KvStore::KvStore(Options opts)
    : published_(opts.start_revision),
      compacted_(opts.start_revision),
      max_log_events_(opts.max_log_events),
      max_log_bytes_(opts.max_log_bytes),
      executor_(opts.executor ? std::move(opts.executor)
                              : Executor::SharedFor(RealClock::Get())),
      wal_sync_every_commit_(opts.wal_sync_every_commit),
      wal_buffer_bytes_(opts.wal_buffer_bytes),
      wal_rotate_bytes_(opts.wal_rotate_bytes),
      wal_dir_(opts.wal_dir) {
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

void KvStore::FreeIndexNode(void* p) { delete static_cast<IndexNode*>(p); }

// ------------------------------------------------------------------- recovery

void KvStore::ApplyRecovered(const wal::Record& rec) {
  // Constructor-only: no locks, no readers, no events — rebuild shard state
  // exactly as the original op stream left it.
  const uint64_t h = Fnv1a64(rec.key);
  Shard& sh = shards_[ShardOf(h)];
  auto it = sh.keys.find(rec.key);
  if (rec.type == 2) {  // delete
    if (it == sh.keys.end()) return;
    IndexNode* old = sh.index.Erase(rec.key, h);
    live_bytes_.fetch_sub(rec.key.size() + it->second->entry.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    sh.keys.erase(it);
    delete old;
    return;
  }
  IndexNode* n = new IndexNode;
  n->hash = h;
  n->entry.key = rec.key;
  n->entry.value = rec.value;
  n->entry.mod_revision = rec.revision;
  if (it == sh.keys.end()) {
    n->entry.create_revision = rec.revision;
    n->entry.version = 1;
    live_bytes_.fetch_add(rec.key.size() + rec.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    sh.index.Upsert(n);
    sh.keys.emplace(n->entry.key, n);
  } else {
    const Entry& old = it->second->entry;
    n->entry.create_revision = old.create_revision;
    n->entry.version = old.version + 1;
    live_bytes_.fetch_add(rec.value.size(), std::memory_order_relaxed);
    live_bytes_.fetch_sub(old.value.size(), std::memory_order_relaxed);
    IndexNode* displaced = sh.index.Upsert(n);
    it->second = n;
    delete displaced;
  }
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
    const uint64_t h = Fnv1a64(e.key);
    Shard& sh = shards_[ShardOf(h)];
    IndexNode* n = new IndexNode;
    n->hash = h;
    n->entry = std::move(e);
    live_bytes_.fetch_add(n->entry.key.size() + n->entry.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    sh.index.Upsert(n);
    sh.keys.emplace(n->entry.key, n);
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
  rec.value = e.value;  // refcount bump, no byte copy under log_mu_
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
    std::lock_guard<std::mutex> ll(log_mu_);
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
    // Revision fence: with every shard lock held shared no writer is inside
    // its commit section, so the per-shard maps together form the exact state
    // at published_.
    std::array<std::shared_lock<std::shared_mutex>, kShards> fence;
    for (size_t i = 0; i < kShards; ++i) {
      fence[i] = std::shared_lock<std::shared_mutex>(shards_[i].mu);
    }
    snap.revision = published_.load(std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> ll(log_mu_);
      snap.compacted = compacted_.load(std::memory_order_relaxed);
      // Every pending record has revision <= the fence: the snapshot
      // supersedes them all.
      wal_pending_.clear();
      wal_pending_bytes_.store(0, std::memory_order_relaxed);
    }
    snap.entries.reserve(entry_count_.load(std::memory_order_relaxed));
    for (const Shard& sh : shards_) {
      for (const auto& [key, node] : sh.keys) snap.entries.push_back(node->entry);
    }
  }  // release the fence before file IO
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
    std::lock_guard<std::mutex> ll(log_mu_);
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

void KvStore::PublishLocked(Event e) {
  const int64_t rev = e.revision;
  AppendWalLocked(e);
  log_bytes_ += EventBytes(e);
  log_.push_back(e);
  TrimLogLocked();
  if (fan_targets_.load(std::memory_order_relaxed) > 0) {
    DispatchCmd cmd;
    cmd.kind = DispatchCmd::Kind::kEvent;
    cmd.event = std::move(e);
    EnqueueLocked(std::move(cmd));
  }
  // Last: a reader that observes `rev` also observes the index change and
  // the log entry made above.
  published_.store(rev, std::memory_order_release);
}

void KvStore::EnqueueLocked(DispatchCmd cmd) {
  std::lock_guard<std::mutex> pl(pend_mu_);
  pending_.push_back(std::move(cmd));
}

void KvStore::KickDispatch() {
  {
    std::lock_guard<std::mutex> pl(pend_mu_);
    if (dispatch_active_ || pending_.empty()) return;
    dispatch_active_ = true;
  }
  if (!executor_->Submit([this] { DispatchLoop(); })) {
    // Executor torn down (process exit path): run the strand inline so no
    // command is silently dropped.
    DispatchLoop();
  }
}

void KvStore::DispatchLoop() {
  for (;;) {
    DispatchCmd cmd;
    {
      std::lock_guard<std::mutex> pl(pend_mu_);
      if (pending_.empty()) {
        dispatch_active_ = false;
        pend_cv_.notify_all();
        return;  // must not touch *this past this point (see FlushWatchDispatch)
      }
      cmd = std::move(pending_.front());
      pending_.pop_front();
    }
    ProcessCmd(std::move(cmd));
  }
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

void KvStore::FlushWatchDispatch() {
  KickDispatch();
  BlockingRegion blocking;
  std::unique_lock<std::mutex> pl(pend_mu_);
  pend_cv_.wait(pl, [this] { return pending_.empty() && !dispatch_active_; });
}

// ------------------------------------------------------------------ mutations

Result<int64_t> KvStore::Put(const std::string& key, std::string value,
                             std::optional<int64_t> expected_mod_revision) {
  const uint64_t h = Fnv1a64(key);
  const size_t shard = ShardOf(h);
  Shard& sh = shards_[shard];
  int64_t rev;
  {
    std::unique_lock<std::shared_mutex> l(sh.mu);
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("store is shut down");
    }
    auto it = sh.keys.find(key);
    IndexNode* cur = it == sh.keys.end() ? nullptr : it->second;
    if (expected_mod_revision.has_value()) {
      int64_t want = *expected_mod_revision;
      if (want == 0) {
        if (cur != nullptr) {
          trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                      trace::CurrentTraceId(), want, key, shard);
          return AlreadyExistsError("key exists: " + key);
        }
      } else {
        if (cur == nullptr) return NotFoundError("key not found: " + key);
        if (cur->entry.mod_revision != want) {
          trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                      trace::CurrentTraceId(), want, key, shard);
          return ConflictError(StrFormat("mod revision mismatch for %s: have %lld want %lld",
                                         key.c_str(),
                                         static_cast<long long>(cur->entry.mod_revision),
                                         static_cast<long long>(want)));
        }
      }
    }
    Blob blob(std::move(value));
    Event e;
    e.type = EventType::kPut;
    e.key = key;
    e.value = blob;
    e.trace = trace::CurrentTraceId();
    IndexNode* n = new IndexNode;
    n->hash = h;
    n->entry.key = key;
    n->entry.value = blob;
    if (cur == nullptr) {
      n->entry.version = 1;
      live_bytes_.fetch_add(key.size() + blob.size(), std::memory_order_relaxed);
      entry_count_.fetch_add(1, std::memory_order_relaxed);
    } else {
      e.prev_value = cur->entry.value;
      n->entry.create_revision = cur->entry.create_revision;
      n->entry.version = cur->entry.version + 1;
      live_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
      live_bytes_.fetch_sub(cur->entry.value.size(), std::memory_order_relaxed);
    }
    IndexNode* displaced;
    {
      // Mint only after every precondition passed: failed writes consume no
      // revision, keeping the stream dense. The index change lands before
      // published_ advances, so a lock-free Get sees every revision at or
      // below CurrentRevision().
      std::lock_guard<std::mutex> ll(log_mu_);
      rev = published_.load(std::memory_order_relaxed) + 1;
      e.revision = rev;
      n->entry.mod_revision = rev;
      if (cur == nullptr) n->entry.create_revision = rev;
      displaced = sh.index.Upsert(n);
      PublishLocked(std::move(e));
    }
    // Stamped under the shard lock: commits of one shard trace in revision
    // order, which the checker's per-shard monotonicity pass asserts
    // (arg = shard).
    trace::Emit(trace::Component::kKv, trace::Verb::kPut, trace::CurrentTraceId(), rev,
                key, shard);
    if (it == sh.keys.end()) {
      sh.keys.emplace(key, n);
    } else {
      it->second = n;
    }
    if (displaced != nullptr) sh.limbo.Retire(displaced, &FreeIndexNode);
  }
  KickDispatch();
  MaybeFlushWal();
  return rev;
}

Result<int64_t> KvStore::Delete(const std::string& key,
                                std::optional<int64_t> expected_mod_revision) {
  const uint64_t h = Fnv1a64(key);
  const size_t shard = ShardOf(h);
  Shard& sh = shards_[shard];
  int64_t rev;
  {
    std::unique_lock<std::shared_mutex> l(sh.mu);
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("store is shut down");
    }
    auto it = sh.keys.find(key);
    if (it == sh.keys.end()) return NotFoundError("key not found: " + key);
    IndexNode* cur = it->second;
    if (expected_mod_revision.has_value() &&
        cur->entry.mod_revision != *expected_mod_revision) {
      trace::Emit(trace::Component::kKv, trace::Verb::kCasFail,
                  trace::CurrentTraceId(), *expected_mod_revision, key, shard);
      return ConflictError(StrFormat("mod revision mismatch for %s: have %lld want %lld",
                                     key.c_str(),
                                     static_cast<long long>(cur->entry.mod_revision),
                                     static_cast<long long>(*expected_mod_revision)));
    }
    Event e;
    e.type = EventType::kDelete;
    e.key = key;
    e.prev_value = cur->entry.value;
    e.trace = trace::CurrentTraceId();
    live_bytes_.fetch_sub(key.size() + cur->entry.value.size(),
                          std::memory_order_relaxed);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    IndexNode* unlinked;
    {
      std::lock_guard<std::mutex> ll(log_mu_);  // as in Put
      rev = published_.load(std::memory_order_relaxed) + 1;
      e.revision = rev;
      unlinked = sh.index.Erase(key, h);
      PublishLocked(std::move(e));
    }
    trace::Emit(trace::Component::kKv, trace::Verb::kDelete, trace::CurrentTraceId(), rev,
                key, shard);
    sh.keys.erase(it);
    if (unlinked != nullptr) sh.limbo.Retire(unlinked, &FreeIndexNode);
  }
  KickDispatch();
  MaybeFlushWal();
  return rev;
}

// ---------------------------------------------------------------------- reads

Result<Entry> KvStore::Get(const std::string& key) const {
  const uint64_t h = Fnv1a64(key);
  const Shard& sh = shards_[ShardOf(h)];
  {
    ebr::ReadGuard guard;
    if (guard.pinned()) {
      // Lock-free path: the index is maintained synchronously with the map
      // under the shard lock, so a miss here is a true miss at this
      // linearization point, and a hit is an immutable node the guard keeps
      // alive while we copy it out.
      const IndexNode* n = sh.index.Find(key, h);
      if (n == nullptr) return NotFoundError("key not found: " + key);
      return n->entry;
    }
  }
  // Reader registry exhausted (> ebr::kMaxReaders concurrent reader
  // threads): locked fallback.
  std::shared_lock<std::shared_mutex> l(sh.mu);
  auto it = sh.keys.find(key);
  if (it == sh.keys.end()) return NotFoundError("key not found: " + key);
  return it->second->entry;
}

ListResult KvStore::List(const std::string& prefix) const {
  return List(prefix, /*limit=*/0, /*start_after=*/"");
}

ListResult KvStore::List(const std::string& prefix, size_t limit,
                         const std::string& start_after) const {
  // Revision fence: hold every shard lock shared (fixed order, so fence
  // takers never deadlock each other). A writer commits while holding its
  // shard lock exclusive, so with the full fence held nobody is mid-commit
  // and the k-way merge below is the exact state at published_.
  std::array<std::shared_lock<std::shared_mutex>, kShards> fence;
  for (size_t i = 0; i < kShards; ++i) {
    fence[i] = std::shared_lock<std::shared_mutex>(shards_[i].mu);
  }
  ListResult out;
  out.revision = published_.load(std::memory_order_seq_cst);
  using MapIt = std::map<std::string, IndexNode*>::const_iterator;
  struct Stream {
    MapIt it, end;
  };
  std::array<Stream, kShards> streams;
  for (size_t i = 0; i < kShards; ++i) {
    const auto& keys = shards_[i].keys;
    streams[i].it = start_after.empty() ? keys.lower_bound(prefix)
                                        : keys.upper_bound(start_after);
    streams[i].end = keys.end();
  }
  // K-way merge of the per-shard sorted maps. kShards is small; a linear
  // min-scan beats heap bookkeeping at this width.
  for (;;) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(kShards); ++i) {
      Stream& s = streams[i];
      if (s.it == s.end) continue;
      if (!StartsWith(s.it->first, prefix)) {
        s.it = s.end;  // sorted map: nothing later matches either
        continue;
      }
      if (best < 0 || s.it->first < streams[best].it->first) best = i;
    }
    if (best < 0) break;
    if (limit > 0 && out.entries.size() >= limit) {
      out.more = true;
      break;
    }
    out.entries.push_back(streams[best].it->second->entry);
    ++streams[best].it;
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
    // log_mu_ blocks commits, freezing the fence: every event <=
    // published_ is in log_ (or compacted), and every later commit enqueues
    // its dispatch command AFTER this registration. The strand therefore
    // replays (from_revision, published_] exactly once and live events
    // resume at published_ + 1 — no gap, no duplication. Shutdown also sets
    // its flag under log_mu_, so a registration that saw shutdown == false
    // fully enqueued (with its epoch) before Shutdown's epoch bump.
    std::lock_guard<std::mutex> ll(log_mu_);
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
  KickDispatch();
  return ch;
}

void KvStore::Compact(int64_t up_to) {
  std::lock_guard<std::mutex> ll(log_mu_);
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
    std::lock_guard<std::mutex> ll(log_mu_);
    already = shutdown_.exchange(true, std::memory_order_seq_cst);
  }
  if (already) {
    // A concurrent first Shutdown may still be flushing; wait for it so the
    // destructor never races the strand.
    FlushWatchDispatch();
    return;
  }
  // Barrier: an in-flight writer holds its shard lock through its commit,
  // so after sweeping every shard exclusively no commit is mid-flight. New
  // writers observed shutdown_.
  for (Shard& sh : shards_) {
    sh.mu.lock();
    sh.mu.unlock();
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
  // and stale registrations observe the epoch bump and close. After this, no
  // strand task references *this.
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
  std::lock_guard<std::mutex> ll(log_mu_);
  return log_bytes_;
}

size_t KvStore::LogEvents() const {
  std::lock_guard<std::mutex> ll(log_mu_);
  return log_.size();
}

}  // namespace vc::kv
