// The apiserver read-path cache — kube-apiserver's watchCache reproduced over
// our kv store.
//
//   * DecodeCache — one per apiserver front end: a memoized decode keyed by
//     store revision. One write produces one blob at one revision; every
//     consumer that needs the decoded form (watch cache, TypedWatch
//     deliveries to N informers, namespace admission) shares one object for
//     it — the writer's own object when this front end committed the write,
//     otherwise a single parse of the blob.
//   * WatchCache<T> — a per-kind map of decoded objects maintained from the
//     store's own event stream (a prefix watch with bookmark_interval=1, so
//     the cache's revision advances in lockstep with EVERY store write, not
//     just writes to this kind). Serves Get and unpaged selector List with
//     zero JSON decode bytes; the apiserver falls back to the store for paged
//     / continue-token reads and whenever the cache is unhealthy or stale.
//
// Freshness contract (kube's waitUntilFreshAndBlock): a read first asks the
// store for its current revision, then blocks briefly until the cache has
// applied at least that revision. A read that waited successfully is
// read-your-write consistent with any Put that returned before the read
// began. If the cache cannot catch up in time the caller serves from the
// store instead — the cache is an accelerator, never a correctness risk.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/codec.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/strings.h"
#include "common/trace.h"
#include "kv/kvstore.h"

namespace vc::apiserver {

// Memoized decode keyed by signed store revision: +rev addresses the value
// blob of the event/entry at rev, -rev the prev_value blob of the event at
// rev. Revisions are store-wide unique, so a key names exactly one blob (the
// kind tag is still checked to make collisions impossible, not just
// unlikely).
//
// Write-through: an apiserver verb that commits an object Seeds it under
// +rev, so the readers of that revision share the writer's object and never
// parse the blob. A reader that arrives before the seed decodes, as for a
// blob this front end did not write; the two objects are equal because the
// write path defaults before encoding (api::Default).
//
// Storage is a fixed direct-mapped ring: key k lives in slot
// (2|k| + (k < 0)) mod kSlots, so the value and prev_value of one revision
// sit side by side and a slot is reused kSlots/2 revisions later. Replacing
// a slot evicts its previous object; consumers still holding it keep it
// alive through their shared_ptr.
class DecodeCache {
 public:
  static constexpr size_t kSlots = 8192;

  // Returns the decoded object for `key`, parsing (and caching) `blob` on a
  // miss. stamp_rv is written into meta.resource_version of a freshly decoded
  // object (never stored in the blob itself).
  template <typename T>
  Result<std::shared_ptr<const T>> GetOrDecode(int64_t key, const kv::Blob& blob,
                                               int64_t stamp_rv) {
    {
      std::lock_guard<std::mutex> l(mu_);
      const Slot& s = slots_[Index(key)];
      if (Holds<T>(s, key)) return std::static_pointer_cast<const T>(s.obj);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    decoded_bytes_.fetch_add(blob.size(), std::memory_order_relaxed);
    Result<T> obj = api::Decode<T>(blob.str());
    if (!obj.ok()) return obj.status();
    obj->meta.resource_version = stamp_rv;
    return Install<T>(key, std::make_shared<const T>(std::move(*obj)));
  }

  // Write-through: caches `obj`, the object just committed at revision `rev`
  // (resource_version already stamped), as the decode of the value blob at
  // +rev. The copy is made before the lock is taken.
  template <typename T>
  void Seed(int64_t rev, const T& obj) {
    Install<T>(rev, std::make_shared<const T>(obj));
  }

  // Blobs actually parsed, and their bytes (each parse counted once, not per
  // reader; a seeded revision costs nothing).
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t decoded_bytes() const { return decoded_bytes_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    int64_t key = 0;  // 0 = empty: no store revision is 0
    const char* kind = nullptr;
    std::shared_ptr<const void> obj;
  };

  static size_t Index(int64_t key) {
    const uint64_t mag = key < 0 ? 0 - static_cast<uint64_t>(key) : static_cast<uint64_t>(key);
    return static_cast<size_t>((2 * mag + (key < 0 ? 1 : 0)) % kSlots);
  }

  template <typename T>
  static bool Holds(const Slot& s, int64_t key) {
    return s.key == key && s.obj && std::strcmp(s.kind, T::kKind) == 0;
  }

  // Puts `p` in key's slot and returns the cached object for key. A slot that
  // already holds the key is left alone: a racing reader's decode (or the
  // writer's seed) of the same blob is equal, and sharing it saves memory.
  template <typename T>
  std::shared_ptr<const T> Install(int64_t key, std::shared_ptr<const T> p) {
    std::shared_ptr<const void> evicted;  // released after the unlock
    std::lock_guard<std::mutex> l(mu_);
    Slot& s = slots_[Index(key)];
    if (Holds<T>(s, key)) return std::static_pointer_cast<const T>(s.obj);
    evicted = std::move(s.obj);
    s.key = key;
    s.kind = T::kKind;
    s.obj = p;
    return p;
  }

  std::mutex mu_;
  std::array<Slot, kSlots> slots_;
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> decoded_bytes_{0};
};

template <typename T>
class WatchCache {
 public:
  struct Item {
    std::shared_ptr<const T> obj;  // resource_version stamped = mod_revision
    kv::Blob blob;                 // raw encoding, for field-selector scans
    int64_t mod_revision = 0;
  };

  WatchCache(kv::KvStore* store, std::string prefix,
             std::shared_ptr<DecodeCache> decode, std::shared_ptr<Executor> exec)
      : store_(store),
        prefix_(std::move(prefix)),
        decode_(std::move(decode)),
        apply_(std::move(exec), [this] { return ApplyBatch(); }) {
    Rebuild();  // synchronous so the first read after construction can hit
  }

  ~WatchCache() { Stop(); }

  WatchCache(const WatchCache&) = delete;
  WatchCache& operator=(const WatchCache&) = delete;

  bool healthy() const {
    std::lock_guard<std::mutex> l(mu_);
    return healthy_;
  }
  int64_t revision() const {
    std::lock_guard<std::mutex> l(mu_);
    return revision_;
  }
  uint64_t rebuilds() const { return rebuilds_.load(std::memory_order_relaxed); }

  // Blocks (real time, bounded) until the cache has applied `target`.
  // Returns false when unhealthy or the deadline passes — caller must serve
  // from the store. `target` is the store's CurrentRevision(): every
  // revision at or below it is already in the watch stream, so the wait
  // never stalls behind a write in flight, and read-your-write holds because
  // a mutation returns only after its revision is published.
  bool WaitFresh(int64_t target, Duration timeout) {
    BlockingRegion blocking;  // reconcilers call reads from pool tasks
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait_for(l, timeout, [&] { return !healthy_ || revision_ >= target; });
    const bool fresh = healthy_ && revision_ >= target;
    if (fresh) {
      // Still under mu_: revision_ is exactly what this read will serve from.
      // The checker's read-your-write pass asserts revision >= arg (target).
      trace::Emit(trace::Component::kWatchCache, trace::Verb::kCacheServe,
                  trace::CurrentTraceId(), revision_, prefix_,
                  static_cast<uint64_t>(target));
    }
    return fresh;
  }

  // Fresh read of one key. Unavailable = cache cannot serve (fall back to the
  // store); NotFound = authoritative "does not exist as of a fresh revision".
  Result<std::shared_ptr<const T>> GetFresh(const std::string& key, int64_t target,
                                            Duration timeout) {
    if (!WaitFresh(target, timeout)) return UnavailableError("watch cache not fresh");
    std::lock_guard<std::mutex> l(mu_);
    if (!healthy_) return UnavailableError("watch cache unhealthy");
    auto it = items_.find(key);
    if (it == items_.end()) return NotFoundError("not in watch cache");
    return it->second.obj;
  }

  // Fresh snapshot scan of every item under key_prefix, in key order, under
  // one lock hold (consistent at *revision_out). Returns false when the cache
  // cannot serve. fn: void(const std::string& key, const Item&).
  template <typename Fn>
  bool SnapshotScan(const std::string& key_prefix, int64_t target, Duration timeout,
                    int64_t* revision_out, Fn&& fn) {
    if (!WaitFresh(target, timeout)) return false;
    std::lock_guard<std::mutex> l(mu_);
    if (!healthy_) return false;
    *revision_out = revision_;
    for (auto it = items_.lower_bound(key_prefix); it != items_.end(); ++it) {
      if (!StartsWith(it->first, key_prefix)) break;
      fn(it->first, it->second);
    }
    return true;
  }

  size_t size() const {
    std::lock_guard<std::mutex> l(mu_);
    return items_.size();
  }

 private:
  // Events the cache's store watch buffers before it breaks and rebuilds.
  static constexpr size_t kWatchBuffer = 1 << 16;

  // (Re-)prime from a store snapshot and re-arm the event stream. Runs in the
  // constructor and on the apply strand after the watch breaks (compaction
  // overrun, BreakWatches/Restart).
  bool Rebuild() {
    std::shared_ptr<kv::WatchChannel> old;
    {
      std::lock_guard<std::mutex> l(mu_);
      old = std::move(watch_);
      healthy_ = false;
    }
    if (old) {
      old->SetSignal(nullptr);
      old->Cancel();
    }
    kv::ListResult snap = store_->List(prefix_);
    kv::WatchParams params;
    params.from_revision = snap.revision;
    params.buffer_capacity = kWatchBuffer;
    // Every store revision must reach us (as data or bookmark) or freshness
    // waits would stall whenever other kinds are being written.
    params.bookmark_interval = 1;
    Result<std::shared_ptr<kv::WatchChannel>> ch = store_->Watch(prefix_, std::move(params));
    if (!ch.ok()) return false;  // store shut down; stay unhealthy
    std::map<std::string, Item> items;
    for (const kv::Entry& e : snap.entries) {
      Result<std::shared_ptr<const T>> obj =
          decode_->GetOrDecode<T>(e.mod_revision, e.value, e.mod_revision);
      if (!obj.ok()) continue;  // malformed blob: leave it to the store path
      items.emplace(e.key, Item{std::move(*obj), e.value, e.mod_revision});
    }
    {
      std::lock_guard<std::mutex> l(mu_);
      items_.swap(items);
      revision_ = snap.revision;
      watch_ = *ch;
      healthy_ = true;
    }
    cv_.notify_all();
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    // Signal is installed after the channel is published; the Signal below
    // picks up anything buffered in the gap.
    (*ch)->SetSignal([this] { apply_.Signal(); });
    apply_.Signal();
    return true;
  }

  // The apply strand's body: drains a bounded batch of events into the map.
  // Returns true when more immediate work remains.
  bool ApplyBatch() {
    std::shared_ptr<kv::WatchChannel> w;
    {
      std::lock_guard<std::mutex> l(mu_);
      w = watch_;
    }
    if (!w) {
      // Watch previously broke. Rebuild unless the store is gone for good.
      if (store_->IsShutdown()) return false;
      Rebuild();
      return false;  // Rebuild signalled the strand for buffered events
    }
    for (int budget = 0; budget < 256; ++budget) {
      std::optional<kv::Event> e = w->TryNext();
      if (!e) {
        if (w->ok()) return false;  // idle and healthy
        // Dead channel (overflow / BreakWatches / shutdown): drop it and let
        // the next batch rebuild from a fresh snapshot.
        w->SetSignal(nullptr);
        {
          std::lock_guard<std::mutex> l(mu_);
          if (watch_ == w) watch_.reset();
          healthy_ = false;
        }
        cv_.notify_all();
        return true;
      }
      Apply(*e);
    }
    return true;
  }

  void Apply(const kv::Event& e) {
    if (e.type == kv::EventType::kPut) {
      Result<std::shared_ptr<const T>> obj =
          decode_->GetOrDecode<T>(e.revision, e.value, e.revision);
      std::lock_guard<std::mutex> l(mu_);
      if (obj.ok()) {
        items_[e.key] = Item{std::move(*obj), e.value, e.revision};
      } else {
        items_.erase(e.key);  // malformed: don't serve a stale decode
      }
      revision_ = e.revision;
    } else if (e.type == kv::EventType::kDelete) {
      std::lock_guard<std::mutex> l(mu_);
      items_.erase(e.key);
      revision_ = e.revision;
    } else {  // bookmark: freshness only
      std::lock_guard<std::mutex> l(mu_);
      revision_ = e.revision;
    }
    trace::Emit(trace::Component::kWatchCache, trace::Verb::kCacheApply,
                e.trace, e.revision, e.key.empty() ? prefix_ : e.key);
    cv_.notify_all();
  }

  // Stops the strand first: a run that found its watch broken may Rebuild a
  // fresh one (with a signal into `this`) until then; whatever the last run
  // left is cancelled after.
  void Stop() {
    apply_.Stop();
    CancelWatch();
  }

  void CancelWatch() {
    std::shared_ptr<kv::WatchChannel> w;
    {
      std::lock_guard<std::mutex> l(mu_);
      w = std::move(watch_);
      healthy_ = false;
    }
    if (w) {
      w->SetSignal(nullptr);  // blocks out in-flight signals
      w->Cancel();
    }
    cv_.notify_all();
  }

  kv::KvStore* store_;
  const std::string prefix_;
  std::shared_ptr<DecodeCache> decode_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Item> items_;
  std::shared_ptr<kv::WatchChannel> watch_;
  int64_t revision_ = 0;
  bool healthy_ = false;

  std::atomic<uint64_t> rebuilds_{0};

  // Applies the watch stream (ApplyBatch); declared last so it stops first.
  Strand apply_;
};

}  // namespace vc::apiserver
