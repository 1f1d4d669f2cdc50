// SharedInformer<T>: reflector (list+watch with relist-on-Gone) + object
// cache + event handler fan-out — the client-go machinery of Figure 3 in the
// paper. One informer per (apiserver, resource type, namespace scope);
// handlers typically enqueue keys into work queues and reconcilers read the
// authoritative state back from the informer cache.
//
// Failure behaviour reproduced from client-go:
//   * Watch returning Gone (compaction / apiserver restart) → full relist;
//     synthetic Add/Update/Delete deltas are emitted for the differences.
//   * List errors → exponential backoff retry.
//   * The cache is eventually consistent with the apiserver; reconcilers must
//     tolerate reading slightly stale objects (the syncer's races, §III-C).
//
// Threading: the informer owns no thread. Its reflector steps run on one
// vc::Strand on the clock's shared executor: the watch channel's push signal
// and the relist backoff timer signal it, and at most one step runs at a
// time, so handlers stay serialized.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apiserver/apiserver.h"
#include "client/cache.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/logging.h"

namespace vc::client {

// List+Watch binding to one apiserver. Carries the reflector's scope: the
// namespace, server-side selectors, and the watch bookmark interval.
// Selectors are applied by the SERVER, so a heavily filtered reflector
// decodes (and transfers) only the objects it actually caches.
template <typename T>
struct ReflectorOptions {
  std::string ns;              // "" = all namespaces
  std::string label_selector;  // kubectl grammar, evaluated server-side
  std::string field_selector;
  // Bookmark cadence for the watch (revisions of invisible churn between
  // bookmarks); 0 disables bookmarks. Keep > 0 for selective watchers or an
  // idle reflector's resume revision falls behind compaction.
  int64_t bookmark_interval = 256;
};

template <typename T>
class ListerWatcher {
 public:
  ListerWatcher() = default;
  ListerWatcher(apiserver::APIServer* server, std::string ns = "",
                apiserver::RequestContext ctx = apiserver::RequestContext::Loopback())
      : server_(server), ctx_(std::move(ctx)) {
    opts_.ns = std::move(ns);
  }
  ListerWatcher(apiserver::APIServer* server, ReflectorOptions<T> opts,
                apiserver::RequestContext ctx = apiserver::RequestContext::Loopback())
      : server_(server), opts_(std::move(opts)), ctx_(std::move(ctx)) {}

  // One unpaged (filtered) list: a single snapshot and its revision.
  Result<apiserver::TypedList<T>> List() const {
    apiserver::ListOptions lo;
    lo.ns = opts_.ns;
    lo.label_selector = opts_.label_selector;
    lo.field_selector = opts_.field_selector;
    return server_->List<T>(lo, ctx_);
  }

  Result<apiserver::TypedWatch<T>> Watch(int64_t rv) const {
    apiserver::WatchOptions wo;
    wo.ns = opts_.ns;
    wo.from_revision = rv;
    wo.label_selector = opts_.label_selector;
    wo.field_selector = opts_.field_selector;
    wo.bookmark_interval = opts_.bookmark_interval;
    return server_->Watch<T>(wo, ctx_);
  }

  apiserver::APIServer* server() const { return server_; }

 private:
  apiserver::APIServer* server_ = nullptr;
  ReflectorOptions<T> opts_;
  apiserver::RequestContext ctx_;
};

template <typename T>
struct EventHandlers {
  std::function<void(const T& obj)> on_add;
  std::function<void(const T& old_obj, const T& new_obj)> on_update;
  std::function<void(const T& obj)> on_delete;
};

template <typename T>
class SharedInformer {
 public:
  struct Options {
    Clock* clock = RealClock::Get();
    // Invoked at the start of every strand step; the returned token lives for
    // that step. Used e.g. to enroll the step's CPU time in a CpuTimeGroup
    // for the syncer's Fig. 10 accounting.
    std::function<std::shared_ptr<void>()> thread_hook;
  };

  explicit SharedInformer(ListerWatcher<T> lw) : lw_(std::move(lw)) {}
  SharedInformer(ListerWatcher<T> lw, Options opts) : lw_(std::move(lw)), opts_(opts) {}

  ~SharedInformer() { Stop(); }

  SharedInformer(const SharedInformer&) = delete;
  SharedInformer& operator=(const SharedInformer&) = delete;

  // Handlers must be registered before Start(); they are invoked from the
  // informer's strand (one step at a time, never concurrently).
  void AddHandlers(EventHandlers<T> h) { handlers_.push_back(std::move(h)); }

  void Start() {
    std::lock_guard<std::mutex> l(sm_mu_);
    if (started_) return;
    started_ = true;
    step_.Start();
    step_.Signal();
  }

  // Waits out the step in progress. No step runs after it, so the watch and
  // the timers the steps left behind are released here; Start() resumes from
  // the last observed revision.
  void Stop() {
    std::lock_guard<std::mutex> l(sm_mu_);
    if (!started_) return;
    started_ = false;
    step_.Stop();
    backoff_timer_.Cancel();
    if (watch_) {
      watch_->SetSignal(nullptr);  // blocks out in-flight signals
      watch_->Cancel();
      watch_.reset();
    }
  }

  bool HasSynced() const { return synced_.load(); }

  bool WaitForSync(Duration timeout) {
    BlockingRegion br;  // callers may poll from a pool task
    Stopwatch sw(opts_.clock);
    while (!HasSynced()) {
      if (sw.Elapsed() > timeout) return false;
      opts_.clock->SleepFor(Millis(1));
    }
    return true;
  }

  ObjectCache<T>& cache() { return cache_; }
  const ObjectCache<T>& cache() const { return cache_; }

  uint64_t relists() const { return relists_.load(); }
  // Watch re-establishments that skipped the relist (resume revision was
  // still uncompacted — usually thanks to bookmarks).
  uint64_t resumes() const { return resumes_.load(); }
  uint64_t bookmarks() const { return bookmarks_.load(); }

 private:
  using Ptr = typename ObjectCache<T>::Ptr;

  // Delay before retrying a failed list or watch.
  static constexpr Duration kRelistBackoff = Millis(20);

  void Dispatch(const Ptr& old_obj, const Ptr& new_obj) {
    for (const EventHandlers<T>& h : handlers_) {
      if (old_obj && new_obj) {
        if (h.on_update) h.on_update(*old_obj, *new_obj);
      } else if (new_obj) {
        if (h.on_add) h.on_add(*new_obj);
      } else if (old_obj) {
        if (h.on_delete) h.on_delete(*old_obj);
      }
    }
  }

  // One full list + diff-emit. Returns the snapshot revision, or -1 on error.
  int64_t Relist() {
    Result<apiserver::TypedList<T>> list = lw_.List();
    if (!list.ok()) {
      LOG(WARN) << "informer<" << T::kKind << ">: list failed: " << list.status();
      return -1;
    }
    relists_.fetch_add(1);
    std::map<std::string, Ptr> old = cache_.Replace(list->items);
    // Synthesize deltas for differences between old and new contents.
    for (const T& item : list->items) {
      std::string key = ObjectCache<T>::KeyOf(item);
      auto it = old.find(key);
      Ptr fresh = cache_.GetByKey(key);
      if (it == old.end()) {
        Dispatch(nullptr, fresh);
      } else {
        if (it->second->meta.resource_version != item.meta.resource_version) {
          Dispatch(it->second, fresh);
        }
        old.erase(it);
      }
    }
    for (const auto& [key, gone] : old) {
      Dispatch(gone, nullptr);
    }
    synced_.store(true);
    return list->revision;
  }

  // The strand's body: one bounded unit of reflector work. Returns true when
  // more immediate work remains (another batch of buffered events, or a
  // broken watch to re-establish); false when the strand should wait for a
  // signal or timer.
  bool Step() {
    // The CPU-accounting token lives for this step and is dropped before the
    // strand can report idle, after which Stop() may return and the owner
    // (and the CpuTimeGroup the token charges) may be destroyed.
    const std::shared_ptr<void> token = opts_.thread_hook ? opts_.thread_hook() : nullptr;
    std::shared_ptr<apiserver::TypedWatch<T>> watch = watch_;
    if (!watch) {
      // (Re-)establish the watch. `rv_` is the last revision observed via
      // list, data events, or bookmarks; when a watch breaks we first try to
      // re-watch from here — bookmarks keep it ahead of compaction for
      // idle/filtered reflectors, so the common case is a cheap resume
      // instead of a full relist.
      if (rv_ < 0) {
        rv_ = Relist();
        if (rv_ < 0) {
          ArmBackoff();
          return false;
        }
      } else {
        resumes_.fetch_add(1);
      }
      Result<apiserver::TypedWatch<T>> res = lw_.Watch(rv_);
      if (!res.ok()) {
        LOG(WARN) << "informer<" << T::kKind << ">: watch from rv=" << rv_
                  << " failed: " << res.status();
        // Gone: the resume revision was compacted — the cache may have missed
        // deletes, so only a full relist can resynchronize it.
        rv_ = -1;
        ArmBackoff();
        return false;
      }
      watch = std::make_shared<apiserver::TypedWatch<T>>(std::move(*res));
      // Install the push signal BEFORE draining so no event slips between
      // establishment and subscription; drain below picks up anything that
      // arrived in the gap.
      watch->SetSignal([this] { step_.Signal(); });
      watch_ = watch;
    }
    // Drain a batch; the bound spaces out the strand's stop checks.
    for (int budget = 0; budget < 64; ++budget) {
      Result<apiserver::WatchEvent<T>> ev = watch->NextShared(Duration::zero());
      if (!ev.ok()) {
        if (ev.status().code() == Code::kTimeout) return false;  // idle, healthy
        // Gone (overflow/restart/shutdown) or Aborted: drop the channel; the
        // next step retries from rv_ before falling back to a relist. Clear
        // the signal so the dead channel cannot reference us once dropped.
        watch->SetSignal(nullptr);
        watch->Cancel();
        watch_.reset();
        return true;
      }
      rv_ = ev->revision;
      if (ev->type == apiserver::WatchEvent<T>::Type::kBookmark) {
        bookmarks_.fetch_add(1);
        continue;
      }
      // The server's memoized decode: all informers watching this kind share
      // one immutable object per event (see WatchEvent::shared).
      if (!ev->shared) continue;  // delete with no prior state
      if (ev->type == apiserver::WatchEvent<T>::Type::kPut) {
        Ptr old = cache_.UpsertShared(ev->shared);
        Dispatch(old, ev->shared);
      } else {
        Ptr old = cache_.Delete(ObjectCache<T>::KeyOf(*ev->shared));
        if (old) Dispatch(old, nullptr);
      }
    }
    return true;  // batch exhausted; more may be buffered
  }

  void ArmBackoff() {
    backoff_timer_ = step_.executor()->RunAfter(kRelistBackoff, [this] { step_.Signal(); });
  }

  ListerWatcher<T> lw_;
  Options opts_;
  ObjectCache<T> cache_;
  std::vector<EventHandlers<T>> handlers_;

  // Start/Stop lifecycle; guards started_.
  std::mutex sm_mu_;
  bool started_ = false;
  // Steps own watch_, backoff_timer_ and rv_ (steps never run concurrently);
  // Stop() releases the first two once no step can follow.
  std::shared_ptr<apiserver::TypedWatch<T>> watch_;
  TimerHandle backoff_timer_;
  int64_t rv_ = -1;

  std::atomic<bool> synced_{false};
  std::atomic<uint64_t> relists_{0};
  std::atomic<uint64_t> resumes_{0};
  std::atomic<uint64_t> bookmarks_{0};

  // Runs Step() on the clock's shared executor; declared last so it stops
  // before anything a step touches is destroyed.
  Strand step_{Executor::SharedFor(opts_.clock), [this] { return Step(); }};
};

}  // namespace vc::client
