// The apiserver: a typed, watchable object registry over a kv::KvStore —
// the front end of a Kubernetes control plane. Every control plane in the
// system (the super cluster and each tenant control plane) is one APIServer
// instance, matching the paper's deployment ("each tenant control plane used
// a dedicated etcd"). A control plane may also scale its serving tier OUT:
// several APIServer front ends can share one store (Options::store), each
// with its own watch-cache replicas, dispatcher, and rate limits, while
// writes CAS into the shared store — revision semantics and the watch
// no-gap/no-dup contract are unchanged because there is still exactly one
// revision counter (see FrontendTier).
//
// Faithfully reproduced apiserver behaviours the rest of the stack depends on:
//   * Optimistic concurrency: updates/deletes CAS on metadata.resourceVersion
//     and fail with Conflict (409) on mismatch.
//   * Uniqueness of namespace/name per resource kind (AlreadyExists, 409).
//   * List returns a snapshot revision; Watch(from) resumes exactly there;
//     watching from a compacted revision fails Gone (410) → client relists.
//   * Finalizers: Delete on an object with finalizers only sets
//     deletionTimestamp; actual removal happens when the last finalizer is
//     stripped by its controller.
//   * Admission: namespaced creates require an existing, non-terminating
//     namespace; metadata defaults (uid, creationTimestamp) are filled in.
//   * RBAC authorization and per-identity token-bucket rate limits (429).
//   * Priority & fairness: every verb runs Admit → Execute → Account through
//     the RequestDispatcher (see dispatch.h) — priority bands, per-flow fair
//     queuing of inflight slots, best-effort shedding with 429.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/codec.h"
#include "api/options.h"
#include "api/selector.h"
#include "api/types.h"
#include "apiserver/dispatch.h"
#include "apiserver/rbac.h"
#include "apiserver/request_context.h"
#include "apiserver/watch_cache.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/token_bucket.h"
#include "kv/kvstore.h"

namespace vc::apiserver {

// The verb options live in api/options.h together with NormalizeOptions (the
// ONE place defaulting/invariants are enforced); aliased here because the
// whole tree spells them apiserver::ListOptions etc.
using api::GetOptions;
using api::ListOptions;
using api::WatchOptions;

template <typename T>
struct WatchEvent {
  // kBookmark is revision-only: `object` is default-constructed and carries no
  // data. Consumers update their resume revision and move on.
  enum class Type { kPut, kDelete, kBookmark };
  Type type = Type::kPut;
  T object;           // new state for kPut; last known state for kDelete
  int64_t revision = 0;
  // The memoized decoded object from the server's DecodeCache
  // (resource_version already stamped): the writer's own object for a write
  // this front end committed, else one shared parse of the blob. N informers
  // watching one kind share it; consumers that can hold a shared_ptr<const T>
  // (ObjectCache::UpsertShared) read it through TypedWatch::NextShared and
  // skip the copy into `object` entirely.
  std::shared_ptr<const T> shared;
};

// Typed view over a kv watch channel; decodes values lazily per event,
// memoized through the server's DecodeCache.
template <typename T>
class TypedWatch {
 public:
  TypedWatch() = default;
  TypedWatch(std::shared_ptr<kv::WatchChannel> ch, std::shared_ptr<DecodeCache> decode)
      : ch_(std::move(ch)), decode_(std::move(decode)) {}

  // Same status contract as kv::WatchChannel::Next (Timeout/Aborted/Gone).
  Result<WatchEvent<T>> Next(Duration timeout) {
    Result<WatchEvent<T>> out = NextShared(timeout);
    if (out.ok() && out->shared) out->object = *out->shared;
    return out;
  }

  // Non-blocking Next: Timeout status when the buffer is empty but the
  // channel is healthy; Aborted/Gone when it is dead. Push-driven consumers
  // pair this with SetSignal.
  Result<WatchEvent<T>> TryNext() { return Next(Duration::zero()); }

  // Next without the copy into `object`, which stays default-constructed:
  // the state is in `shared` only, and `shared` is null for a bookmark and
  // for a delete with no prior state.
  Result<WatchEvent<T>> NextShared(Duration timeout) {
    if (!ch_) return InternalError("watch not started");
    Result<kv::Event> e = ch_->Next(timeout);
    if (!e.ok()) return e.status();
    WatchEvent<T> out;
    out.revision = e->revision;
    if (e->type == kv::EventType::kBookmark) {
      out.type = WatchEvent<T>::Type::kBookmark;
      return out;
    }
    const bool is_put = e->type == kv::EventType::kPut;
    out.type = is_put ? WatchEvent<T>::Type::kPut : WatchEvent<T>::Type::kDelete;
    const kv::Blob& blob = is_put ? e->value : e->prev_value;
    if (blob.empty()) return out;  // delete with no prior state
    // DecodeCache key: +rev = the event's value blob, -rev = its prev_value
    // blob (revisions are store-wide unique, so this names exactly one
    // blob). Every TypedWatch and the WatchCache share one object per event.
    Result<std::shared_ptr<const T>> obj =
        decode_->GetOrDecode<T>(is_put ? e->revision : -e->revision, blob, e->revision);
    if (!obj.ok()) return obj.status();
    out.shared = std::move(*obj);
    return out;
  }

  void Cancel() {
    if (ch_) ch_->Cancel();
  }
  bool ok() const { return ch_ && ch_->ok(); }

  // See kv::WatchChannel::SetSignal: fn fires after every buffered event,
  // Cancel, or channel death; SetSignal(nullptr) blocks out in-flight calls.
  void SetSignal(std::function<void()> fn) {
    if (ch_) ch_->SetSignal(std::move(fn));
  }

 private:
  std::shared_ptr<kv::WatchChannel> ch_;
  std::shared_ptr<DecodeCache> decode_;
};

template <typename T>
struct TypedList {
  std::vector<T> items;
  int64_t revision = 0;
  // Paged list only: set when live objects remain past this page. Feed
  // continue_token into the next ListOptions to fetch them; an expired token
  // (snapshot compacted away) fails Gone (410) and the client must relist.
  bool more = false;
  std::string continue_token;
};

// Per-verb request counters, exposed for interference/observability tests.
struct ServerStats {
  std::atomic<uint64_t> creates{0};
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> lists{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> watches{0};
  std::atomic<uint64_t> rate_limited{0};
  std::atomic<uint64_t> conflicts{0};
  // Read-path cost accounting: bytes skip-scanned for selector evaluation vs
  // bytes fully decoded onto the wire. A selective list keeps decoded ≪
  // scanned — the O(matching) story the micro benches assert. A cache-served
  // list decodes NOTHING: objects come pre-decoded from the watch cache.
  std::atomic<uint64_t> list_bytes_scanned{0};
  std::atomic<uint64_t> list_bytes_decoded{0};
  // Reads answered by the per-kind watch cache (no store List, no decode).
  std::atomic<uint64_t> cache_served_gets{0};
  std::atomic<uint64_t> cache_served_lists{0};

  // Store log pressure gauges, refreshed after every mutation (Fig. 10
  // accounting: replay-log growth is the reclaimable part of control-plane
  // memory).
  std::atomic<uint64_t> store_log_bytes{0};
  std::atomic<uint64_t> store_log_events{0};
  std::atomic<int64_t> store_compacted_revision{0};

  uint64_t TotalMutations() const { return creates + updates + deletes; }

  // Per-identity request counts keyed by RequestContext::StatsKey(). Striped
  // across shards so the per-request bump does not serialize every identity
  // behind one global mutex on the hot path. Each identity also remembers the
  // trace id of its most recent request, so "who is loading this server" can
  // be joined straight to that request's trace records.
  void BumpIdentity(const std::string& key, uint64_t trace = 0) {
    IdentityShard& s = ShardFor(key);
    std::lock_guard<std::mutex> l(s.mu);
    IdentityEntry& e = s.counts[key];
    e.requests++;
    if (trace != 0) e.last_trace = trace;
  }
  uint64_t IdentityRequests(const std::string& key) const {
    IdentityShard& s = ShardFor(key);
    std::lock_guard<std::mutex> l(s.mu);
    auto it = s.counts.find(key);
    return it == s.counts.end() ? 0 : it->second.requests;
  }
  // Trace id of the identity's most recent traced request (0 = none seen).
  uint64_t IdentityLastTrace(const std::string& key) const {
    IdentityShard& s = ShardFor(key);
    std::lock_guard<std::mutex> l(s.mu);
    auto it = s.counts.find(key);
    return it == s.counts.end() ? 0 : it->second.last_trace;
  }
  std::map<std::string, uint64_t> PerIdentity() const {
    std::map<std::string, uint64_t> out;
    for (const IdentityShard& s : identity_shards_) {
      std::lock_guard<std::mutex> l(s.mu);
      for (const auto& [k, v] : s.counts) out[k] += v.requests;
    }
    return out;
  }

 private:
  static constexpr size_t kIdentityShards = 16;
  struct IdentityEntry {
    uint64_t requests = 0;
    uint64_t last_trace = 0;
  };
  struct IdentityShard {
    mutable std::mutex mu;
    std::map<std::string, IdentityEntry> counts;
  };
  IdentityShard& ShardFor(const std::string& key) const {
    return identity_shards_[Fnv1a64(key) % kIdentityShards];
  }
  mutable std::array<IdentityShard, kIdentityShards> identity_shards_;
};

class APIServer {
 public:
  struct Options {
    std::string name = "apiserver";
    Clock* clock = RealClock::Get();
    // When set, this front end SERVES the given store instead of owning a
    // dedicated one — the multi-front-end mode (see FrontendTier). The store
    // keeps the single revision counter; this front end keeps its own watch
    // caches, dispatcher, rate limits, and stats.
    std::shared_ptr<kv::KvStore> store;
    // Per-identity rate limit; 0 = unlimited. The paper notes tenant control
    // planes run with built-in rate limits enabled (§III-C).
    double client_qps = 0;
    double client_burst = 100;
    bool create_default_namespaces = true;
    // Injected per-request service latency simulating handler + network cost.
    Duration request_latency = Duration::zero();
    // Maximum concurrently-executing requests (kube-apiserver's
    // --max-requests-inflight). 0 = unlimited. With a limit, a tenant
    // flooding a SHARED apiserver visibly delays everyone else — the Fig. 1
    // interference problem that motivates per-tenant control planes.
    int max_inflight = 0;
    // Server-side priority & fairness (kube-APF) over the inflight budget:
    // per-band assured concurrency, per-flow fair queuing, best-effort
    // shedding with 429. Off by default so a plain shared apiserver still
    // exhibits the Fig. 1 crowding-out the paper measures; the serving tier
    // turns it on. Remaining knobs mirror RequestDispatcher::Options.
    bool fairness = false;
    size_t queue_limit = 1024;
    Duration best_effort_max_wait = Millis(50);
    // Per-kind watch cache serving Get and unpaged List from decoded objects
    // (kube's watchCache). Reads fall back to the store whenever the cache
    // cannot answer with read-your-write freshness within kCacheFreshTimeout.
    bool enable_watch_cache = true;
    // Template for the owned store when `store` is unset: WAL durability
    // (`store_options.wal_dir` makes this control plane survive a restart
    // with its revision stream intact), replay-log bounds. The server's
    // executor is merged in on top.
    kv::KvStore::Options store_options;
  };

  // Events a watch channel buffers before it breaks with Gone.
  static constexpr size_t kWatchBuffer = 16384;
  // How long a cache-served read waits for read-your-write freshness before
  // falling back to the store (real time, like kube's waitUntilFreshAndBlock
  // deadline).
  static constexpr Duration kCacheFreshTimeout = Millis(250);

  explicit APIServer(Options opts);

  const std::string& name() const { return opts_.name; }
  Clock* clock() const { return opts_.clock; }
  Authorizer& authorizer() { return authorizer_; }
  ServerStats& stats() { return stats_; }
  kv::KvStore& store() { return *store_; }
  // The shared store handle, for spinning up additional front ends over it.
  const std::shared_ptr<kv::KvStore>& shared_store() const { return store_; }
  bool owns_store() const { return !opts_.store; }
  RequestDispatcher& dispatcher() { return *dispatcher_; }
  // This front end's memoized decodes (misses/decoded_bytes for the benches).
  const DecodeCache& decode_cache() const { return *decode_cache_; }

  // Simulates a crash-restart of THIS front end: every watch it vended (and
  // its watch caches) breaks with Gone, and its dispatcher's inflight
  // accounting resets. Reflectors must relist. A front end that owns its
  // store additionally breaks all store watches (the single-apiserver
  // apiserver+etcd restart of old); one that serves a shared store leaves the
  // other front ends' watches untouched.
  void Restart();

  // --------------------------------------------------------------- verbs
  //
  // Every verb runs the same typed pipeline: Admit (authn/authz, rate limit,
  // priority classification, fair queuing of an inflight slot — may shed with
  // 429) → Execute (the verb body below, with the RAII Ticket held) →
  // Account (queue-wait and execution latency recorded into per-band
  // histograms when the Ticket releases).
  //
  // The defaulted context is the privileged loopback identity — in-process
  // callers (tests, bootstrap) are the only ones that can reach these methods
  // directly, exactly like kube-apiserver's loopback client. Attributed
  // components thread an explicit RequestContext (see request_context.h).

  template <typename T>
  Result<T> Create(T obj, const RequestContext& ctx = RequestContext::Loopback()) {
    Result<RequestDispatcher::Ticket> ticket = Admit("create", T::kKind, obj.meta.ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.creates++;
    if (obj.meta.name.empty()) return InvalidArgumentError("metadata.name is required");
    if constexpr (T::kNamespaced) {
      if (obj.meta.ns.empty()) return InvalidArgumentError("metadata.namespace is required");
      VC_RETURN_IF_ERROR(CheckNamespaceActive(obj.meta.ns));
    } else {
      if (!obj.meta.ns.empty()) {
        return InvalidArgumentError(std::string(T::kKind) + " is cluster scoped");
      }
    }
    if (obj.meta.uid.empty()) obj.meta.uid = NewUid();
    if constexpr (std::is_same_v<T, api::NamespaceObj>) {
      // Namespaces always carry the kubernetes finalizer so deletion goes
      // through the namespace controller's cascading cleanup.
      bool has = false;
      for (const auto& f : obj.meta.finalizers) has = has || f == "kubernetes";
      if (!has) obj.meta.finalizers.push_back("kubernetes");
    }
    obj.meta.creation_timestamp_ms = opts_.clock->WallUnixMillis();
    obj.meta.deletion_timestamp_ms.reset();
    // resourceVersion is never stored inside the blob; readers take it from
    // the kv entry's mod_revision (one write == one watch event).
    obj.meta.resource_version = 0;
    if (obj.meta.generation == 0) obj.meta.generation = 1;
    Result<int64_t> rev = Commit(Key<T>(obj.meta.ns, obj.meta.name), obj, /*expected=*/0);
    if (!rev.ok()) return rev.status();
    return obj;
  }

  template <typename T>
  Result<T> Get(const std::string& ns, const std::string& name,
                const RequestContext& ctx = RequestContext::Loopback()) const {
    Result<RequestDispatcher::Ticket> ticket = Admit("get", T::kKind, ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.gets++;
    if (opts_.enable_watch_cache) {
      std::shared_ptr<WatchCache<T>> cache = CacheFor<T>();
      Result<std::shared_ptr<const T>> hit = cache->GetFresh(
          Key<T>(ns, name), store_->CurrentRevision(), kCacheFreshTimeout);
      if (hit.ok()) {
        stats_.cache_served_gets++;
        return T(**hit);  // resource_version already stamped at decode
      }
      if (hit.status().IsNotFound()) {
        // Authoritative: the cache has applied the store's current revision.
        stats_.cache_served_gets++;
        return NotFoundError(std::string(T::kKind) + " " + ns + "/" + name +
                             " not found");
      }
      // Unavailable (stale/unhealthy): fall through to the store.
    }
    Result<kv::Entry> e = store_->Get(Key<T>(ns, name));
    if (!e.ok()) return NotFoundError(std::string(T::kKind) + " " + ns + "/" + name +
                                      " not found");
    Result<T> obj = api::Decode<T>(e->value.str());
    if (!obj.ok()) return obj.status();
    obj->meta.resource_version = e->mod_revision;
    return obj;
  }

  // List with server-side selection and pagination. Selector evaluation uses
  // the skip-scanner, so non-matching objects cost a partial scan, never a
  // full decode — O(matching) decode bytes per page.
  template <typename T>
  Result<TypedList<T>> List(ListOptions opts = {},
                            const RequestContext& ctx = RequestContext::Loopback()) const {
    VC_RETURN_IF_ERROR(api::NormalizeOptions(&opts));
    Result<RequestDispatcher::Ticket> ticket = Admit("list", T::kKind, opts.ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.lists++;
    Result<api::LabelSelector> labels = api::ParseLabelSelector(opts.label_selector);
    if (!labels.ok()) return labels.status();
    Result<api::FieldSelector> fields = api::ParseFieldSelector(opts.field_selector);
    if (!fields.ok()) return fields.status();
    const bool selecting = !labels->Empty() || !fields->Empty();
    std::string prefix = opts.ns.empty() ? KindPrefix<T>() : Key<T>(opts.ns, "");
    // Unpaged lists are served from the per-kind watch cache: objects are
    // already decoded, so selection costs at most a field-selector scan and
    // matching costs ZERO decode bytes. Paged / continue-token reads keep the
    // store path (their snapshot is pinned to a past revision the cache no
    // longer holds).
    if (opts_.enable_watch_cache && opts.limit == 0 && opts.continue_token.empty()) {
      std::shared_ptr<WatchCache<T>> cache = CacheFor<T>();
      const std::vector<std::string> paths = fields->Paths();
      TypedList<T> out;
      const bool served = cache->SnapshotScan(
          prefix, store_->CurrentRevision(), kCacheFreshTimeout, &out.revision,
          [&](const std::string&, const typename WatchCache<T>::Item& item) {
            if (selecting) {
              if (!labels->Empty() && !labels->Matches(item.obj->meta.labels)) return;
              if (!fields->Empty()) {
                stats_.list_bytes_scanned += item.blob.size();
                api::ObjectScan scan;
                if (!api::ScanObjectBlob(item.blob.str(), paths, &scan)) return;
                if (!scan.name.empty()) scan.fields["metadata.name"] = scan.name;
                if (!scan.ns.empty()) scan.fields["metadata.namespace"] = scan.ns;
                if (!fields->Matches(scan.fields)) return;
              }
            }
            out.items.push_back(*item.obj);
          });
      if (served) {
        stats_.cache_served_lists++;
        return out;
      }
      // Cache stale/unhealthy: serve from the store below.
    }
    int64_t snapshot = 0;
    std::string start_after;
    if (!opts.continue_token.empty()) {
      Result<ContinueToken> tok = ParseContinueToken(opts.continue_token, prefix);
      if (!tok.ok()) return tok.status();
      snapshot = tok->revision;
      start_after = tok->last_key;
      if (snapshot < store_->CompactedRevision()) {
        return GoneError(StrFormat(
            "continue token snapshot %lld expired (compacted=%lld); relist",
            static_cast<long long>(snapshot),
            static_cast<long long>(store_->CompactedRevision())));
      }
    }
    // With a selector the limit applies to *matching* objects, so take the
    // whole remaining key range and stop once the page is full; otherwise the
    // kv layer pages for us.
    kv::ListResult raw = store_->List(prefix, selecting ? 0 : opts.limit, start_after);
    TypedList<T> out;
    out.revision = raw.revision;
    bool truncated = raw.more;
    std::string last_key = start_after;
    for (const kv::Entry& e : raw.entries) {
      if (selecting) {
        stats_.list_bytes_scanned += e.value.size();
        if (!api::BlobMatchesSelectors(e.value.str(), *labels, *fields)) continue;
      }
      if (opts.limit > 0 && out.items.size() >= opts.limit) {
        truncated = true;
        break;
      }
      stats_.list_bytes_decoded += e.value.size();
      Result<T> obj = api::Decode<T>(e.value.str());
      if (!obj.ok()) return obj.status();
      obj->meta.resource_version = e.mod_revision;
      last_key = e.key;
      out.items.push_back(std::move(*obj));
    }
    if (truncated) {
      out.more = true;
      // The token pins the revision of the page-1 snapshot; once that falls
      // behind the compaction horizon the token answers Gone.
      out.continue_token =
          MakeContinueToken(snapshot ? snapshot : raw.revision, last_key);
    }
    return out;
  }

  // Full-object update with optimistic concurrency on resourceVersion.
  template <typename T>
  Result<T> Update(T obj, const RequestContext& ctx = RequestContext::Loopback()) {
    return DoUpdate(std::move(obj), "update", ctx);
  }

  // Status subresource update — identical storage path, separate RBAC verb,
  // mirroring Kubernetes' /status endpoint used by kubelet and the syncer's
  // upward synchronization.
  template <typename T>
  Result<T> UpdateStatus(T obj, const RequestContext& ctx = RequestContext::Loopback()) {
    return DoUpdate(std::move(obj), "update-status", ctx);
  }

  // Delete honoring finalizers. Returns OK when deletion is complete OR has
  // been initiated (deletionTimestamp set, finalizers pending).
  template <typename T>
  Status Delete(const std::string& ns, const std::string& name,
                const RequestContext& ctx = RequestContext::Loopback()) {
    Result<RequestDispatcher::Ticket> ticket = Admit("delete", T::kKind, ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.deletes++;
    for (int attempt = 0; attempt < 16; ++attempt) {
      Result<kv::Entry> e = store_->Get(Key<T>(ns, name));
      if (!e.ok()) return NotFoundError(std::string(T::kKind) + " " + ns + "/" + name +
                                        " not found");
      // Peek finalizers/deletionTimestamp straight off the raw blob: every
      // CAS retry used to pay a full decode just to branch on two fields.
      // Only the set-deletionTimestamp branch (which must re-encode) decodes.
      bool has_finalizers = true, deleting = false;
      if (!api::ScanMetaLifecycle(e->value.str(), &has_finalizers, &deleting)) {
        Result<T> probe = api::Decode<T>(e->value.str());  // malformed-scan fallback
        if (!probe.ok()) return probe.status();
        has_finalizers = !probe->meta.finalizers.empty();
        deleting = probe->meta.deleting();
      }
      if (has_finalizers) {
        if (deleting) return OkStatus();  // already terminating
        Result<T> obj = api::Decode<T>(e->value.str());
        if (!obj.ok()) return obj.status();
        obj->meta.deletion_timestamp_ms = opts_.clock->WallUnixMillis();
        obj->meta.resource_version = 0;  // not stored in the blob
        Result<int64_t> rev = Commit(Key<T>(ns, name), *obj, e->mod_revision);
        if (rev.ok()) return OkStatus();
        if (rev.status().IsConflict()) continue;  // racing writer; retry
        return rev.status();
      }
      Result<int64_t> rev = store_->Delete(Key<T>(ns, name), e->mod_revision);
      if (rev.ok()) {
        RefreshStoreGauges();
        return OkStatus();
      }
      if (rev.status().IsConflict() || rev.status().IsNotFound()) continue;
      return rev.status();
    }
    return AbortedError("delete retry budget exhausted for " + ns + "/" + name);
  }

  // Watch objects of kind T for changes after from_revision (normally
  // TypedList::revision). Selectors are evaluated server-side at dispatch: a
  // put whose new state stops matching is delivered as a delete, and fully
  // invisible churn surfaces only as bookmark events (when enabled).
  template <typename T>
  Result<TypedWatch<T>> Watch(WatchOptions opts,
                              const RequestContext& ctx = RequestContext::Loopback()) const {
    VC_RETURN_IF_ERROR(api::NormalizeOptions(&opts));
    Result<RequestDispatcher::Ticket> ticket = Admit("watch", T::kKind, opts.ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.watches++;
    Result<api::LabelSelector> labels = api::ParseLabelSelector(opts.label_selector);
    if (!labels.ok()) return labels.status();
    Result<api::FieldSelector> fields = api::ParseFieldSelector(opts.field_selector);
    if (!fields.ok()) return fields.status();
    std::string prefix = opts.ns.empty() ? KindPrefix<T>() : Key<T>(opts.ns, "");
    kv::WatchParams params;
    params.from_revision = opts.from_revision;
    params.buffer_capacity = kWatchBuffer;
    params.bookmark_interval = opts.bookmark_interval;
    if (!labels->Empty() || !fields->Empty()) {
      params.filter = MakeSelectorFilter(std::move(*labels), std::move(*fields));
    }
    Result<std::shared_ptr<kv::WatchChannel>> ch = store_->Watch(prefix, std::move(params));
    if (!ch.ok()) return ch.status();
    TrackWatch(*ch);
    return TypedWatch<T>(std::move(*ch), decode_cache_);
  }

  // ------------------------------------------------------------- helpers

  // Key layout: /registry/<Kind>/<namespace|_>/<name>. Uniform for cluster-
  // and namespace-scoped kinds so prefix watches work for both.
  template <typename T>
  static std::string Key(const std::string& ns, const std::string& name) {
    std::string out = KindPrefix<T>();
    out += ns.empty() ? "_" : ns;
    out += '/';
    out += name;
    return out;
  }

  template <typename T>
  static std::string KindPrefix() {
    return std::string("/registry/") + T::kKind + "/";
  }

  // Approximate stored bytes (Fig. 10 accounting helper).
  size_t StoreBytes() const { return store_->ApproxBytes(); }

  // Opaque-to-clients continue token: "v1:<snapshot revision>:<last key>".
  // Public for tests that exercise expiry; production callers must treat the
  // string as opaque.
  struct ContinueToken {
    int64_t revision = 0;
    std::string last_key;
  };
  static std::string MakeContinueToken(int64_t revision, const std::string& last_key);
  // Rejects a token whose key lies outside `prefix` (another namespace or
  // kind): paging from it would answer a silent empty page.
  static Result<ContinueToken> ParseContinueToken(const std::string& token,
                                                  const std::string& prefix);

  // Builds the kv-level event filter for a selector watch (see Watch()).
  static std::function<std::optional<kv::Event>(const kv::Event&)> MakeSelectorFilter(
      api::LabelSelector labels, api::FieldSelector fields);

 private:
  template <typename T>
  Result<T> DoUpdate(T obj, const char* verb, const RequestContext& ctx) {
    Result<RequestDispatcher::Ticket> ticket = Admit(verb, T::kKind, obj.meta.ns, ctx);
    if (!ticket.ok()) return ticket.status();
    stats_.updates++;
    if (obj.meta.resource_version == 0) {
      return InvalidArgumentError("update requires metadata.resourceVersion");
    }
    const std::string key = Key<T>(obj.meta.ns, obj.meta.name);
    const int64_t expected = obj.meta.resource_version;
    obj.meta.resource_version = 0;  // not stored in the blob; see Create()
    if (obj.meta.deleting() && obj.meta.finalizers.empty()) {
      // Kubernetes semantics: stripping the last finalizer from a terminating
      // object completes its deletion.
      Result<int64_t> del = store_->Delete(key, expected);
      if (!del.ok()) {
        if (del.status().IsConflict()) stats_.conflicts++;
        return del.status();
      }
      RefreshStoreGauges();
      obj.meta.resource_version = *del;
      return obj;
    }
    Result<int64_t> rev = Commit(key, obj, expected);
    if (!rev.ok()) {
      if (rev.status().IsConflict()) stats_.conflicts++;
      return rev.status();
    }
    return obj;
  }

  // The one write path of every verb that stores an object: defaults it (so
  // the blob, the returned object and every decode of the blob agree), CASes
  // it in against `expected` (0 = create), and on success stamps the new
  // revision into obj and seeds the DecodeCache with it (write-through).
  // obj.meta.resource_version must be 0: it is never stored in the blob.
  template <typename T>
  Result<int64_t> Commit(const std::string& key, T& obj, int64_t expected) {
    api::Default(obj);
    Result<int64_t> rev = store_->Put(key, api::Encode(obj), expected);
    if (!rev.ok()) return rev;
    RefreshStoreGauges();
    obj.meta.resource_version = *rev;
    decode_cache_->Seed(*rev, obj);
    return rev;
  }

  // Admit half of the pipeline: shutdown check, per-identity accounting,
  // RBAC, token-bucket rate limit, then dispatcher admission (classification
  // + fair queuing + simulated handler latency). The returned Ticket must
  // stay alive for the verb body (Execute); releasing it is Account.
  Result<RequestDispatcher::Ticket> Admit(const char* verb, const char* kind,
                                          const std::string& ns,
                                          const RequestContext& ctx) const;
  Status CheckNamespaceActive(const std::string& ns) const;
  // Remembers a vended watch channel so Restart() can break it (per-front-end
  // watch teardown when the store is shared).
  void TrackWatch(const std::shared_ptr<kv::WatchChannel>& ch) const;

  // Lazily builds the per-kind watch cache (first typed read pays the priming
  // list). Keyed by T::kKind; the shared_ptr<void> erases the type while
  // keeping the right destructor. Returned shared so a concurrent Restart()
  // (which drops the map) cannot pull the cache out from under a reader.
  template <typename T>
  std::shared_ptr<WatchCache<T>> CacheFor() const {
    std::lock_guard<std::mutex> l(cache_mu_);
    std::shared_ptr<void>& slot = caches_[T::kKind];
    if (!slot) {
      slot = std::make_shared<WatchCache<T>>(store_.get(), KindPrefix<T>(),
                                             decode_cache_, exec_);
    }
    return std::static_pointer_cast<WatchCache<T>>(slot);
  }

  // Mirrors the store's replay-log pressure into the stats gauges; called
  // after every successful mutation (all O(1) reads under a shared lock).
  void RefreshStoreGauges() const {
    stats_.store_log_bytes.store(store_->LogBytes(), std::memory_order_relaxed);
    stats_.store_log_events.store(store_->LogEvents(), std::memory_order_relaxed);
    stats_.store_compacted_revision.store(store_->CompactedRevision(),
                                          std::memory_order_relaxed);
  }

  Options opts_;
  // Shared executor hosting the store's dispatch strand and the watch caches'
  // apply strands. Declared before store_/caches_ so it outlives them.
  std::shared_ptr<Executor> exec_;
  // Owned (opts_.store unset) or shared with sibling front ends.
  std::shared_ptr<kv::KvStore> store_;
  Authorizer authorizer_;
  mutable ServerStats stats_;
  mutable std::mutex rl_mu_;
  mutable std::map<std::string, std::unique_ptr<TokenBucket>> rate_limiters_;
  std::unique_ptr<RequestDispatcher> dispatcher_;
  std::shared_ptr<DecodeCache> decode_cache_;
  // Watch channels this front end vended, for per-front-end Restart().
  mutable std::mutex watches_mu_;
  mutable std::vector<std::weak_ptr<kv::WatchChannel>> vended_watches_;
  // Per-kind watch caches. Declared after store_ so they are destroyed first
  // (each holds a live watch on the store).
  mutable std::mutex cache_mu_;
  mutable std::map<std::string, std::shared_ptr<void>> caches_;
  // LAST member: publishes stats_ under opts_.name in the process-wide
  // registry; must unregister before the data above dies.
  MetricsRegistry::Registration metrics_reg_;
};

namespace detail {

// Default conflict budget of the writers below: writes tried before they give
// up with Aborted.
inline constexpr int kWriteAttempts = 10;

// One write through the main resource ("update") or the status subresource
// ("update-status"); both CAS on obj.meta.resource_version.
template <typename T>
Result<T> Write(APIServer& server, T obj, bool status, const RequestContext& ctx) {
  return status ? server.UpdateStatus<T>(std::move(obj), ctx)
                : server.Update<T>(std::move(obj), ctx);
}

// On success `out`, when set, receives the object as the server now holds it.
template <typename T, typename Fn>
Status RetryWrite(APIServer& server, const std::string& ns, const std::string& name,
                  Fn& fn, bool status, const RequestContext& ctx, int max_attempts,
                  T* out = nullptr) {
  for (int i = 0; i < max_attempts; ++i) {
    Result<T> obj = server.Get<T>(ns, name, ctx);
    if (!obj.ok()) return obj.status();
    if (!fn(*obj)) {
      if (out != nullptr) *out = std::move(*obj);
      return OkStatus();
    }
    Result<T> updated = Write(server, std::move(*obj), status, ctx);
    if (updated.ok() && out != nullptr) *out = std::move(*updated);
    if (!updated.status().IsConflict()) return updated.status();
  }
  return AbortedError(std::string(status ? "RetryUpdateStatus" : "RetryUpdate") +
                      ": conflict budget exhausted for " + ns + "/" + name);
}

// The CAS on the cached copy is the first of kWriteAttempts writes.
template <typename T, typename Fn>
Status WriteFrom(APIServer& server, const T& cached, Fn& fn, bool status,
                 const RequestContext& ctx, T* out = nullptr) {
  T copy = cached;
  if (!fn(copy)) {
    if (out != nullptr) *out = cached;
    return OkStatus();
  }
  Result<T> updated = Write(server, std::move(copy), status, ctx);
  if (updated.ok() && out != nullptr) *out = std::move(*updated);
  if (!updated.status().IsConflict()) return updated.status();
  return RetryWrite<T>(server, cached.meta.ns, cached.meta.name, fn, status, ctx,
                       kWriteAttempts - 1, out);
}

}  // namespace detail

// Read-modify-write loop: fetch ns/name, apply fn, Update; retry on Conflict.
// fn returns false to abort (object already in desired state). fn may run
// more than once, so it must reset anything it reports out on each call.
// A caller that already holds the object in an informer cache should use
// UpdateFrom instead: it skips the Get, which blocks until the server's watch
// cache has caught up with the store.
template <typename T, typename Fn>
Status RetryUpdate(APIServer& server, const std::string& ns, const std::string& name, Fn fn,
                   const RequestContext& ctx = RequestContext::Loopback(),
                   int max_attempts = detail::kWriteAttempts) {
  return detail::RetryWrite<T>(server, ns, name, fn, /*status=*/false, ctx, max_attempts);
}

// Status-subresource variant of RetryUpdate: writes through UpdateStatus so a
// status-only identity (RBAC verb "update-status" — kubelet heartbeats, the
// syncer's upward sync) needs no full "update" grant.
template <typename T, typename Fn>
Status RetryUpdateStatus(APIServer& server, const std::string& ns, const std::string& name,
                         Fn fn, const RequestContext& ctx = RequestContext::Loopback(),
                         int max_attempts = detail::kWriteAttempts) {
  return detail::RetryWrite<T>(server, ns, name, fn, /*status=*/true, ctx, max_attempts);
}

// Read-free RetryUpdate for a caller holding `cached` (an informer copy):
// applies fn to a copy of it and writes with a CAS on its resourceVersion.
// Only on Conflict does it fall back to RetryUpdate, which re-reads and
// re-runs fn against the live object. fn returning false on the cached copy
// is final, so the caller must be re-triggered by any newer version of the
// object (DESIGN.md §8.1). On success `out`, when set, receives the object
// as the server now holds it, for a caller that keeps its own copy.
template <typename T, typename Fn>
Status UpdateFrom(APIServer& server, const T& cached, Fn fn,
                  const RequestContext& ctx = RequestContext::Loopback(), T* out = nullptr) {
  return detail::WriteFrom(server, cached, fn, /*status=*/false, ctx, out);
}

// Status-subresource variant of UpdateFrom (RBAC verb "update-status").
template <typename T, typename Fn>
Status UpdateStatusFrom(APIServer& server, const T& cached, Fn fn,
                        const RequestContext& ctx = RequestContext::Loopback()) {
  return detail::WriteFrom(server, cached, fn, /*status=*/true, ctx);
}

}  // namespace vc::apiserver
