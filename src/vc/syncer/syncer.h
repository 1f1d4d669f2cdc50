// The resource syncer (paper §III-B (2), §III-C): a single centralized
// controller serving ALL tenant control planes.
//
//   * DOWNWARD synchronization: tenant objects used in Pod provision
//     (namespaces, pods, services, secrets, configmaps, service accounts,
//     PVCs) are populated into the super cluster under prefixed namespaces.
//     All tenant informers feed per-tenant sub-queues; a weighted round-robin
//     dispatcher feeds the downward workers — the paper's fair-queuing
//     extension, ablatable to a shared FIFO (Fig. 11). The loop is hosted on
//     the shared reconciler runtime (controllers::Reconciler), which owns the
//     fair queue, the in-flight budget, and the retry backoff.
//   * UPWARD synchronization: super-cluster pod status (scheduling binds,
//     readiness, IPs) is written back to the owning tenant control plane by
//     a separate FIFO reconciler; virtual node objects are created 1:1 with
//     the physical nodes hosting tenant pods and removed when their last pod
//     goes away; physical node heartbeats are broadcast to all vNodes.
//   * CONSISTENCY: reconcilers compare against informer caches (eventual
//     consistency, races tolerated); a periodic scan — one timer per tenant
//     (the paper's "one thread per tenant", 1-minute interval) — re-enqueues
//     any object whose tenant and super states have drifted, remediating rare
//     permanent inconsistencies (§III-C).
//
// Everything that depends on the object type lives in one unit per kind
// (KindOf<T>), registered through SyncKind<T>(): the built-in kinds above and
// any custom resource (paper §V, "adding CRD support in the syncer") share the
// same loops, budgets, backoff, op-cost holds and trace records.
//
// Why centralized (one syncer for many tenants) instead of per-tenant: the
// paper's §III-C argument — infrequent tenant mutations make per-tenant
// syncers wasteful, and a fleet of per-tenant syncers relisting after a super
// apiserver restart would flood it. bench/ablation_syncer quantifies this.
#pragma once

#include <atomic>
#include <concepts>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "client/fairqueue.h"
#include "client/informer.h"
#include "common/cpu_time.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "controllers/runtime.h"
#include "vc/syncer/conversion.h"
#include "vc/syncer/metrics.h"
#include "vc/syncer/vnode_manager.h"
#include "vc/tenant_control_plane.h"
#include "vc/types.h"

namespace vc::core {

// A kind whose super-owned fields flow back to the tenant: `CopyStatus(from,
// to)` copies them and returns true if anything changed.
template <typename T>
concept CopiesStatus = requires(const T& from, T& to) {
  { T::CopyStatus(from, to) } -> std::convertible_to<bool>;
};

// A kind the upward loop writes back to the tenant: Pods (nodeName and
// status, see SyncUpPod) and every kind that declares CopyStatus.
template <typename T>
concept SyncsUp = CopiesStatus<T> || std::same_as<T, api::Pod>;

// Whether the tenant object lags the super-owned fields of its shadow, that
// is, whether the upward reconcile would write it.
template <SyncsUp T>
bool LagsShadow(const T& tenant, const T& shadow) {
  if constexpr (std::is_same_v<T, api::Pod>) {
    return !(tenant.status == shadow.status) ||
           (!shadow.spec.node_name.empty() && tenant.spec.node_name != shadow.spec.node_name);
  } else {
    T probe = tenant;
    return T::CopyStatus(shadow, probe);
  }
}

class Syncer {
 public:
  struct Options {
    apiserver::APIServer* super_server = nullptr;
    Clock* clock = RealClock::Get();
    // Concurrency budgets (max in-flight reconciles on the shared executor);
    // paper defaults (§IV-A): "we set a high default number of one hundred
    // upward worker threads and a low default number of twenty downward
    // worker threads". The modeled op costs below hold a reconcile's slot
    // on a runtime timer, not a sleep, so a budget of 100 pins no threads.
    int downward_workers = 20;
    int upward_workers = 100;
    // Fair queuing across tenant sub-queues; false = shared FIFO (Fig. 11b).
    bool fair_queuing = true;
    // Periodic consistency scan (§III-C / §IV-C: 1-minute interval).
    bool periodic_scan = true;
    Duration scan_interval = Seconds(60);
    Duration heartbeat_broadcast_period = Seconds(5);
    int vnagent_port = 10550;
    // Modeled service time of one synchronization API operation (object
    // marshaling + HTTPS round trip + admission in the real system). Applied
    // to mutating reconciles only; cache-compare no-ops cost their real CPU.
    // Calibration: see EXPERIMENTS.md.
    Duration downward_op_cost = Millis(12);
    Duration upward_op_cost = Millis(120);
  };

  explicit Syncer(Options opts);
  ~Syncer();

  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  // Adds kind T to the synchronized kinds: its tenant objects are shadowed
  // downward and re-checked by the periodic scan. T provides kKind,
  // kNamespaced, meta and an api::Codec<T>; it may declare `static void
  // ClearSuperOwned(T&)` (fields the super cluster owns, see ToSuper) and
  // CopyStatus (those fields synced upward, see CopiesStatus). The
  // constructor registers the built-in kinds through this same call. Must
  // precede Start() and the first AttachTenant(): FailedPrecondition
  // otherwise; AlreadyExists if T is registered.
  template <typename T>
  Status SyncKind();

  // Registers a tenant control plane with the syncer. Uses the VC object's
  // name/uid for the namespace prefix and its weight for fair queuing. May
  // be called before or after Start().
  void AttachTenant(const VirtualClusterObj& vc, TenantControlPlane* tcp);
  void DetachTenant(const std::string& tenant_id);
  std::vector<std::string> Tenants() const;
  // Namespace mapping for a tenant (empty mapping if unknown).
  TenantMapping MappingOf(const std::string& tenant_id) const;
  // Live WRR weight update for an attached tenant (VC spec changes on a
  // running tenant propagate here without reattaching). No-op if unknown.
  void UpdateTenantWeight(const std::string& tenant_id, int weight);
  // Inverse namespace mapping: the tenant owning a prefixed super namespace,
  // or "" when the namespace belongs to no attached tenant. Used to key the
  // super cluster's own control loops by tenant (fairness beyond the syncer).
  std::string TenantForSuperNamespace(const std::string& super_ns) const;

  void Start();
  void Stop();
  bool WaitForSync(Duration timeout);

  // ----------------------------------------------------------- telemetry
  SyncerMetrics& metrics() { return metrics_; }

  // Informer-cache accounting (Fig. 10: "one tenant object has at least two
  // copies in the syncer, one in the informer cache of the tenant control
  // plane and another in the super cluster informer cache").
  size_t InformerCacheBytes() const;
  size_t InformerCacheObjects() const;
  size_t QueuedKeyBytes() const;
  size_t DownwardQueueLen() const { return downward_->Len(); }
  // Upward reconciles running or holding their slot for the modeled op cost.
  int UpwardInFlight() const { return upward_->InFlight(); }
  // CPU time consumed by all syncer threads (workers, reconcilers, informers,
  // scanners) — the Fig. 10 "accumulated process CPU time" measure.
  Duration WorkerCpuTime() const { return cpu_.Total(); }

  struct ScanRound {
    Duration took{};
    uint64_t objects_scanned = 0;
    uint64_t resent = 0;
  };
  // One full consistency scan over every tenant, parallelized with one
  // thread per tenant (paper §IV-C). Also invoked by the periodic loop.
  ScanRound ScanAllTenants();

 private:
  // An informer of any type, for the loops that start, stop, await and
  // account every informer the syncer owns.
  class AnyInformer {
   public:
    virtual ~AnyInformer() = default;
    virtual void Start() = 0;
    virtual void Stop() = 0;
    virtual bool WaitForSync(Duration timeout) = 0;
    virtual size_t CacheBytes() const = 0;
    virtual size_t CacheObjects() const = 0;
  };
  template <typename T>
  struct InformerOf final : AnyInformer {
    InformerOf(client::ListerWatcher<T> lw, typename client::SharedInformer<T>::Options o)
        : inf(std::move(lw), std::move(o)) {}
    void Start() override { inf.Start(); }
    void Stop() override { inf.Stop(); }
    bool WaitForSync(Duration timeout) override { return inf.WaitForSync(timeout); }
    size_t CacheBytes() const override { return inf.cache().ApproxBytes(); }
    size_t CacheObjects() const override { return inf.cache().Size(); }
    client::SharedInformer<T> inf;
  };

  struct TenantState {
    TenantMapping map;
    TenantControlPlane* tcp = nullptr;
    int weight = 1;
    // One informer per synchronized kind, indexed like kinds_.
    std::vector<std::unique_ptr<AnyInformer>> informers;
    TimerHandle scan_timer;  // periodic consistency scan for this tenant
  };
  using TenantPtr = std::shared_ptr<TenantState>;

  enum class DownResult { kCreated, kUpdated, kDeleted, kNoop, kRetry };

  // Pending vNode unbind info captured when a super pod delete event fires
  // (the object is gone from the cache by reconcile time).
  struct GoneInfo {
    std::string tenant;
    std::string tenant_pod_key;
    std::string node;
  };

  // Result of one upward reconcile; `cost` is the modeled op cost the
  // reconcile holds its slot for.
  struct UpOutcome {
    bool done = true;
    Duration cost{};
    bool wrote = false;
    bool became_ready = false;
  };

  // One synchronized kind: its tenant-scoped super informer, the informer it
  // adds to each tenant, and the type-dependent reconcile code.
  class Kind {
   public:
    virtual ~Kind() = default;
    virtual AnyInformer& SuperInformer() = 0;
    // Builds tenant `ts`'s informer of this kind, wired to the loops.
    virtual std::unique_ptr<AnyInformer> WatchTenant(const TenantState& ts) = 0;
    virtual DownResult SyncDown(TenantState& ts, const std::string& tenant_key,
                                Duration* cost) = 0;
    virtual ScanRound Scan(TenantState& ts) = 0;
    // Upward status copy; a no-op for kinds without CopyStatus.
    virtual UpOutcome SyncUp(const std::string& super_key) = 0;
  };
  template <typename T>
  class KindOf;

  TenantPtr GetTenant(const std::string& id) const;
  std::vector<TenantPtr> Snapshot() const;
  // Calls fn on every informer (tenants', then super) until it returns false.
  bool AllInformers(const std::function<bool(AnyInformer&)>& fn) const;
  void StartTenant(const TenantPtr& ts);

  // Reconcile entry points hosted on the shared runtime. Each returns its
  // modeled op cost as the hold, so the runtime keeps the worker slot
  // occupied exactly as long as a sleeping worker thread would hold it.
  controllers::ReconcileResult DownwardReconcile(const client::FairQueue::Item& item);
  controllers::ReconcileResult UpwardReconcile(const client::FairQueue::Item& item);

  UpOutcome SyncUpPod(const std::string& super_key);
  // Applies `change` to the tenant object mirrored by a shadow from `origin`,
  // by one CAS on the tenant informer's copy (DESIGN.md §8.1); refuses an
  // object whose uid is not the shadow's origin uid (it was recreated).
  template <typename T, typename Fn>
  UpOutcome WriteUp(TenantState& ts, client::SharedInformer<T>& tenant_informer,
                    const Origin& origin, const std::string& name, Fn change);
  void ProcessPodGone(const std::string& super_key);
  Status EnsureSuperNamespace(TenantState& ts, const std::string& tenant_ns);
  Status EnsureVNode(TenantState& ts, const std::string& node);
  void BroadcastHeartbeatsOnce();

  ScanRound ScanTenant(TenantState& ts);

  std::shared_ptr<void> CpuToken();
  template <typename T>
  typename client::SharedInformer<T>::Options InformerOptions() {
    typename client::SharedInformer<T>::Options o;
    o.clock = opts_.clock;
    o.thread_hook = [this] { return CpuToken(); };
    return o;
  }

  Options opts_;
  std::shared_ptr<Executor> exec_;

  // The synchronized kinds in registration order, and by T::kKind. Written
  // only by SyncKind, which is refused once kinds_frozen_ is set.
  std::vector<std::unique_ptr<Kind>> kinds_;
  std::map<std::string, Kind*, std::less<>> kind_by_name_;
  // The two kinds the syncer itself reads: Pods (upward path, vNodes) and
  // namespaces (shadow namespaces, the orphan scan).
  KindOf<api::Pod>* pods_ = nullptr;
  KindOf<api::NamespaceObj>* namespaces_ = nullptr;
  // Physical nodes, for vNodes and heartbeats; not a synchronized kind.
  std::unique_ptr<InformerOf<api::Node>> super_nodes_;

  VNodeManager vnodes_;
  SyncerMetrics metrics_;
  CpuTimeGroup cpu_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantPtr> tenants_;
  // "<ns_prefix>-" → tenant id, for TenantForSuperNamespace (guarded by
  // tenants_mu_; prefixes are contiguous in the ordered map).
  std::map<std::string, std::string> prefix_to_tenant_;
  bool kinds_frozen_ = false;  // set by Start/AttachTenant (tenants_mu_)

  std::mutex gone_mu_;
  std::map<std::string, GoneInfo> pending_gone_;

  TimerHandle heartbeat_timer_;

  std::atomic<bool> stop_{true};
  std::atomic<bool> started_{false};

  std::mutex scan_mu_;
  ScanRound last_scan_;

  // The two control loops, hosted on the shared reconciler runtime. Declared
  // after everything their reconcile functions touch; Stop() drains them
  // before any member above is torn down.
  std::unique_ptr<controllers::Reconciler> downward_;  // WRR fair (ablatable)
  std::unique_ptr<controllers::Reconciler> upward_;    // FIFO (paper design)

  // LAST member: unregisters the "syncer" metrics block before the data the
  // provider reads dies.
  MetricsRegistry::Registration metrics_reg_;
};

// --------------------------------------------------------------- kind unit

template <typename T>
class Syncer::KindOf final : public Syncer::Kind {
 public:
  KindOf(Syncer& s, size_t slot);

  AnyInformer& SuperInformer() override { return super_; }
  std::unique_ptr<AnyInformer> WatchTenant(const TenantState& ts) override;
  DownResult SyncDown(TenantState& ts, const std::string& tenant_key,
                      Duration* cost) override;
  ScanRound Scan(TenantState& ts) override;
  UpOutcome SyncUp(const std::string& super_key) override;

  client::SharedInformer<T>& Super() { return super_.inf; }
  client::SharedInformer<T>& Tenant(const TenantState& ts) const {
    return static_cast<InformerOf<T>&>(*ts.informers[slot_]).inf;
  }

 private:
  // Where the shadow of the tenant object at `tenant_key` lives.
  struct ShadowRef {
    std::string tenant_ns;  // "" for namespaces (cluster-scoped)
    std::string ns;
    std::string name;
    std::string key;  // super informer cache key
  };
  static ShadowRef ShadowOf(const TenantMapping& map, const std::string& tenant_key);

  Syncer& s_;
  const size_t slot_;          // index into TenantState::informers
  const std::string prefix_;   // "<kind>|", the queue-key prefix
  InformerOf<T> super_;
};

// Super-cluster reflectors select only tenant shadows (stamped with
// kTenantLabel by ToSuper) SERVER-side: the super apiserver never decodes,
// transfers, or caches its non-tenant objects for the syncer, instead of the
// syncer filtering via OriginOf after paying the full list cost. Bookmarks
// keep these mostly-idle watches resumable across compactions.
template <typename T>
Syncer::KindOf<T>::KindOf(Syncer& s, size_t slot)
    : s_(s),
      slot_(slot),
      prefix_(std::string(T::kKind) + "|"),
      super_(
          [&] {
            client::ReflectorOptions<T> ro;
            ro.label_selector = kTenantLabel;  // bare key = Exists
            return client::ListerWatcher<T>(s.opts_.super_server, std::move(ro),
                                            apiserver::RequestContext::System("syncer"));
          }(),
          s.InformerOptions<T>()) {
  if constexpr (CopiesStatus<T>) {
    // Super-owned fields changed on a shadow: copy them up.
    auto up = [this](const T& obj) {
      if (std::optional<Origin> origin = OriginOf(obj)) {
        s_.upward_->Enqueue(origin->tenant_id, prefix_ + obj.meta.FullName());
      }
    };
    client::EventHandlers<T> h;
    h.on_add = up;
    h.on_update = [up](const T&, const T& obj) { up(obj); };
    super_.inf.AddHandlers(std::move(h));
  }
}

template <typename T>
std::unique_ptr<Syncer::AnyInformer> Syncer::KindOf<T>::WatchTenant(const TenantState& ts) {
  auto w = std::make_unique<InformerOf<T>>(
      client::ListerWatcher<T>(&ts.tcp->server(), "",
                               apiserver::RequestContext::System("syncer")),
      s_.InformerOptions<T>());
  auto down = [this, tenant = ts.map.tenant_id](const T& obj) {
    s_.downward_->Enqueue(tenant, prefix_ + obj.meta.FullName());
  };
  // The upward write is one CAS on this informer's copy that gives up on a
  // Conflict (WriteUp), so every tenant version that lags its shadow must
  // re-run it: a foreign status write is reverted, and the version a
  // Conflict proved newer gets written. Without a shadow there is nothing to
  // copy yet; the super informer's add enqueues it.
  auto up = [this, map = ts.map](const T& obj) {
    if constexpr (SyncsUp<T>) {
      const std::string key = ShadowOf(map, obj.meta.FullName()).key;
      auto shadow = super_.inf.cache().GetByKey(key);
      if (shadow && LagsShadow(obj, *shadow)) s_.upward_->Enqueue(map.tenant_id, prefix_ + key);
    }
  };
  client::EventHandlers<T> h;
  h.on_add = [down, up](const T& obj) {
    down(obj);
    up(obj);
  };
  // Downward only on an update that can change the outcome: the syncer's
  // own upward writes and other status writes are echoes. The periodic scan
  // stays the safety net (§III-C).
  h.on_update = [down, up](const T& old_obj, const T& obj) {
    if (DownwardChanged(old_obj, obj)) down(obj);
    up(obj);
  };
  h.on_delete = down;
  w->inf.AddHandlers(std::move(h));
  return w;
}

template <typename T>
typename Syncer::KindOf<T>::ShadowRef Syncer::KindOf<T>::ShadowOf(
    const TenantMapping& map, const std::string& tenant_key) {
  ShadowRef r;
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    r.name = r.key = map.SuperNamespace(tenant_key);  // cluster-scoped: key == name
  } else {
    const size_t slash = tenant_key.find('/');
    r.tenant_ns = tenant_key.substr(0, slash);
    r.name = tenant_key.substr(slash + 1);
    r.ns = map.SuperNamespace(r.tenant_ns);
    r.key = r.ns + "/" + r.name;
  }
  return r;
}

template <typename T>
Syncer::DownResult Syncer::KindOf<T>::SyncDown(TenantState& ts, const std::string& tenant_key,
                                               Duration* cost) {
  const Options& opts = s_.opts_;
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("syncer");
  auto tenant_obj = Tenant(ts).cache().GetByKey(tenant_key);
  const ShadowRef shadow = ShadowOf(ts.map, tenant_key);

  // ----- deletion path: tenant object gone or terminating → remove shadow.
  if (!tenant_obj || tenant_obj->meta.deleting()) {
    // Do NOT trust the super informer cache for existence here: a create by
    // this very syncer may not have been observed by the cache yet (the
    // create-then-delete race of §III-C), and skipping the delete would leak
    // the shadow. Per-key serialization in the work queue guarantees the
    // create has already been issued, so an unconditional delete is safe;
    // NotFound simply means there was nothing to clean up.
    const bool shadow_cached = super_.inf.cache().GetByKey(shadow.key) != nullptr;
    Status st = opts.super_server->Delete<T>(shadow.ns, shadow.name, ctx);
    if (st.ok()) {
      *cost += opts.downward_op_cost;
      return DownResult::kDeleted;
    }
    if (st.IsNotFound()) {
      if (shadow_cached) s_.metrics_.races_tolerated.fetch_add(1);
      return DownResult::kNoop;
    }
    return DownResult::kRetry;
  }

  if constexpr (std::is_same_v<T, api::Service>) {
    // Wait until the tenant control plane assigned the VIP; the shadow must
    // carry the tenant-visible cluster IP.
    if (tenant_obj->spec.type == "ClusterIP" && tenant_obj->spec.cluster_ip.empty()) {
      return DownResult::kRetry;
    }
  }

  T desired = ToSuper(ts.map, *tenant_obj);
  auto existing = super_.inf.cache().GetByKey(shadow.key);

  if (!existing) {
    if constexpr (!std::is_same_v<T, api::NamespaceObj>) {
      Status ns_st = s_.EnsureSuperNamespace(ts, shadow.tenant_ns);
      if (!ns_st.ok()) return DownResult::kRetry;
    }
    *cost += opts.downward_op_cost;
    Result<T> created = opts.super_server->Create(desired, ctx);
    if (!created.ok()) {
      // AlreadyExists: informer lag (our shadow exists but the cache hasn't
      // seen it yet) or a previous partial sync; re-run shortly and compare.
      if (!created.status().IsAlreadyExists()) {
        VLOG(1) << "syncer: downward create " << T::kKind << " " << shadow.key
                << " failed: " << created.status();
      }
      return DownResult::kRetry;
    }
    if constexpr (std::is_same_v<T, api::Pod>) {
      s_.metrics_.MarkDownwardDone(shadow.key, opts.clock->Now());
    }
    return DownResult::kCreated;
  }

  if (ShadowMatches(*existing, desired)) return DownResult::kNoop;

  if (!SameOrigin(*existing, desired)) {
    // The tenant object was recreated under this name while its delete went
    // unseen (e.g. the tenant was detached): the shadow mirrors the old one.
    // Remove it; the retry creates a fresh shadow.
    *cost += opts.downward_op_cost;
    (void)opts.super_server->Delete<T>(shadow.ns, shadow.name, ctx);
    return DownResult::kRetry;
  }

  // Drift: update the shadow, preserving super-owned fields.
  T updated = desired;
  updated.meta.uid = existing->meta.uid;
  updated.meta.resource_version = existing->meta.resource_version;
  updated.meta.creation_timestamp_ms = existing->meta.creation_timestamp_ms;
  if constexpr (std::is_same_v<T, api::Pod>) {
    updated.spec.node_name = existing->spec.node_name;
    updated.status = existing->status;
  }
  if constexpr (std::is_same_v<T, api::PersistentVolumeClaim>) {
    updated.volume_name = existing->volume_name;
    updated.phase = existing->phase;
  }
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    updated.phase = existing->phase;
  }
  if constexpr (CopiesStatus<T>) {
    (void)T::CopyStatus(*existing, updated);
  }
  *cost += opts.downward_op_cost;
  Result<T> res = opts.super_server->Update(std::move(updated), ctx);
  if (!res.ok()) {
    if (res.status().IsConflict()) s_.metrics_.conflicts_retried.fetch_add(1);
    if (res.status().IsNotFound()) s_.metrics_.races_tolerated.fetch_add(1);
    return DownResult::kRetry;
  }
  return DownResult::kUpdated;
}

template <typename T>
Syncer::ScanRound Syncer::KindOf<T>::Scan(TenantState& ts) {
  ScanRound round;
  client::SharedInformer<T>& tenant = Tenant(ts);
  auto resend = [&](const std::string& tenant_key) {
    s_.downward_->Enqueue(ts.map.tenant_id, prefix_ + tenant_key);
    round.resent++;
  };

  // Tenant → super: every tenant object must have a matching shadow.
  for (const auto& tenant_obj : tenant.cache().List()) {
    round.objects_scanned++;
    const std::string tenant_key = tenant_obj->meta.FullName();
    auto shadow = super_.inf.cache().GetByKey(ShadowOf(ts.map, tenant_key).key);
    if (shadow ? !ShadowMatches(*shadow, ToSuper(ts.map, *tenant_obj))
               : !tenant_obj->meta.deleting()) {
      resend(tenant_key);
    }
  }

  // Super → tenant: shadows whose tenant object vanished must be reaped.
  if constexpr (!std::is_same_v<T, api::NamespaceObj>) {
    for (const auto& tenant_ns_obj : s_.namespaces_->Tenant(ts).cache().List()) {
      const std::string mapped = ts.map.SuperNamespace(tenant_ns_obj->meta.name);
      for (const auto& shadow : super_.inf.cache().ListNamespace(mapped)) {
        round.objects_scanned++;
        const std::string tenant_key = tenant_ns_obj->meta.name + "/" + shadow->meta.name;
        if (tenant.cache().GetByKey(tenant_key) == nullptr) resend(tenant_key);
      }
    }
  }
  return round;
}

template <typename T>
Syncer::UpOutcome Syncer::KindOf<T>::SyncUp(const std::string& super_key) {
  if constexpr (CopiesStatus<T>) {
    auto shadow = super_.inf.cache().GetByKey(super_key);
    if (!shadow) return {};
    std::optional<Origin> origin = OriginOf(*shadow);
    TenantPtr ts = origin ? s_.GetTenant(origin->tenant_id) : nullptr;
    if (!ts) return {};
    return s_.WriteUp(*ts, Tenant(*ts), *origin, shadow->meta.name,
                      [&](T& tenant_obj) { return T::CopyStatus(*shadow, tenant_obj); });
  } else {
    return {};
  }
}

template <typename T, typename Fn>
Syncer::UpOutcome Syncer::WriteUp(TenantState& ts, client::SharedInformer<T>& tenant_informer,
                                  const Origin& origin, const std::string& name, Fn change) {
  UpOutcome out;
  // One CAS on the tenant informer's copy and no Get, which would block on
  // the tenant apiserver's watch cache (and build one nothing else reads). A
  // missing copy, a "no change" verdict and a Conflict are all final here:
  // the tenant informer re-triggers this reconcile for every tenant version
  // that lags the shadow (WatchTenant), and a Conflict proves that a newer
  // version is on its way to it (DESIGN.md §8.1).
  auto cached = tenant_informer.cache().GetByKey(origin.tenant_ns + "/" + name);
  if (!cached) return out;
  T obj = *cached;
  // A uid other than the shadow's origin: the tenant object was recreated,
  // and the stale shadow must not write to it.
  if ((!origin.tenant_uid.empty() && obj.meta.uid != origin.tenant_uid) || !change(obj)) {
    metrics_.upward_noops.fetch_add(1);
    return out;
  }
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("syncer-upward");
  Result<T> res = ts.tcp->server().Update(std::move(obj), ctx);
  if (res.ok()) {
    out.wrote = true;
    out.cost = opts_.upward_op_cost;
  } else if (res.status().IsConflict()) {
    metrics_.upward_conflicts.fetch_add(1);
  } else if (res.status().IsNotFound()) {
    // Tenant deleted the object while its status update was in flight —
    // the §III-C race; the downward path will delete the shadow.
    metrics_.races_tolerated.fetch_add(1);
  } else {
    out.done = false;
  }
  return out;
}

template <typename T>
Status Syncer::SyncKind() {
  std::lock_guard<std::mutex> l(tenants_mu_);
  if (kinds_frozen_) {
    return FailedPreconditionError("SyncKind after Start or AttachTenant");
  }
  if (kind_by_name_.count(T::kKind) != 0) {
    return AlreadyExistsError(std::string("kind already synced: ") + T::kKind);
  }
  kinds_.push_back(std::make_unique<KindOf<T>>(*this, kinds_.size()));
  kind_by_name_.emplace(T::kKind, kinds_.back().get());
  return OkStatus();
}

}  // namespace vc::core
