#include "vc/syncer/syncer.h"

#include "common/executor.h"
#include "common/logging.h"
#include "common/trace.h"

namespace vc::core {

namespace {

std::pair<std::string, std::string> SplitKind(const std::string& queue_key) {
  size_t bar = queue_key.find('|');
  if (bar == std::string::npos) return {queue_key, ""};
  return {queue_key.substr(0, bar), queue_key.substr(bar + 1)};
}

}  // namespace

// ------------------------------------------------------------- construction

std::shared_ptr<void> Syncer::CpuToken() {
  return std::make_shared<CpuTimeGroup::Member>(&cpu_);
}

Syncer::Syncer(Options opts)
    : opts_(std::move(opts)), exec_(Executor::SharedFor(opts_.clock)) {
  // Both sync pools are instances of the shared reconciler runtime; only the
  // queueing discipline differs (paper: fair queuing is downward only). The
  // backoff base matches the old fixed 25 ms retry delay and now grows
  // exponentially per item up to 1 s.
  downward_ = std::make_unique<controllers::Reconciler>(
      [&] {
        controllers::Reconciler::Options o;
        o.name = "syncer-downward";
        o.clock = opts_.clock;
        o.workers = opts_.downward_workers;
        o.fair = opts_.fair_queuing;
        o.backoff_base = Millis(25);
        o.backoff_max = Seconds(1);
        return o;
      }(),
      [this](const client::FairQueue::Item& item) { return DownwardReconcile(item); });
  upward_ = std::make_unique<controllers::Reconciler>(
      [&] {
        controllers::Reconciler::Options o;
        o.name = "syncer-upward";
        o.clock = opts_.clock;
        o.workers = opts_.upward_workers;
        o.fair = false;  // plain FIFO
        o.backoff_base = Millis(25);
        o.backoff_max = Seconds(1);
        return o;
      }(),
      [this](const client::FairQueue::Item& item) { return UpwardReconcile(item); });

  // Unfiltered: physical Node objects carry no tenant label.
  super_nodes_ = std::make_unique<InformerOf<api::Node>>(
      client::ListerWatcher<api::Node>(opts_.super_server, "",
                                       apiserver::RequestContext::System("syncer")),
      InformerOptions<api::Node>());

  // The built-in kinds: the tenant objects used in Pod provision (§III-B (2)).
  (void)SyncKind<api::NamespaceObj>();
  (void)SyncKind<api::Pod>();
  (void)SyncKind<api::Service>();
  (void)SyncKind<api::Secret>();
  (void)SyncKind<api::ConfigMap>();
  (void)SyncKind<api::ServiceAccount>();
  (void)SyncKind<api::PersistentVolumeClaim>();
  pods_ = static_cast<KindOf<api::Pod>*>(kind_by_name_.at(api::Pod::kKind));
  namespaces_ = static_cast<KindOf<api::NamespaceObj>*>(
      kind_by_name_.at(api::NamespaceObj::kKind));

  // Upward path: super pod events drive status back-population and vNode
  // lifecycle. Tenant identity rides on the shadow's annotations.
  client::EventHandlers<api::Pod> up;
  up.on_add = [this](const api::Pod& pod) {
    std::optional<Origin> origin = OriginOf(pod);
    if (!origin) return;
    upward_->Enqueue(origin->tenant_id, "Pod|" + pod.meta.FullName());
  };
  up.on_update = [this](const api::Pod& old_pod, const api::Pod& new_pod) {
    std::optional<Origin> origin = OriginOf(new_pod);
    if (!origin) return;
    const std::string key = new_pod.meta.FullName();
    if (!old_pod.status.Ready() && new_pod.status.Ready()) {
      // End of the Super-Sched phase: the shadow pod reached Ready.
      if (std::optional<TimePoint> t0 = metrics_.TakeDownwardDone(key)) {
        metrics_.super_sched.Record(opts_.clock->Now() - *t0);
      }
    }
    upward_->Enqueue(origin->tenant_id, "Pod|" + key);
  };
  up.on_delete = [this](const api::Pod& pod) {
    std::optional<Origin> origin = OriginOf(pod);
    if (!origin) return;
    const std::string key = pod.meta.FullName();
    (void)metrics_.TakeDownwardDone(key);  // create raced with delete
    if (!pod.spec.node_name.empty()) {
      GoneInfo info;
      info.tenant = origin->tenant_id;
      info.tenant_pod_key = origin->tenant_ns + "/" + pod.meta.name;
      info.node = pod.spec.node_name;
      {
        std::lock_guard<std::mutex> l(gone_mu_);
        pending_gone_[key] = std::move(info);
      }
      upward_->Enqueue(origin->tenant_id, "PodGone|" + key);
    }
  };
  pods_->Super().AddHandlers(std::move(up));

  // The reconcilers publish their own uniform runtime blocks; this block adds
  // the syncer-specific counters and the Fig. 8 phase histograms.
  metrics_reg_ = MetricsRegistry::Global().Register("syncer", [this] {
    std::vector<MetricsRegistry::Sample> s;
    s.emplace_back("downward_creates",
                   static_cast<double>(metrics_.downward_creates.load()));
    s.emplace_back("downward_updates",
                   static_cast<double>(metrics_.downward_updates.load()));
    s.emplace_back("downward_deletes",
                   static_cast<double>(metrics_.downward_deletes.load()));
    s.emplace_back("downward_noops",
                   static_cast<double>(metrics_.downward_noops.load()));
    s.emplace_back("upward_updates",
                   static_cast<double>(metrics_.upward_updates.load()));
    s.emplace_back("upward_noops",
                   static_cast<double>(metrics_.upward_noops.load()));
    s.emplace_back("conflicts_retried",
                   static_cast<double>(metrics_.conflicts_retried.load()));
    s.emplace_back("upward_conflicts",
                   static_cast<double>(metrics_.upward_conflicts.load()));
    s.emplace_back("races_tolerated",
                   static_cast<double>(metrics_.races_tolerated.load()));
    s.emplace_back("scan_rounds", static_cast<double>(metrics_.scan_rounds.load()));
    s.emplace_back("scan_resent", static_cast<double>(metrics_.scan_resent.load()));
    s.emplace_back("pending_sched", static_cast<double>(metrics_.PendingSched()));
    AppendHistogram(&s, "dws_queue", metrics_.dws_queue);
    AppendHistogram(&s, "dws_process", metrics_.dws_process);
    AppendHistogram(&s, "super_sched", metrics_.super_sched);
    AppendHistogram(&s, "uws_queue", metrics_.uws_queue);
    AppendHistogram(&s, "uws_process", metrics_.uws_process);
    return s;
  });
}

Syncer::~Syncer() { Stop(); }

// ------------------------------------------------------------ tenant attach

void Syncer::AttachTenant(const VirtualClusterObj& vc, TenantControlPlane* tcp) {
  auto ts = std::make_shared<TenantState>();
  ts->map = TenantMapping::ForVc(vc.meta.name, vc.meta.uid);
  ts->tcp = tcp;
  ts->weight = std::max(1, vc.weight);
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    kinds_frozen_ = true;
  }
  for (const auto& kind : kinds_) ts->informers.push_back(kind->WatchTenant(*ts));
  downward_->RegisterTenant(ts->map.tenant_id, ts->weight);
  bool start_now;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    tenants_[ts->map.tenant_id] = ts;
    prefix_to_tenant_[ts->map.ns_prefix + "-"] = ts->map.tenant_id;
    start_now = started_.load();
  }
  if (start_now) StartTenant(ts);
}

void Syncer::DetachTenant(const std::string& tenant_id) {
  TenantPtr ts;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) return;
    ts = it->second;
    tenants_.erase(it);
    prefix_to_tenant_.erase(ts->map.ns_prefix + "-");
  }
  downward_->UnregisterTenant(tenant_id);
  vnodes_.ForgetTenant(tenant_id);
  ts->scan_timer.Cancel();
  for (const auto& informer : ts->informers) informer->Stop();
}

std::vector<std::string> Syncer::Tenants() const {
  std::lock_guard<std::mutex> l(tenants_mu_);
  std::vector<std::string> out;
  for (const auto& [id, ts] : tenants_) out.push_back(id);
  return out;
}

TenantMapping Syncer::MappingOf(const std::string& tenant_id) const {
  TenantPtr ts = GetTenant(tenant_id);
  return ts ? ts->map : TenantMapping{};
}

void Syncer::UpdateTenantWeight(const std::string& tenant_id, int weight) {
  const int w = std::max(1, weight);
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end() || it->second->weight == w) return;
    it->second->weight = w;
  }
  // Re-registering an attached tenant updates its WRR weight in place.
  downward_->RegisterTenant(tenant_id, w);
}

std::string Syncer::TenantForSuperNamespace(const std::string& super_ns) const {
  std::lock_guard<std::mutex> l(tenants_mu_);
  // Closest prefix <= super_ns; prefixes end in "-" so at most the immediate
  // predecessor can be a prefix of super_ns.
  auto it = prefix_to_tenant_.upper_bound(super_ns);
  if (it == prefix_to_tenant_.begin()) return {};
  --it;
  if (super_ns.compare(0, it->first.size(), it->first) == 0) return it->second;
  return {};
}

Syncer::TenantPtr Syncer::GetTenant(const std::string& id) const {
  std::lock_guard<std::mutex> l(tenants_mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<Syncer::TenantPtr> Syncer::Snapshot() const {
  std::lock_guard<std::mutex> l(tenants_mu_);
  std::vector<TenantPtr> out;
  out.reserve(tenants_.size());
  for (const auto& [id, ts] : tenants_) out.push_back(ts);
  return out;
}

bool Syncer::AllInformers(const std::function<bool(AnyInformer&)>& fn) const {
  for (const TenantPtr& ts : Snapshot()) {
    for (const auto& informer : ts->informers) {
      if (!fn(*informer)) return false;
    }
  }
  for (const auto& kind : kinds_) {
    if (!fn(kind->SuperInformer())) return false;
  }
  return fn(*super_nodes_);
}

// --------------------------------------------------------------- lifecycle

void Syncer::Start() {
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    kinds_frozen_ = true;
  }
  if (started_.exchange(true)) return;
  stop_.store(false);

  for (const auto& kind : kinds_) kind->SuperInformer().Start();
  super_nodes_->Start();
  for (const TenantPtr& ts : Snapshot()) StartTenant(ts);

  heartbeat_timer_ = exec_->RunEvery(opts_.heartbeat_broadcast_period, [this] {
    CpuTimeGroup::Member cpu_member(&cpu_);
    BroadcastHeartbeatsOnce();
  });

  downward_->Start();
  upward_->Start();
}

void Syncer::Stop() {
  if (!started_.exchange(false)) return;
  stop_.store(true);
  heartbeat_timer_.Cancel();
  for (const TenantPtr& ts : Snapshot()) ts->scan_timer.Cancel();
  // Each loop finishes its held op costs at once (Stop does not wait out
  // modeled latencies) and drains its in-flight reconciles.
  downward_->Stop();
  upward_->Stop();
  AllInformers([](AnyInformer& informer) {
    informer.Stop();
    return true;
  });
}

bool Syncer::WaitForSync(Duration timeout) {
  Stopwatch sw(opts_.clock);
  return AllInformers([&](AnyInformer& informer) {
    Duration left = timeout - sw.Elapsed();
    return informer.WaitForSync(left > Duration::zero() ? left : Millis(1));
  });
}

// ------------------------------------------------------------ downward path

controllers::ReconcileResult Syncer::DownwardReconcile(const client::FairQueue::Item& item) {
  using controllers::ReconcileResult;
  // Inherits the reconcile attempt's ambient trace id (Reconciler::Process
  // opened the scope), so super-cluster writes below join the same trace.
  trace::Emit(trace::Component::kSyncer, trace::Verb::kDownSync,
              trace::CurrentTraceId(), 0, item.key);
  CpuTimeGroup::Member cpu_member(&cpu_);
  const TimePoint dequeue = opts_.clock->Now();
  TenantPtr ts = GetTenant(item.tenant);
  if (!ts) return ReconcileResult::Done();  // tenant detached; drop
  auto [kind, key] = SplitKind(item.key);

  DownResult r = DownResult::kNoop;
  Duration cost{};
  Stopwatch process(opts_.clock);
  if (auto unit = kind_by_name_.find(kind); unit != kind_by_name_.end()) {
    r = unit->second->SyncDown(*ts, key, &cost);
  }
  if (r == DownResult::kCreated && kind == api::Pod::kKind) {
    // Phase metrics are recorded for the Pod creation path only (Fig. 8). The
    // process phase includes the modeled op cost (held after return).
    metrics_.dws_queue.Record(dequeue - item.enqueue_time);
    metrics_.dws_process.Record(process.Elapsed() + cost);
  }

  // The runtime's backoff handles the retry requeue, and its hold keeps the
  // worker slot occupied for the modeled op latency.
  switch (r) {
    case DownResult::kCreated: metrics_.downward_creates.fetch_add(1); break;
    case DownResult::kUpdated: metrics_.downward_updates.fetch_add(1); break;
    case DownResult::kDeleted: metrics_.downward_deletes.fetch_add(1); break;
    case DownResult::kNoop: metrics_.downward_noops.fetch_add(1); break;
    case DownResult::kRetry: return ReconcileResult::Retry(cost);
  }
  return ReconcileResult::Done(cost);
}

Status Syncer::EnsureSuperNamespace(TenantState& ts, const std::string& tenant_ns) {
  const std::string mapped = ts.map.SuperNamespace(tenant_ns);
  if (namespaces_->Super().cache().GetByKey(mapped) != nullptr) return OkStatus();
  const apiserver::RequestContext sctx = apiserver::RequestContext::System("syncer");
  if (opts_.super_server->Get<api::NamespaceObj>("", mapped, sctx).ok()) return OkStatus();
  api::NamespaceObj tenant_view;
  tenant_view.meta.name = tenant_ns;
  api::NamespaceObj shadow = ToSuper(ts.map, tenant_view);
  Result<api::NamespaceObj> created =
      opts_.super_server->Create(std::move(shadow), sctx);
  if (created.ok() || created.status().IsAlreadyExists()) return OkStatus();
  return created.status();
}

// -------------------------------------------------------------- upward path

controllers::ReconcileResult Syncer::UpwardReconcile(const client::FairQueue::Item& item) {
  trace::Emit(trace::Component::kSyncer, trace::Verb::kUpSync,
              trace::CurrentTraceId(), 0, item.key);
  CpuTimeGroup::Member cpu_member(&cpu_);
  const TimePoint dequeue = opts_.clock->Now();
  UpOutcome out;
  auto [kind, key] = SplitKind(item.key);
  if (kind == api::Pod::kKind) {
    out = SyncUpPod(key);
  } else if (kind == "PodGone") {
    ProcessPodGone(key);
  } else if (auto unit = kind_by_name_.find(kind); unit != kind_by_name_.end()) {
    out = unit->second->SyncUp(key);
  }
  if (out.wrote) {
    metrics_.upward_updates.fetch_add(1);
    if (out.became_ready) {
      metrics_.uws_queue.Record(dequeue - item.enqueue_time);
      // Like DWS-Process: process time plus the modeled op cost held below.
      metrics_.uws_process.Record(opts_.clock->Now() - dequeue + out.cost);
    }
  }
  return out.done ? controllers::ReconcileResult::Done(out.cost)
                  : controllers::ReconcileResult::Retry(out.cost);
}

Syncer::UpOutcome Syncer::SyncUpPod(const std::string& super_key) {
  auto super_pod = pods_->Super().cache().GetByKey(super_key);
  if (!super_pod) return {};  // deleted; PodGone path handles bindings
  std::optional<Origin> origin = OriginOf(*super_pod);
  if (!origin) return {};
  TenantPtr ts = GetTenant(origin->tenant_id);
  if (!ts) return {};

  // Virtual node lifecycle: pod got bound → tenant needs a vNode for that
  // physical node (1:1 mapping, Fig. 6).
  if (!super_pod->spec.node_name.empty()) {
    VNodeManager::BindResult br =
        vnodes_.Bind(origin->tenant_id, super_pod->spec.node_name,
                     origin->tenant_ns + "/" + super_pod->meta.name);
    if (br == VNodeManager::BindResult::kNewVNode) {
      Status st = EnsureVNode(*ts, super_pod->spec.node_name);
      if (!st.ok()) {
        VLOG(1) << "syncer: vNode creation failed: " << st;
        UpOutcome out;
        out.done = false;
        return out;
      }
    }
  }

  bool became_ready = false;
  UpOutcome out = WriteUp(*ts, pods_->Tenant(*ts), *origin, super_pod->meta.name,
                          [&](api::Pod& tp) {
                            if (!LagsShadow(tp, *super_pod)) return false;
                            if (!super_pod->spec.node_name.empty()) {
                              tp.spec.node_name = super_pod->spec.node_name;
                            }
                            became_ready = !tp.status.Ready() && super_pod->status.Ready();
                            tp.status = super_pod->status;
                            if (became_ready) {
                              tp.meta.annotations[kReadyAtAnnotation] =
                                  std::to_string(opts_.clock->WallUnixMillis());
                            }
                            return true;
                          });
  out.became_ready = out.wrote && became_ready;
  return out;
}

void Syncer::ProcessPodGone(const std::string& super_key) {
  GoneInfo info;
  {
    std::lock_guard<std::mutex> l(gone_mu_);
    auto it = pending_gone_.find(super_key);
    if (it == pending_gone_.end()) return;
    info = it->second;
    pending_gone_.erase(it);
  }
  VNodeManager::UnbindResult r = vnodes_.Unbind(info.tenant, info.node, info.tenant_pod_key);
  if (r != VNodeManager::UnbindResult::kVNodeEmpty) return;
  TenantPtr ts = GetTenant(info.tenant);
  if (!ts) return;
  // "Once a virtual node has no binding Pods, it will be removed from the
  // tenant control plane by the syncer." (§III-C)
  Status st = ts->tcp->server().Delete<api::Node>(
      "", info.node, apiserver::RequestContext::System("syncer"));
  if (!st.ok() && !st.IsNotFound()) {
    VLOG(1) << "syncer: vNode removal failed for " << info.node << ": " << st;
  }
}

Status Syncer::EnsureVNode(TenantState& ts, const std::string& node) {
  auto snode = super_nodes_->inf.cache().GetByKey(node);
  api::Node vn;
  vn.meta.name = node;
  if (snode) {
    vn.meta.labels = snode->meta.labels;
    vn.spec = snode->spec;
    vn.status = snode->status;
  }
  vn.meta.labels["virtualcluster.io/vnode"] = "true";
  // The tenant-visible kubelet endpoint points at the vn-agent, which proxies
  // log/exec to the real kubelet (§III-B (3)).
  std::string address = snode ? snode->status.address : node;
  vn.status.kubelet_endpoint = address + ":" + std::to_string(opts_.vnagent_port);
  Result<api::Node> created =
      ts.tcp->server().Create(vn, apiserver::RequestContext::System("syncer"));
  if (created.ok()) vnodes_.SetWritten(ts.map.tenant_id, node, std::move(*created));
  if (created.ok() || created.status().IsAlreadyExists()) return OkStatus();
  return created.status();
}

// --------------------------------------------------------------- heartbeat

// Writes each vNode by CAS on the copy the syncer last wrote (VNodeManager::
// Written), so an unchanged vNode costs nothing and a changed one no Get: a
// Get happens only after a Conflict, or when no copy is known (the create
// found the vNode existing, or the last write failed). A Get would also build
// a Node watch cache on the tenant apiserver that wakes on every commit.
void Syncer::BroadcastHeartbeatsOnce() {
  const apiserver::RequestContext ctx =
      apiserver::RequestContext::System("syncer-heartbeat");
  for (const TenantPtr& ts : Snapshot()) {
    const std::string& tenant = ts->map.tenant_id;
    apiserver::APIServer& server = ts->tcp->server();
    for (const std::string& node : vnodes_.NodesOf(tenant)) {
      auto snode = super_nodes_->inf.cache().GetByKey(node);
      if (!snode) continue;
      auto current = [&](const api::Node& vn) {
        return vn.status.last_heartbeat_ms == snode->status.last_heartbeat_ms &&
               vn.status.conditions == snode->status.conditions;
      };
      std::optional<api::Node> last = vnodes_.Written(tenant, node);
      if (last && current(*last)) continue;
      if (!last) {
        Result<api::Node> live = server.Get<api::Node>("", node, ctx);
        if (!live.ok()) continue;
        last = std::move(*live);
      }
      const std::string endpoint =
          snode->status.address + ":" + std::to_string(opts_.vnagent_port);
      api::Node written;
      Status st = apiserver::UpdateFrom(
          server, *last,
          [&](api::Node& vn) {
            if (current(vn)) return false;
            vn.status = snode->status;
            vn.status.kubelet_endpoint = endpoint;
            return true;
          },
          ctx, &written);
      vnodes_.SetWritten(tenant, node,
                         st.ok() ? std::optional<api::Node>(std::move(written)) : std::nullopt);
    }
  }
}

// ------------------------------------------------------------------ scanning

// Starts an attached tenant's informers and its periodic scan: one timer
// per tenant on the shared executor — the cheap analogue of the paper's
// one-scan-thread-per-tenant. The weak_ptr keeps a detached tenant from
// being revived by a late firing.
void Syncer::StartTenant(const TenantPtr& ts) {
  for (const auto& informer : ts->informers) informer->Start();
  if (!opts_.periodic_scan) return;
  std::weak_ptr<TenantState> wts = ts;
  ts->scan_timer = exec_->RunEvery(opts_.scan_interval, [this, wts] {
    if (stop_.load()) return;
    TenantPtr t = wts.lock();
    if (!t) return;
    CpuTimeGroup::Member cpu_member(&cpu_);
    Stopwatch sw(opts_.clock);
    ScanRound r = ScanTenant(*t);
    r.took = sw.Elapsed();
    metrics_.scan_rounds.fetch_add(1);
    metrics_.scan_resent.fetch_add(r.resent);
    std::lock_guard<std::mutex> l(scan_mu_);
    last_scan_ = r;
  });
}

Syncer::ScanRound Syncer::ScanTenant(TenantState& ts) {
  ScanRound total;
  for (const auto& kind : kinds_) {
    ScanRound r = kind->Scan(ts);
    total.objects_scanned += r.objects_scanned;
    total.resent += r.resent;
  }
  return total;
}

Syncer::ScanRound Syncer::ScanAllTenants() {
  std::vector<TenantPtr> snapshot = Snapshot();
  Stopwatch sw(opts_.clock);
  std::vector<ScanRound> rounds(snapshot.size());
  // One scanning thread per tenant, as configured in the paper's §IV-C.
  ParallelFor(static_cast<int>(snapshot.size()), [&](int i) {
    CpuTimeGroup::Member cpu_member(&cpu_);
    rounds[static_cast<size_t>(i)] = ScanTenant(*snapshot[static_cast<size_t>(i)]);
  });
  ScanRound total;
  for (const ScanRound& r : rounds) {
    total.objects_scanned += r.objects_scanned;
    total.resent += r.resent;
  }
  total.took = sw.Elapsed();
  metrics_.scan_rounds.fetch_add(1);
  metrics_.scan_resent.fetch_add(total.resent);
  {
    std::lock_guard<std::mutex> l(scan_mu_);
    last_scan_ = total;
  }
  return total;
}

// ------------------------------------------------------------- accounting

size_t Syncer::InformerCacheBytes() const {
  size_t total = 0;
  AllInformers([&](AnyInformer& informer) {
    total += informer.CacheBytes();
    return true;
  });
  return total;
}

size_t Syncer::InformerCacheObjects() const {
  size_t total = 0;
  AllInformers([&](AnyInformer& informer) {
    total += informer.CacheObjects();
    return true;
  });
  return total;
}

size_t Syncer::QueuedKeyBytes() const {
  // Queued requests are just keys — "a few bytes" each (paper §IV-C).
  return downward_->Len() * 64 + upward_->Len() * 64;
}

}  // namespace vc::core
