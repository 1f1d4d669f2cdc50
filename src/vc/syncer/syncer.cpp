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

std::pair<std::string, std::string> SplitNsName(const std::string& key) {
  size_t slash = key.find('/');
  if (slash == std::string::npos) return {"", key};
  return {key.substr(0, slash), key.substr(slash + 1)};
}

}  // namespace

// ------------------------------------------------------------- construction

std::shared_ptr<void> Syncer::CpuToken() {
  return std::make_shared<CpuTimeGroup::Member>(&cpu_);
}

template <typename T>
typename client::SharedInformer<T>::Options Syncer::InformerOptions() {
  typename client::SharedInformer<T>::Options o;
  o.clock = opts_.clock;
  o.thread_hook = [this] { return CpuToken(); };
  return o;
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
      [this](const client::FairQueue::Item& item,
             controllers::Reconciler::Completion done) {
        DownwardReconcile(item, std::move(done));
      });
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
      [this](const client::FairQueue::Item& item,
             controllers::Reconciler::Completion done) {
        UpwardReconcile(item, std::move(done));
      });

  apiserver::APIServer* super = opts_.super_server;

  const apiserver::RequestContext ctx = apiserver::RequestContext::System("syncer");

  // Super-cluster reflectors for the synchronized kinds select only tenant
  // shadows (stamped with kTenantLabel by ToSuper) SERVER-side: the super
  // apiserver never decodes, transfers, or caches its non-tenant objects for
  // the syncer, instead of the syncer filtering via OriginOf after paying the
  // full list cost. Bookmarks keep these mostly-idle watches resumable across
  // compactions. The node reflector stays unfiltered — physical Node objects
  // carry no tenant label.
  auto tenant_scoped = [&](auto kind_tag) {
    using Kind = decltype(kind_tag);
    client::ReflectorOptions<Kind> ro;
    ro.label_selector = kTenantLabel;  // bare key = Exists
    return client::ListerWatcher<Kind>(super, std::move(ro), ctx);
  };

  super_pods_ = std::make_unique<client::SharedInformer<api::Pod>>(
      tenant_scoped(api::Pod{}), InformerOptions<api::Pod>());
  super_namespaces_ = std::make_unique<client::SharedInformer<api::NamespaceObj>>(
      tenant_scoped(api::NamespaceObj{}), InformerOptions<api::NamespaceObj>());
  super_services_ = std::make_unique<client::SharedInformer<api::Service>>(
      tenant_scoped(api::Service{}), InformerOptions<api::Service>());
  super_secrets_ = std::make_unique<client::SharedInformer<api::Secret>>(
      tenant_scoped(api::Secret{}), InformerOptions<api::Secret>());
  super_configmaps_ = std::make_unique<client::SharedInformer<api::ConfigMap>>(
      tenant_scoped(api::ConfigMap{}), InformerOptions<api::ConfigMap>());
  super_serviceaccounts_ = std::make_unique<client::SharedInformer<api::ServiceAccount>>(
      tenant_scoped(api::ServiceAccount{}), InformerOptions<api::ServiceAccount>());
  super_pvcs_ = std::make_unique<client::SharedInformer<api::PersistentVolumeClaim>>(
      tenant_scoped(api::PersistentVolumeClaim{}),
      InformerOptions<api::PersistentVolumeClaim>());
  super_nodes_ = std::make_unique<client::SharedInformer<api::Node>>(
      client::ListerWatcher<api::Node>(super, "", ctx), InformerOptions<api::Node>());

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
  super_pods_->AddHandlers(std::move(up));

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

// --------------------------------------------------------- informer lookup

template <typename T>
client::SharedInformer<T>* Syncer::TenantInformer(TenantState& ts) {
  if constexpr (std::is_same_v<T, api::Pod>) return ts.pods.get();
  else if constexpr (std::is_same_v<T, api::NamespaceObj>) return ts.namespaces.get();
  else if constexpr (std::is_same_v<T, api::Service>) return ts.services.get();
  else if constexpr (std::is_same_v<T, api::Secret>) return ts.secrets.get();
  else if constexpr (std::is_same_v<T, api::ConfigMap>) return ts.configmaps.get();
  else if constexpr (std::is_same_v<T, api::ServiceAccount>) return ts.serviceaccounts.get();
  else if constexpr (std::is_same_v<T, api::PersistentVolumeClaim>) return ts.pvcs.get();
  else return nullptr;
}

template <typename T>
client::SharedInformer<T>* Syncer::SuperInformer() {
  if constexpr (std::is_same_v<T, api::Pod>) return super_pods_.get();
  else if constexpr (std::is_same_v<T, api::NamespaceObj>) return super_namespaces_.get();
  else if constexpr (std::is_same_v<T, api::Service>) return super_services_.get();
  else if constexpr (std::is_same_v<T, api::Secret>) return super_secrets_.get();
  else if constexpr (std::is_same_v<T, api::ConfigMap>) return super_configmaps_.get();
  else if constexpr (std::is_same_v<T, api::ServiceAccount>)
    return super_serviceaccounts_.get();
  else if constexpr (std::is_same_v<T, api::PersistentVolumeClaim>)
    return super_pvcs_.get();
  else return nullptr;
}

template <typename T>
void Syncer::WireTenantHandlers(TenantState& ts, client::SharedInformer<T>* informer) {
  const std::string tenant = ts.map.tenant_id;
  client::EventHandlers<T> h;
  h.on_add = [this, tenant](const T& obj) {
    downward_->Enqueue(tenant, std::string(T::kKind) + "|" + obj.meta.FullName());
  };
  h.on_update = [this, tenant](const T&, const T& obj) {
    downward_->Enqueue(tenant, std::string(T::kKind) + "|" + obj.meta.FullName());
  };
  h.on_delete = [this, tenant](const T& obj) {
    downward_->Enqueue(tenant, std::string(T::kKind) + "|" + obj.meta.FullName());
  };
  informer->AddHandlers(std::move(h));
}

// ------------------------------------------------------------ tenant attach

void Syncer::AttachTenant(const VirtualClusterObj& vc, TenantControlPlane* tcp) {
  auto ts = std::make_shared<TenantState>();
  ts->map = TenantMapping::ForVc(vc.meta.name, vc.meta.uid);
  ts->tcp = tcp;
  ts->weight = std::max(1, vc.weight);
  apiserver::APIServer* server = &tcp->server();
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("syncer");

  ts->pods = std::make_unique<client::SharedInformer<api::Pod>>(
      client::ListerWatcher<api::Pod>(server, "", ctx), InformerOptions<api::Pod>());
  ts->namespaces = std::make_unique<client::SharedInformer<api::NamespaceObj>>(
      client::ListerWatcher<api::NamespaceObj>(server, "", ctx),
      InformerOptions<api::NamespaceObj>());
  ts->services = std::make_unique<client::SharedInformer<api::Service>>(
      client::ListerWatcher<api::Service>(server, "", ctx),
      InformerOptions<api::Service>());
  ts->secrets = std::make_unique<client::SharedInformer<api::Secret>>(
      client::ListerWatcher<api::Secret>(server, "", ctx),
      InformerOptions<api::Secret>());
  ts->configmaps = std::make_unique<client::SharedInformer<api::ConfigMap>>(
      client::ListerWatcher<api::ConfigMap>(server, "", ctx),
      InformerOptions<api::ConfigMap>());
  ts->serviceaccounts = std::make_unique<client::SharedInformer<api::ServiceAccount>>(
      client::ListerWatcher<api::ServiceAccount>(server, "", ctx),
      InformerOptions<api::ServiceAccount>());
  ts->pvcs = std::make_unique<client::SharedInformer<api::PersistentVolumeClaim>>(
      client::ListerWatcher<api::PersistentVolumeClaim>(server, "", ctx),
      InformerOptions<api::PersistentVolumeClaim>());

  WireTenantHandlers(*ts, ts->pods.get());
  // Upward sync judges "no change" on this informer's copy of the tenant
  // Pod, so a newer tenant version whose status or nodeName moved must re-run
  // it (DESIGN.md §8.1) — e.g. a foreign status write that diverges from the
  // shadow is reverted without waiting for a periodic scan.
  {
    client::EventHandlers<api::Pod> up;
    up.on_update = [this, map = ts->map](const api::Pod& old_pod, const api::Pod& new_pod) {
      if (old_pod.status == new_pod.status &&
          old_pod.spec.node_name == new_pod.spec.node_name) {
        return;
      }
      upward_->Enqueue(map.tenant_id,
                       "Pod|" + map.SuperNamespace(new_pod.meta.ns) + "/" + new_pod.meta.name);
    };
    ts->pods->AddHandlers(std::move(up));
  }
  WireTenantHandlers(*ts, ts->namespaces.get());
  WireTenantHandlers(*ts, ts->services.get());
  WireTenantHandlers(*ts, ts->secrets.get());
  WireTenantHandlers(*ts, ts->configmaps.get());
  WireTenantHandlers(*ts, ts->serviceaccounts.get());
  WireTenantHandlers(*ts, ts->pvcs.get());

  downward_->RegisterTenant(ts->map.tenant_id, ts->weight);
  bool start_now;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    tenants_[ts->map.tenant_id] = ts;
    prefix_to_tenant_[ts->map.ns_prefix + "-"] = ts->map.tenant_id;
    start_now = started_.load();
  }
  if (start_now) {
    ts->pods->Start();
    ts->namespaces->Start();
    ts->services->Start();
    ts->secrets->Start();
    ts->configmaps->Start();
    ts->serviceaccounts->Start();
    ts->pvcs->Start();
    if (opts_.periodic_scan) ArmTenantScan(ts);
  }
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
  ts->pods->Stop();
  ts->namespaces->Stop();
  ts->services->Stop();
  ts->secrets->Stop();
  ts->configmaps->Stop();
  ts->serviceaccounts->Stop();
  ts->pvcs->Stop();
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

// --------------------------------------------------------------- lifecycle

void Syncer::Start() {
  if (started_.exchange(true)) return;
  stop_.store(false);

  super_pods_->Start();
  super_namespaces_->Start();
  super_services_->Start();
  super_secrets_->Start();
  super_configmaps_->Start();
  super_serviceaccounts_->Start();
  super_pvcs_->Start();
  super_nodes_->Start();

  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  for (TenantPtr& ts : snapshot) {
    ts->pods->Start();
    ts->namespaces->Start();
    ts->services->Start();
    ts->secrets->Start();
    ts->configmaps->Start();
    ts->serviceaccounts->Start();
    ts->pvcs->Start();
    if (opts_.periodic_scan) ArmTenantScan(ts);
  }

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
  {
    std::vector<TenantPtr> snapshot;
    {
      std::lock_guard<std::mutex> l(tenants_mu_);
      for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
    }
    for (TenantPtr& ts : snapshot) ts->scan_timer.Cancel();
  }
  downward_->StopAsync();
  upward_->StopAsync();
  // Pending op-cost charges complete inline (Stop does not wait out modeled
  // latencies); in-flight reconciles drain to zero. A reconcile still running
  // may file a new charge after the first sweep, hence the loop.
  DrainCharges();
  {
    BlockingRegion br;
    while (!downward_->WaitIdle(Millis(5)) || !upward_->WaitIdle(Millis(5))) {
      DrainCharges();
    }
  }
  DrainCharges();
  downward_->Stop();
  upward_->Stop();

  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  for (TenantPtr& ts : snapshot) {
    ts->pods->Stop();
    ts->namespaces->Stop();
    ts->services->Stop();
    ts->secrets->Stop();
    ts->configmaps->Stop();
    ts->serviceaccounts->Stop();
    ts->pvcs->Stop();
  }
  super_pods_->Stop();
  super_namespaces_->Stop();
  super_services_->Stop();
  super_secrets_->Stop();
  super_configmaps_->Stop();
  super_serviceaccounts_->Stop();
  super_pvcs_->Stop();
  super_nodes_->Stop();
}

bool Syncer::WaitForSync(Duration timeout) {
  Stopwatch sw(opts_.clock);
  auto remaining = [&] {
    Duration left = timeout - sw.Elapsed();
    return left > Duration::zero() ? left : Millis(1);
  };
  if (!super_pods_->WaitForSync(remaining()) ||
      !super_namespaces_->WaitForSync(remaining()) ||
      !super_services_->WaitForSync(remaining()) ||
      !super_secrets_->WaitForSync(remaining()) ||
      !super_configmaps_->WaitForSync(remaining()) ||
      !super_serviceaccounts_->WaitForSync(remaining()) ||
      !super_pvcs_->WaitForSync(remaining()) || !super_nodes_->WaitForSync(remaining())) {
    return false;
  }
  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  for (TenantPtr& ts : snapshot) {
    if (!ts->pods->WaitForSync(remaining()) || !ts->namespaces->WaitForSync(remaining()) ||
        !ts->services->WaitForSync(remaining()) ||
        !ts->secrets->WaitForSync(remaining()) ||
        !ts->configmaps->WaitForSync(remaining()) ||
        !ts->serviceaccounts->WaitForSync(remaining()) ||
        !ts->pvcs->WaitForSync(remaining())) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------- op-cost charges

// Charges the modeled API-operation service time as an executor timer: the
// reconcile's worker slot stays occupied (throughput is limited exactly as a
// sleeping worker thread would limit it) but no thread blocks.
void Syncer::ChargeCost(Duration cost, std::function<void()> finish) {
  if (stop_.load() || cost <= Duration::zero()) {
    finish();
    return;
  }
  // Hold charge_mu_ across RunAfter: the fire callback takes charge_mu_, so
  // it cannot observe the map before this charge is filed.
  std::lock_guard<std::mutex> l(charge_mu_);
  const uint64_t id = charge_seq_++;
  TimerHandle h = exec_->RunAfter(cost, [this, id] { FinishCharge(id); });
  charges_.emplace(id, Charge{std::move(h), std::move(finish)});
}

void Syncer::FinishCharge(uint64_t id) {
  std::function<void()> fin;
  {
    std::lock_guard<std::mutex> l(charge_mu_);
    auto it = charges_.find(id);
    if (it == charges_.end()) return;
    fin = std::move(it->second.finish);
    charges_.erase(it);
  }
  fin();
}

void Syncer::DrainCharges() {
  for (;;) {
    uint64_t id;
    TimerHandle h;
    {
      std::lock_guard<std::mutex> l(charge_mu_);
      if (charges_.empty()) return;
      id = charges_.begin()->first;
      h = charges_.begin()->second.handle;
    }
    // Cancel outside charge_mu_ (an in-flight fire holds the timer run state
    // and takes charge_mu_); whoever still finds the entry runs the finish.
    h.Cancel();
    FinishCharge(id);
  }
}

// ------------------------------------------------------------ downward path

void Syncer::DownwardReconcile(const client::FairQueue::Item& item,
                               controllers::Reconciler::Completion done) {
  // Inherits the reconcile attempt's ambient trace id (Reconciler::Process
  // opened the scope), so super-cluster writes below join the same trace.
  trace::Emit(trace::Component::kSyncer, trace::Verb::kDownSync,
              trace::CurrentTraceId(), 0, item.key);
  Duration cost{};
  bool ok;
  {
    // Scoped: the CPU accounting guard must not outlive the completion —
    // once the runtime's in-flight count hits zero Stop() can return and
    // destroy us.
    CpuTimeGroup::Member cpu_member(&cpu_);
    ok = DispatchDownward(item, opts_.clock->Now(), &cost);
  }
  // The runtime's backoff handles the retry requeue; completing from the
  // charge timer keeps the worker slot occupied for the modeled op latency.
  ChargeCost(cost, [ok, done = std::move(done)] {
    done(ok ? controllers::ReconcileResult::Done()
            : controllers::ReconcileResult::Retry());
  });
}

bool Syncer::DispatchDownward(const client::FairQueue::Item& item, TimePoint dequeue,
                              Duration* cost) {
  TenantPtr ts = GetTenant(item.tenant);
  if (!ts) return true;  // tenant detached; drop
  auto [kind, key] = SplitKind(item.key);

  DownResult r = DownResult::kNoop;
  Stopwatch process(opts_.clock);
  if (kind == api::Pod::kKind) {
    r = SyncDownObj<api::Pod>(*ts, key, cost);
    if (r == DownResult::kCreated) {
      // Phase metrics are recorded for the creation path only (Fig. 8). The
      // process phase includes the modeled op cost (charged after return).
      metrics_.dws_queue.Record(dequeue - item.enqueue_time);
      metrics_.dws_process.Record(process.Elapsed() + *cost);
    }
  } else if (kind == api::NamespaceObj::kKind) {
    r = SyncDownObj<api::NamespaceObj>(*ts, key, cost);
  } else if (kind == api::Service::kKind) {
    r = SyncDownObj<api::Service>(*ts, key, cost);
  } else if (kind == api::Secret::kKind) {
    r = SyncDownObj<api::Secret>(*ts, key, cost);
  } else if (kind == api::ConfigMap::kKind) {
    r = SyncDownObj<api::ConfigMap>(*ts, key, cost);
  } else if (kind == api::ServiceAccount::kKind) {
    r = SyncDownObj<api::ServiceAccount>(*ts, key, cost);
  } else if (kind == api::PersistentVolumeClaim::kKind) {
    r = SyncDownObj<api::PersistentVolumeClaim>(*ts, key, cost);
  }

  switch (r) {
    case DownResult::kCreated: metrics_.downward_creates.fetch_add(1); break;
    case DownResult::kUpdated: metrics_.downward_updates.fetch_add(1); break;
    case DownResult::kDeleted: metrics_.downward_deletes.fetch_add(1); break;
    case DownResult::kNoop: metrics_.downward_noops.fetch_add(1); break;
    case DownResult::kRetry: return false;
  }
  return true;
}

template <typename T>
Syncer::DownResult Syncer::SyncDownObj(TenantState& ts, const std::string& tenant_key,
                                       Duration* cost) {
  client::SharedInformer<T>* tinf = TenantInformer<T>(ts);
  client::SharedInformer<T>* sinf = SuperInformer<T>();
  auto tenant_obj = tinf->cache().GetByKey(tenant_key);

  std::string tenant_ns, name;
  std::string super_ns, super_key;
  if constexpr (std::is_same_v<T, api::NamespaceObj>) {
    name = tenant_key;
    super_key = ts.map.SuperNamespace(name);  // cluster-scoped: key == name
  } else {
    std::tie(tenant_ns, name) = SplitNsName(tenant_key);
    super_ns = ts.map.SuperNamespace(tenant_ns);
    super_key = super_ns + "/" + name;
  }

  // ----- deletion path: tenant object gone or terminating → remove shadow.
  if (!tenant_obj || tenant_obj->meta.deleting()) {
    std::string del_ns, del_name;
    if constexpr (std::is_same_v<T, api::NamespaceObj>) {
      del_name = super_key;
    } else {
      del_ns = super_ns;
      del_name = name;
    }
    // Do NOT trust the super informer cache for existence here: a create by
    // this very syncer may not have been observed by the cache yet (the
    // create-then-delete race of §III-C), and skipping the delete would leak
    // the shadow. Per-key serialization in the work queue guarantees the
    // create has already been issued, so an unconditional delete is safe;
    // NotFound simply means there was nothing to clean up.
    const bool shadow_cached = sinf->cache().GetByKey(super_key) != nullptr;
    Status st = opts_.super_server->Delete<T>(del_ns, del_name,
                                              apiserver::RequestContext::System("syncer"));
    if (st.ok()) {
      *cost += opts_.downward_op_cost;
      return DownResult::kDeleted;
    }
    if (st.IsNotFound()) {
      if (shadow_cached) metrics_.races_tolerated.fetch_add(1);
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
  auto existing = sinf->cache().GetByKey(super_key);

  if (!existing) {
    if constexpr (!std::is_same_v<T, api::NamespaceObj>) {
      Status ns_st = EnsureSuperNamespace(ts, tenant_ns);
      if (!ns_st.ok()) return DownResult::kRetry;
    }
    *cost += opts_.downward_op_cost;
    Result<T> created =
        opts_.super_server->Create(desired, apiserver::RequestContext::System("syncer"));
    if (!created.ok()) {
      if (created.status().IsAlreadyExists()) {
        // Informer lag (our shadow exists but the cache hasn't seen it yet)
        // or a previous partial sync; re-run shortly and compare then.
        return DownResult::kRetry;
      }
      VLOG(1) << "syncer: downward create " << T::kKind << " " << super_key
              << " failed: " << created.status();
      return DownResult::kRetry;
    }
    if constexpr (std::is_same_v<T, api::Pod>) {
      metrics_.MarkDownwardDone(super_key, opts_.clock->Now());
    }
    return DownResult::kCreated;
  }

  if (DownwardFingerprint(*existing) == DownwardFingerprint(desired)) {
    return DownResult::kNoop;
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
  *cost += opts_.downward_op_cost;
  Result<T> res = opts_.super_server->Update(std::move(updated),
                                             apiserver::RequestContext::System("syncer"));
  if (!res.ok()) {
    if (res.status().IsConflict()) metrics_.conflicts_retried.fetch_add(1);
    if (res.status().IsNotFound()) metrics_.races_tolerated.fetch_add(1);
    return DownResult::kRetry;
  }
  return DownResult::kUpdated;
}

Status Syncer::EnsureSuperNamespace(TenantState& ts, const std::string& tenant_ns) {
  const std::string mapped = ts.map.SuperNamespace(tenant_ns);
  if (super_namespaces_->cache().GetByKey(mapped) != nullptr) return OkStatus();
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

void Syncer::UpwardReconcile(const client::FairQueue::Item& item,
                             controllers::Reconciler::Completion done) {
  trace::Emit(trace::Component::kSyncer, trace::Verb::kUpSync,
              trace::CurrentTraceId(), 0, item.key);
  const TimePoint dequeue = opts_.clock->Now();
  UpOutcome out;
  {
    // Scoped: must not outlive the completion (see DownwardReconcile).
    CpuTimeGroup::Member cpu_member(&cpu_);
    auto [kind, key] = SplitKind(item.key);
    if (kind == "Pod") {
      out = SyncUpPod(item);
    } else if (kind == "PodGone") {
      ProcessPodGone(key);
    }
  }
  // Completion metrics are recorded when the charge fires, matching the old
  // post-sleep timing; the runtime's slot stays held until `done` runs.
  ChargeCost(out.cost, [this, item, out, dequeue, done = std::move(done)] {
    if (out.wrote) {
      metrics_.upward_updates.fetch_add(1);
      if (out.became_ready) {
        metrics_.uws_queue.Record(dequeue - item.enqueue_time);
        metrics_.uws_process.Record(opts_.clock->Now() - dequeue);
      }
    }
    done(out.done ? controllers::ReconcileResult::Done()
                  : controllers::ReconcileResult::Retry());
  });
}

Syncer::UpOutcome Syncer::SyncUpPod(const client::FairQueue::Item& item) {
  UpOutcome out;
  auto [kind, super_key] = SplitKind(item.key);
  auto super_pod = super_pods_->cache().GetByKey(super_key);
  if (!super_pod) return out;  // deleted; PodGone path handles bindings
  std::optional<Origin> origin = OriginOf(*super_pod);
  if (!origin) return out;
  TenantPtr ts = GetTenant(origin->tenant_id);
  if (!ts) return out;

  // Virtual node lifecycle: pod got bound → tenant needs a vNode for that
  // physical node (1:1 mapping, Fig. 6).
  const std::string tenant_pod_key = origin->tenant_ns + "/" + super_pod->meta.name;
  if (!super_pod->spec.node_name.empty()) {
    VNodeManager::BindResult br =
        vnodes_.Bind(origin->tenant_id, super_pod->spec.node_name, tenant_pod_key);
    if (br == VNodeManager::BindResult::kNewVNode) {
      Status st = EnsureVNode(*ts, super_pod->spec.node_name);
      if (!st.ok()) {
        VLOG(1) << "syncer: vNode creation failed: " << st;
        out.done = false;
        return out;
      }
    }
  }

  bool wrote = false;
  bool became_ready = false;
  auto sync = [&](api::Pod& tp) {
    wrote = became_ready = false;
    if (!origin->tenant_uid.empty() && tp.meta.uid != origin->tenant_uid) {
      return false;  // tenant pod was recreated; stale shadow
    }
    bool changed = false;
    if (!super_pod->spec.node_name.empty() &&
        tp.spec.node_name != super_pod->spec.node_name) {
      tp.spec.node_name = super_pod->spec.node_name;
      changed = true;
    }
    if (!(tp.status == super_pod->status)) {
      const bool was_ready = tp.status.Ready();
      tp.status = super_pod->status;
      if (!was_ready && tp.status.Ready()) {
        tp.meta.annotations[kReadyAtAnnotation] =
            std::to_string(opts_.clock->WallUnixMillis());
        became_ready = true;
      }
      changed = true;
    }
    wrote = changed;
    return changed;
  };
  // Write by CAS on the tenant informer's copy: no Get, which would block on
  // the tenant apiserver's watch cache (and build one nothing else reads).
  // The tenant Pod handler in AttachTenant re-triggers this reconcile for
  // every newer tenant version whose status or nodeName differs, so a "no
  // change" verdict on a stale copy is never final.
  const apiserver::RequestContext ctx =
      apiserver::RequestContext::System("syncer-upward");
  apiserver::APIServer& tenant_server = ts->tcp->server();
  auto cached = ts->pods->cache().GetByKey(tenant_pod_key);
  Status st = cached ? apiserver::UpdateFrom(tenant_server, *cached, sync, ctx)
                     : apiserver::RetryUpdate<api::Pod>(tenant_server, origin->tenant_ns,
                                                        super_pod->meta.name, sync, ctx);
  if (!st.ok()) {
    if (st.IsNotFound()) {
      // Tenant deleted the pod while its status update was in flight — the
      // §III-C race; the downward path will delete the shadow.
      metrics_.races_tolerated.fetch_add(1);
      return out;
    }
    out.done = false;
    return out;
  }
  if (wrote) {
    // The op cost is charged as a timer by UpwardReconcile; completion
    // metrics are recorded when it fires, matching the old post-sleep timing.
    out.wrote = true;
    out.became_ready = became_ready;
    out.cost = opts_.upward_op_cost;
  } else {
    metrics_.upward_noops.fetch_add(1);
  }
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
  auto snode = super_nodes_->cache().GetByKey(node);
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
  if (created.ok() || created.status().IsAlreadyExists()) return OkStatus();
  return created.status();
}

// --------------------------------------------------------------- heartbeat

void Syncer::BroadcastHeartbeatsOnce() {
  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  const apiserver::RequestContext ctx =
      apiserver::RequestContext::System("syncer-heartbeat");
  for (TenantPtr& ts : snapshot) {
    for (const std::string& node : vnodes_.NodesOf(ts->map.tenant_id)) {
      auto snode = super_nodes_->cache().GetByKey(node);
      if (!snode) continue;
      const std::string endpoint =
          snode->status.address + ":" + std::to_string(opts_.vnagent_port);
      (void)apiserver::RetryUpdate<api::Node>(
          ts->tcp->server(), "", node, [&](api::Node& vn) {
            if (vn.status.last_heartbeat_ms == snode->status.last_heartbeat_ms &&
                vn.status.conditions == snode->status.conditions) {
              return false;
            }
            vn.status = snode->status;
            vn.status.kubelet_endpoint = endpoint;
            return true;
          },
          ctx);
    }
  }
}

// ------------------------------------------------------------------ scanning

// One periodic timer per tenant on the shared executor — the cheap analogue
// of the paper's one-scan-thread-per-tenant. The weak_ptr keeps a detached
// tenant from being revived by a late firing.
void Syncer::ArmTenantScan(const TenantPtr& ts) {
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

template <typename T>
Syncer::ScanRound Syncer::ScanKind(TenantState& ts) {
  ScanRound round;
  client::SharedInformer<T>* tinf = TenantInformer<T>(ts);
  client::SharedInformer<T>* sinf = SuperInformer<T>();

  // Tenant → super: every tenant object must have a matching shadow.
  for (const auto& tenant_obj : tinf->cache().List()) {
    round.objects_scanned++;
    std::string super_key;
    if constexpr (std::is_same_v<T, api::NamespaceObj>) {
      super_key = ts.map.SuperNamespace(tenant_obj->meta.name);
    } else {
      super_key =
          ts.map.SuperNamespace(tenant_obj->meta.ns) + "/" + tenant_obj->meta.name;
    }
    auto shadow = sinf->cache().GetByKey(super_key);
    bool mismatch;
    if (!shadow) {
      mismatch = !tenant_obj->meta.deleting();
    } else {
      mismatch = DownwardFingerprint(*shadow) !=
                 DownwardFingerprint(ToSuper(ts.map, *tenant_obj));
    }
    if (mismatch) {
      downward_->Enqueue(ts.map.tenant_id,
                         std::string(T::kKind) + "|" + tenant_obj->meta.FullName());
      round.resent++;
    }
  }

  // Super → tenant: shadows whose tenant object vanished must be reaped.
  if constexpr (!std::is_same_v<T, api::NamespaceObj>) {
    for (const auto& tenant_ns_obj : ts.namespaces->cache().List()) {
      const std::string mapped = ts.map.SuperNamespace(tenant_ns_obj->meta.name);
      for (const auto& shadow : sinf->cache().ListNamespace(mapped)) {
        round.objects_scanned++;
        const std::string tenant_key =
            tenant_ns_obj->meta.name + "/" + shadow->meta.name;
        if (tinf->cache().GetByKey(tenant_key) == nullptr) {
          downward_->Enqueue(ts.map.tenant_id,
                             std::string(T::kKind) + "|" + tenant_key);
          round.resent++;
        }
      }
    }
  }
  return round;
}

Syncer::ScanRound Syncer::ScanTenant(TenantState& ts) {
  ScanRound total;
  auto acc = [&](ScanRound r) {
    total.objects_scanned += r.objects_scanned;
    total.resent += r.resent;
  };
  acc(ScanKind<api::NamespaceObj>(ts));
  acc(ScanKind<api::Pod>(ts));
  acc(ScanKind<api::Service>(ts));
  acc(ScanKind<api::Secret>(ts));
  acc(ScanKind<api::ConfigMap>(ts));
  acc(ScanKind<api::ServiceAccount>(ts));
  acc(ScanKind<api::PersistentVolumeClaim>(ts));
  return total;
}

Syncer::ScanRound Syncer::ScanAllTenants() {
  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
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
  total += super_pods_->cache().ApproxBytes();
  total += super_namespaces_->cache().ApproxBytes();
  total += super_services_->cache().ApproxBytes();
  total += super_secrets_->cache().ApproxBytes();
  total += super_configmaps_->cache().ApproxBytes();
  total += super_serviceaccounts_->cache().ApproxBytes();
  total += super_pvcs_->cache().ApproxBytes();
  total += super_nodes_->cache().ApproxBytes();
  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  for (const TenantPtr& ts : snapshot) {
    total += ts->pods->cache().ApproxBytes();
    total += ts->namespaces->cache().ApproxBytes();
    total += ts->services->cache().ApproxBytes();
    total += ts->secrets->cache().ApproxBytes();
    total += ts->configmaps->cache().ApproxBytes();
    total += ts->serviceaccounts->cache().ApproxBytes();
    total += ts->pvcs->cache().ApproxBytes();
  }
  return total;
}

size_t Syncer::InformerCacheObjects() const {
  size_t total = super_pods_->cache().Size() + super_namespaces_->cache().Size() +
                 super_services_->cache().Size() + super_secrets_->cache().Size() +
                 super_configmaps_->cache().Size() +
                 super_serviceaccounts_->cache().Size() + super_pvcs_->cache().Size() +
                 super_nodes_->cache().Size();
  std::vector<TenantPtr> snapshot;
  {
    std::lock_guard<std::mutex> l(tenants_mu_);
    for (auto& [id, ts] : tenants_) snapshot.push_back(ts);
  }
  for (const TenantPtr& ts : snapshot) {
    total += ts->pods->cache().Size() + ts->namespaces->cache().Size() +
             ts->services->cache().Size() + ts->secrets->cache().Size() +
             ts->configmaps->cache().Size() + ts->serviceaccounts->cache().Size() +
             ts->pvcs->cache().Size();
  }
  return total;
}

size_t Syncer::QueuedKeyBytes() const {
  // Queued requests are just keys — "a few bytes" each (paper §IV-C).
  return downward_->Len() * 64 + upward_->Len() * 64;
}

}  // namespace vc::core
