#include "kubelet/kubelet.h"

#include "common/logging.h"
#include "common/strings.h"
#include "common/trace.h"

namespace vc::kubelet {

namespace {
const apiserver::RequestContext& KubeletCtx() {
  static const apiserver::RequestContext ctx =
      apiserver::RequestContext::System("kubelet");
  return ctx;
}
}  // namespace


namespace {

bool IsTerminal(const api::Pod& pod) {
  return pod.status.phase == api::PodPhase::kSucceeded ||
         pod.status.phase == api::PodPhase::kFailed;
}

// Whether `new_pod` differs from `old_pod` only in status and resourceVersion,
// and not in being terminal: such an update (the kubelet's own Ready write
// among them) cannot change what ReconcilePod does.
bool StatusOnlyChange(const api::Pod& old_pod, const api::Pod& new_pod) {
  if (IsTerminal(old_pod) != IsTerminal(new_pod) || !(old_pod.spec == new_pod.spec)) {
    return false;
  }
  api::ObjectMeta meta = old_pod.meta;
  meta.resource_version = new_pod.meta.resource_version;
  return meta == new_pod.meta;
}

}  // namespace

Kubelet::Kubelet(Options opts)
    : opts_(std::move(opts)),
      loop_(
          [&] {
            controllers::Reconciler::Options o;
            o.name = "kubelet";
            o.clock = opts_.clock;
            o.workers = opts_.workers;
            o.backoff_base = Millis(10);
            o.backoff_max = Seconds(5);
            return o;
          }(),
          [this](const std::string& key) { return ReconcilePod(key); }) {
  if (opts_.runtimes.empty() || !opts_.runtimes.count("")) {
    opts_.runtimes[""] = std::make_shared<MockRuntime>(opts_.clock, opts_.fabric);
  }
}

Kubelet::~Kubelet() { Stop(); }

void Kubelet::AttachPodSource(client::SharedInformer<api::Pod>* source) {
  source_ = source;
  client::EventHandlers<api::Pod> h;
  const std::string node = opts_.node_name;
  h.on_add = [this, node](const api::Pod& pod) {
    if (pod.spec.node_name == node) loop_.Enqueue(pod.meta.FullName());
  };
  h.on_update = [this, node](const api::Pod& old_pod, const api::Pod& new_pod) {
    if ((new_pod.spec.node_name == node || old_pod.spec.node_name == node) &&
        !StatusOnlyChange(old_pod, new_pod)) {
      loop_.Enqueue(new_pod.meta.FullName());
    }
  };
  h.on_delete = [this, node](const api::Pod& pod) {
    if (pod.spec.node_name == node) loop_.Enqueue(pod.meta.FullName());
  };
  source->AddHandlers(std::move(h));
}

Status Kubelet::Start() {
  if (source_ == nullptr) return InternalError("kubelet has no pod source attached");
  Result<std::string> addr = opts_.fabric->node_ipam().Allocate();
  if (!addr.ok()) return addr.status();
  address_ = *addr;
  endpoint_ = address_ + ":10250";

  api::Node node;
  node.meta.name = opts_.node_name;
  node.meta.labels = opts_.labels;
  node.meta.labels["kubernetes.io/hostname"] = opts_.node_name;
  node.spec.taints = opts_.taints;
  node.status.capacity = opts_.capacity;
  node.status.allocatable = opts_.capacity;
  node.status.address = address_;
  node.status.kubelet_endpoint = endpoint_;
  node.status.last_heartbeat_ms = opts_.clock->WallUnixMillis();
  node.status.conditions = {{api::kNodeReady, true, node.status.last_heartbeat_ms,
                             "KubeletReady"}};
  Result<api::Node> created = opts_.server->Create(node, KubeletCtx());
  if (!created.ok() && !created.status().IsAlreadyExists()) return created.status();
  if (created.status().IsAlreadyExists()) {
    VC_RETURN_IF_ERROR(UpdateNodeStatus(true));
  }

  KubeletRegistry::Get().Register(endpoint_, this);
  loop_.Start();
  heartbeat_timer_ =
      Executor::SharedFor(opts_.clock)->RunEvery(opts_.heartbeat_period, [this] {
        Status st = UpdateNodeStatus(true);
        if (!st.ok()) {
          VLOG(2) << opts_.node_name << ": heartbeat failed: " << st;
        }
      });
  return OkStatus();
}

void Kubelet::Stop() {
  heartbeat_timer_.Cancel();
  loop_.Stop();
  if (!endpoint_.empty()) KubeletRegistry::Get().Unregister(endpoint_);
}

size_t Kubelet::pods_running() const {
  std::lock_guard<std::mutex> l(pods_mu_);
  return running_.size();
}

CriRuntime* Kubelet::RuntimeFor(const api::Pod& pod) {
  auto it = opts_.runtimes.find(pod.spec.runtime_class);
  if (it == opts_.runtimes.end()) it = opts_.runtimes.find("");
  return it->second.get();
}

bool Kubelet::ReconcilePod(const std::string& key) {
  auto pod = source_->cache().GetByKey(key);
  if (!pod || pod->spec.node_name != opts_.node_name || pod->meta.deleting() ||
      IsTerminal(*pod)) {
    TeardownPod(key);
    return true;
  }
  {
    std::lock_guard<std::mutex> l(pods_mu_);
    auto it = running_.find(key);
    if (it != running_.end()) {
      if (it->second.uid == pod->meta.uid) return true;  // already running
    }
  }
  Status st = StartPod(*pod);
  if (!st.ok()) {
    VLOG(1) << opts_.node_name << ": start failed for " << key << ": " << st;
    return false;  // retry with backoff
  }
  return true;
}

Status Kubelet::StartPod(const api::Pod& pod) {
  Stopwatch sw(opts_.clock);
  CriRuntime* runtime = RuntimeFor(pod);

  // Volume prerequisites: referenced secrets/configmaps/PVCs must exist.
  for (const api::VolumeSource& vol : pod.spec.volumes) {
    if (!vol.secret_name.empty()) {
      if (!opts_.server->Get<api::Secret>(pod.meta.ns, vol.secret_name, KubeletCtx()).ok()) {
        return NotFoundError("volume " + vol.name + ": secret " + vol.secret_name +
                             " not found");
      }
    } else if (!vol.config_map_name.empty()) {
      if (!opts_.server->Get<api::ConfigMap>(pod.meta.ns, vol.config_map_name, KubeletCtx()).ok()) {
        return NotFoundError("volume " + vol.name + ": configmap " + vol.config_map_name +
                             " not found");
      }
    } else if (!vol.pvc_name.empty()) {
      Result<api::PersistentVolumeClaim> pvc =
          opts_.server->Get<api::PersistentVolumeClaim>(pod.meta.ns, vol.pvc_name,
                                                        KubeletCtx());
      if (!pvc.ok()) {
        return NotFoundError("volume " + vol.name + ": pvc " + vol.pvc_name + " not found");
      }
      if (pvc->phase != "Bound") {
        return UnavailableError("volume " + vol.name + ": pvc " + vol.pvc_name +
                                " not bound yet");
      }
    }
  }

  std::string vpc = opts_.vpc_id;
  if (auto it = pod.meta.annotations.find("network.vc.io/vpc-id");
      it != pod.meta.annotations.end()) {
    vpc = it->second;
  }
  Result<SandboxHandle> sandbox =
      runtime->RunPodSandbox(pod, opts_.node_name, opts_.network_mode, vpc);
  if (!sandbox.ok()) return sandbox.status();

  const std::string key = pod.meta.FullName();
  {
    std::lock_guard<std::mutex> l(pods_mu_);
    RunningPod rp;
    rp.sandbox = *sandbox;
    rp.runtime = runtime;
    rp.uid = pod.meta.uid;
    running_[key] = std::move(rp);
  }

  auto fail = [&](Status st) {
    TeardownPod(key);
    return st;
  };

  // Init containers run to completion, in order, before anything else.
  for (const api::Container& spec : pod.spec.init_containers) {
    Result<ContainerHandle> c = runtime->CreateContainer(*sandbox, spec);
    if (!c.ok()) return fail(c.status());
    VC_RETURN_IF_ERROR(runtime->StartContainer(*sandbox, *c));
    VC_RETURN_IF_ERROR(runtime->StopContainer(*sandbox, *c));  // init exits
  }

  // The enhanced-kubeproxy barrier: Kata pods in gated clusters wait for
  // service routing rules before workload containers start (§III-B (4)).
  if (sandbox->guest && opts_.enforce_network_gate) {
    BlockingRegion br;  // may park a worker slot for up to the gate timeout
    if (!sandbox->guest->WaitNetworkReady(opts_.network_gate_timeout)) {
      return fail(TimeoutError("network gate: no routing rules injected within timeout"));
    }
  }

  std::vector<ContainerHandle> started;
  for (const api::Container& spec : pod.spec.containers) {
    Result<ContainerHandle> c = runtime->CreateContainer(*sandbox, spec);
    if (!c.ok()) return fail(c.status());
    VC_RETURN_IF_ERROR(runtime->StartContainer(*sandbox, *c));
    started.push_back(*c);
  }
  {
    std::lock_guard<std::mutex> l(pods_mu_);
    auto it = running_.find(key);
    if (it != running_.end()) it->second.containers = started;
  }

  // Report Running/Ready. Status-only write: goes through the /status
  // subresource (RBAC verb "update-status"), like the real kubelet. `pod` is
  // the informer's copy, so the write is a CAS on it with no Get first.
  const int64_t now_ms = opts_.clock->WallUnixMillis();
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("kubelet");
  trace::Emit(trace::Component::kKubelet, trace::Verb::kStatusWrite,
              trace::CurrentTraceId(), 0, pod.meta.ns + "/" + pod.meta.name);
  Status st = apiserver::UpdateStatusFrom(
      *opts_.server, pod, [&](api::Pod& live) {
        if (live.meta.uid != pod.meta.uid) return false;
        live.status.phase = api::PodPhase::kRunning;
        live.status.pod_ip = sandbox->ip;
        live.status.host_ip = address_;
        live.status.start_time_ms = now_ms;
        live.status.SetCondition(api::kPodScheduled, true, now_ms);
        live.status.SetCondition(api::kPodInitialized, true, now_ms);
        live.status.SetCondition(api::kPodReady, true, now_ms, "ContainersReady");
        live.status.container_statuses.clear();
        for (const ContainerHandle& c : started) {
          live.status.container_statuses.push_back({c.name, true, 0, "running"});
        }
        return true;
      },
      ctx);
  if (!st.ok() && !st.IsNotFound()) return fail(st);

  pods_started_.fetch_add(1);
  start_latency_.Record(sw.Elapsed());
  return OkStatus();
}

void Kubelet::TeardownPod(const std::string& key) {
  RunningPod rp;
  {
    std::lock_guard<std::mutex> l(pods_mu_);
    auto it = running_.find(key);
    if (it == running_.end()) return;
    rp = std::move(it->second);
    running_.erase(it);
  }
  for (ContainerHandle& c : rp.containers) {
    (void)rp.runtime->StopContainer(rp.sandbox, c);
  }
  (void)rp.runtime->StopPodSandbox(rp.sandbox);
}

Status Kubelet::UpdateNodeStatus(bool ready) {
  const int64_t now_ms = opts_.clock->WallUnixMillis();
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("kubelet");
  trace::Emit(trace::Component::kKubelet, trace::Verb::kStatusWrite,
              trace::CurrentTraceId(), 0, opts_.node_name);
  return apiserver::RetryUpdateStatus<api::Node>(
      *opts_.server, "", opts_.node_name, [&](api::Node& node) {
        node.status.capacity = opts_.capacity;
        node.status.allocatable = opts_.capacity;
        node.status.address = address_;
        node.status.kubelet_endpoint = endpoint_;
        node.status.last_heartbeat_ms = now_ms;
        bool found = false;
        for (auto& c : node.status.conditions) {
          if (c.type == api::kNodeReady) {
            if (c.status != ready) {
              c.status = ready;
              c.last_transition_ms = now_ms;
            }
            found = true;
          }
        }
        if (!found) {
          node.status.conditions.push_back({api::kNodeReady, ready, now_ms, "KubeletReady"});
        }
        return true;
      },
      ctx);
}

Result<std::string> Kubelet::Logs(const std::string& ns, const std::string& pod,
                                  const std::string& container, int tail_lines) {
  std::lock_guard<std::mutex> l(pods_mu_);
  auto it = running_.find(ns + "/" + pod);
  if (it == running_.end()) {
    return NotFoundError("pod " + ns + "/" + pod + " is not running on " + opts_.node_name);
  }
  return it->second.runtime->ContainerLogs(it->second.sandbox, container, tail_lines);
}

Result<std::string> Kubelet::Exec(const std::string& ns, const std::string& pod,
                                  const std::string& container,
                                  const std::vector<std::string>& command) {
  std::lock_guard<std::mutex> l(pods_mu_);
  auto it = running_.find(ns + "/" + pod);
  if (it == running_.end()) {
    return NotFoundError("pod " + ns + "/" + pod + " is not running on " + opts_.node_name);
  }
  return it->second.runtime->ExecSync(it->second.sandbox, container, command);
}

// ----------------------------------------------------------------- Fleet

KubeletFleet::KubeletFleet(apiserver::APIServer* server, Clock* clock) : server_(server) {
  client::SharedInformer<api::Pod>::Options opts;
  opts.clock = clock;
  pod_informer_ = std::make_unique<client::SharedInformer<api::Pod>>(
      client::ListerWatcher<api::Pod>(server, "", KubeletCtx()), opts);
}

KubeletFleet::~KubeletFleet() { Stop(); }

Kubelet* KubeletFleet::Add(Kubelet::Options opts) {
  opts.server = opts.server ? opts.server : server_;
  auto kubelet = std::make_unique<Kubelet>(std::move(opts));
  kubelet->AttachPodSource(pod_informer_.get());
  kubelets_.push_back(std::move(kubelet));
  return kubelets_.back().get();
}

Status KubeletFleet::Start() {
  for (auto& k : kubelets_) {
    VC_RETURN_IF_ERROR(k->Start());
  }
  pod_informer_->Start();
  started_ = true;
  return OkStatus();
}

void KubeletFleet::Stop() {
  if (!started_) return;
  started_ = false;
  pod_informer_->Stop();
  for (auto& k : kubelets_) k->Stop();
}

}  // namespace vc::kubelet
