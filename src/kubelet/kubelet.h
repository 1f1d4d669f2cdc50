// The node agent: watches Pods bound to its node, drives them through the
// CRI runtime to Running/Ready, reports status, heartbeats its Node object,
// and serves the kubelet API (logs/exec) that the vn-agent proxies.
//
// Scaling note: the paper's evaluation installs one hundred virtual kubelets
// against one apiserver. A naive one-informer-per-kubelet design would keep
// one hundred full pod caches; like real deployments we share a single pod
// informer across all kubelets on a cluster (see KubeletFleet) and each
// kubelet filters events for its node.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "client/informer.h"
#include "common/executor.h"
#include "common/histogram.h"
#include "controllers/runtime.h"
#include "kubelet/cri.h"
#include "kubelet/registry.h"

namespace vc::kubelet {

class Kubelet {
 public:
  struct Options {
    apiserver::APIServer* server = nullptr;
    std::string node_name;
    Clock* clock = RealClock::Get();
    net::NetworkFabric* fabric = nullptr;
    api::ResourceList capacity{96000, 328ll << 30};  // paper's worker nodes
    api::LabelMap labels;
    std::vector<api::Taint> taints;
    Duration heartbeat_period = Seconds(2);
    int workers = 2;
    net::PodNetworkMode network_mode = net::PodNetworkMode::kHostStack;
    std::string vpc_id;
    // When true, Kata pods block before workload containers until the
    // enhanced kubeproxy has injected routing rules into the guest (the
    // init-container barrier of paper §III-B (4)).
    bool enforce_network_gate = false;
    Duration network_gate_timeout = Seconds(30);
    // Runtime per runtimeClassName; key "" is the default. If empty, a
    // MockRuntime is installed as the default (virtual-kubelet behaviour).
    std::map<std::string, std::shared_ptr<CriRuntime>> runtimes;
  };

  explicit Kubelet(Options opts);
  ~Kubelet();

  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  // Register event handlers on a shared pod informer. Must be called before
  // the informer starts.
  void AttachPodSource(client::SharedInformer<api::Pod>* source);

  // Creates/updates the Node object and starts workers + heartbeat.
  Status Start();
  void Stop();

  const std::string& node_name() const { return opts_.node_name; }
  const std::string& endpoint() const { return endpoint_; }
  const std::string& address() const { return address_; }

  // ------------------------------------------------------- kubelet API
  Result<std::string> Logs(const std::string& ns, const std::string& pod,
                           const std::string& container, int tail_lines = 0);
  Result<std::string> Exec(const std::string& ns, const std::string& pod,
                           const std::string& container,
                           const std::vector<std::string>& command);

  uint64_t pods_started() const { return pods_started_.load(); }
  size_t pods_running() const;
  uint64_t reconciles() const { return loop_.reconciles(); }
  const Histogram& start_latency() const { return start_latency_; }

 private:
  struct RunningPod {
    SandboxHandle sandbox;
    std::vector<ContainerHandle> containers;
    CriRuntime* runtime = nullptr;
    std::string uid;
  };

  // Returns true when terminal; false → retry with backoff.
  bool ReconcilePod(const std::string& key);
  Status StartPod(const api::Pod& pod);
  void TeardownPod(const std::string& key);
  CriRuntime* RuntimeFor(const api::Pod& pod);
  Status UpdateNodeStatus(bool ready);

  Options opts_;
  client::SharedInformer<api::Pod>* source_ = nullptr;
  TimerHandle heartbeat_timer_;
  std::string address_;
  std::string endpoint_;

  mutable std::mutex pods_mu_;
  std::map<std::string, RunningPod> running_;  // key = ns/name

  std::atomic<uint64_t> pods_started_{0};
  Histogram start_latency_;

  // Pod workers: opts_.workers in flight, one FIFO (no key_tenant), and a
  // Pod whose start failed retries with per-Pod backoff.
  controllers::Reconciler loop_;  // last: drains before members above die
};

// Hosts many kubelets that share one pod informer against one apiserver —
// the shape of the paper's 100-virtual-kubelet super cluster.
class KubeletFleet {
 public:
  KubeletFleet(apiserver::APIServer* server, Clock* clock);
  ~KubeletFleet();

  // All kubelets must be added before Start().
  Kubelet* Add(Kubelet::Options opts);
  Status Start();
  void Stop();

  const std::vector<std::unique_ptr<Kubelet>>& kubelets() const { return kubelets_; }

 private:
  apiserver::APIServer* server_;
  std::unique_ptr<client::SharedInformer<api::Pod>> pod_informer_;
  std::vector<std::unique_ptr<Kubelet>> kubelets_;
  bool started_ = false;
};

}  // namespace vc::kubelet
