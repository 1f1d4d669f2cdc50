#include <gtest/gtest.h>

#include "kubelet/kubelet.h"
#include "manual_time.h"

namespace vc::kubelet {
namespace {

using api::Pod;
using apiserver::APIServer;

Pod BoundPod(const std::string& name, const std::string& node,
             const std::string& runtime = "") {
  Pod p;
  p.meta.ns = "default";
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "nginx:1.19";
  p.spec.containers.push_back(c);
  p.spec.node_name = node;
  p.spec.runtime_class = runtime;
  return p;
}

struct Harness {
  Harness(int nodes = 1, bool mock = true,
          net::PodNetworkMode mode = net::PodNetworkMode::kHostStack,
          bool gate = false) {
    server = std::make_unique<APIServer>(apiserver::APIServer::Options{});
    fleet = std::make_unique<KubeletFleet>(server.get(), RealClock::Get());
    for (int i = 0; i < nodes; ++i) {
      Kubelet::Options ko;
      ko.server = server.get();
      ko.node_name = "node-" + std::to_string(i);
      ko.fabric = &fabric;
      ko.heartbeat_period = Millis(100);
      ko.network_mode = mode;
      ko.enforce_network_gate = gate;
      ko.network_gate_timeout = Millis(300);
      if (mock) {
        ko.runtimes[""] = std::make_shared<MockRuntime>(RealClock::Get(), &fabric);
      } else {
        ko.runtimes[""] = std::make_shared<RuncRuntime>(RealClock::Get(), &fabric);
        ko.runtimes["kata"] = std::make_shared<KataRuntime>(RealClock::Get(), &fabric);
      }
      fleet->Add(std::move(ko));
    }
    EXPECT_TRUE(fleet->Start().ok());
  }
  ~Harness() { fleet->Stop(); }

  Result<Pod> WaitReady(const std::string& name, Duration timeout = Seconds(10)) {
    Stopwatch sw(RealClock::Get());
    for (;;) {
      Result<Pod> p = server->Get<Pod>("default", name);
      if (p.ok() && p->status.Ready()) return p;
      if (sw.Elapsed() > timeout) {
        return TimeoutError("pod " + name + " never ready");
      }
      RealClock::Get()->SleepFor(Millis(2));
    }
  }

  std::unique_ptr<APIServer> server;
  net::NetworkFabric fabric;
  std::unique_ptr<KubeletFleet> fleet;
};

TEST(KubeletTest, RegistersNodeObjectWithEndpoint) {
  Harness h;
  Result<api::Node> node = h.server->Get<api::Node>("", "node-0");
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_TRUE(node->status.Ready());
  EXPECT_FALSE(node->status.address.empty());
  EXPECT_TRUE(EndsWith(node->status.kubelet_endpoint, ":10250"));
  EXPECT_EQ(node->status.capacity.cpu_milli, 96000);
  // Endpoint resolves through the registry.
  EXPECT_NE(KubeletRegistry::Get().Lookup(node->status.kubelet_endpoint), nullptr);
}

TEST(KubeletTest, StartsBoundPodAndReportsStatus) {
  Harness h;
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-0")).ok());
  Result<Pod> p = h.WaitReady("web-0");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->status.phase, api::PodPhase::kRunning);
  EXPECT_FALSE(p->status.pod_ip.empty());
  EXPECT_FALSE(p->status.host_ip.empty());
  EXPECT_GT(p->status.start_time_ms, 0);
  ASSERT_EQ(p->status.container_statuses.size(), 1u);
  EXPECT_TRUE(p->status.container_statuses[0].ready);
  EXPECT_TRUE(p->status.FindCondition(api::kPodInitialized)->status);
  // The pod is on the network.
  EXPECT_TRUE(h.fabric.FindPodByIp(p->status.pod_ip).has_value());
}

TEST(KubeletTest, IgnoresPodsForOtherNodes) {
  Harness h(2);
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-1")).ok());
  ASSERT_TRUE(h.WaitReady("web-0").ok());
  EXPECT_EQ(h.fleet->kubelets()[0]->pods_running(), 0u);
  EXPECT_EQ(h.fleet->kubelets()[1]->pods_running(), 1u);
}

TEST(KubeletTest, DeletionTearsDownSandboxAndFreesIp) {
  Harness h;
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-0")).ok());
  Result<Pod> p = h.WaitReady("web-0");
  ASSERT_TRUE(p.ok());
  const std::string ip = p->status.pod_ip;
  ASSERT_TRUE(h.server->Delete<Pod>("default", "web-0").ok());
  for (int i = 0; i < 1000 && h.fabric.FindPodByIp(ip); ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_FALSE(h.fabric.FindPodByIp(ip).has_value());
  EXPECT_EQ(h.fleet->kubelets()[0]->pods_running(), 0u);
}

TEST(KubeletTest, PodWithMissingSecretWaitsThenStarts) {
  Harness h;
  Pod p = BoundPod("web-0", "node-0");
  p.spec.volumes.push_back({"v", "creds", "", ""});
  ASSERT_TRUE(h.server->Create(p).ok());
  RealClock::Get()->SleepFor(Millis(100));
  EXPECT_FALSE(h.server->Get<Pod>("default", "web-0")->status.Ready());
  api::Secret sec;
  sec.meta.ns = "default";
  sec.meta.name = "creds";
  ASSERT_TRUE(h.server->Create(sec).ok());
  EXPECT_TRUE(h.WaitReady("web-0", Seconds(15)).ok());
}

// Destroying a kubelet with a missing-secret Pod's retry armed cancels it,
// and the delay an informer event superseded too: nothing runs after
// destruction (ASan/TSan via the concurrency label). The kubelet's clock is
// manual, so a retry fires only when the test says.
TEST(KubeletTest, DestroyWithRetryArmedRunsNothingAfter) {
  ManualClock clock;
  // Held past the kubelet, so its timers could still fire into it.
  std::shared_ptr<Executor> exec = Executor::SharedFor(&clock);
  APIServer server({});
  net::NetworkFabric fabric;
  auto fleet = std::make_unique<KubeletFleet>(&server, RealClock::Get());
  Kubelet::Options ko;
  ko.node_name = "node-0";
  ko.clock = &clock;
  ko.fabric = &fabric;
  ko.runtimes[""] = std::make_shared<MockRuntime>(RealClock::Get(), &fabric);
  fleet->Add(std::move(ko));
  ASSERT_TRUE(fleet->Start().ok());

  Pod p = BoundPod("web-0", "node-0");
  p.spec.volumes.push_back({"v", "creds", "", ""});
  const uint64_t gets = server.stats().gets.load();
  // Each start attempt reads the missing secret (the only Get) and fails.
  auto wait_attempts = [&](uint64_t n) {
    for (int i = 0; i < 2500 && server.stats().gets.load() < gets + n; ++i) {
      RealClock::Get()->SleepFor(Millis(2));
    }
    Settle(&clock);
    return server.stats().gets.load() == gets + n;
  };
  Result<Pod> created = server.Create(p);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(wait_attempts(1));  // retry due at +10 ms
  created->meta.labels["touched"] = "1";
  ASSERT_TRUE(server.Update(*created).ok());  // no Get: the count stays exact
  ASSERT_TRUE(wait_attempts(2));  // the +10 ms delay is superseded; retry at +20 ms

  fleet.reset();
  AdvanceAndSettle(&clock, Millis(50));  // past both delays
  EXPECT_EQ(server.stats().gets.load(), gets + 2);
}

// An update that moves only status and resourceVersion, like the kubelet's
// own Ready write, is not reconciled; a label change, a deletion timestamp
// and a terminal phase are.
TEST(KubeletTest, ReconcilesOnlyUpdatesThatCanChangeTheOutcome) {
  Harness h;
  Kubelet* kubelet = h.fleet->kubelets()[0].get();
  auto wait_for = [](auto pred) {
    for (int i = 0; i < 5000 && !pred(); ++i) RealClock::Get()->SleepFor(Millis(2));
    return pred();
  };
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-0")).ok());
  Pod held = BoundPod("web-1", "node-0");
  held.meta.finalizers = {"test.example.com/hold"};  // Delete only marks it
  ASSERT_TRUE(h.server->Create(held).ok());
  Result<Pod> pod = h.WaitReady("web-0");
  ASSERT_TRUE(pod.ok());
  ASSERT_TRUE(h.WaitReady("web-1").ok());
  RealClock::Get()->SleepFor(Millis(50));  // the Ready echoes reach the informer
  const uint64_t reconciles = kubelet->reconciles();

  pod->status.message = "foreign";
  Result<Pod> status_only = h.server->UpdateStatus(*pod);
  ASSERT_TRUE(status_only.ok());
  RealClock::Get()->SleepFor(Millis(50));
  EXPECT_EQ(kubelet->reconciles(), reconciles);

  status_only->meta.labels["tier"] = "gold";
  Result<Pod> relabeled = h.server->Update(*status_only);
  ASSERT_TRUE(relabeled.ok());
  EXPECT_TRUE(wait_for([&] { return kubelet->reconciles() == reconciles + 1; }));
  EXPECT_EQ(kubelet->pods_running(), 2u);

  ASSERT_TRUE(h.server->Delete<Pod>("default", "web-1").ok());
  EXPECT_TRUE(wait_for([&] { return kubelet->pods_running() == 1; }));

  relabeled->status.phase = api::PodPhase::kFailed;
  ASSERT_TRUE(h.server->UpdateStatus(*relabeled).ok());
  EXPECT_TRUE(wait_for([&] { return kubelet->pods_running() == 0; }));
}

TEST(KubeletTest, UnboundPvcBlocksPodUntilBound) {
  Harness h;
  api::PersistentVolumeClaim pvc;
  pvc.meta.ns = "default";
  pvc.meta.name = "data";
  pvc.request_bytes = 1 << 20;
  Result<api::PersistentVolumeClaim> created = h.server->Create(pvc);
  ASSERT_TRUE(created.ok());
  Pod p = BoundPod("db-0", "node-0");
  p.spec.volumes.push_back({"v", "", "", "data"});
  ASSERT_TRUE(h.server->Create(p).ok());
  RealClock::Get()->SleepFor(Millis(100));
  EXPECT_FALSE(h.server->Get<Pod>("default", "db-0")->status.Ready());
  created->phase = "Bound";
  created->volume_name = "pv-1";
  ASSERT_TRUE(h.server->Update(*created).ok());
  EXPECT_TRUE(h.WaitReady("db-0", Seconds(15)).ok());
}

TEST(KubeletTest, LogsAndExec) {
  Harness h;
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-0")).ok());
  ASSERT_TRUE(h.WaitReady("web-0").ok());
  Kubelet* kl = h.fleet->kubelets()[0].get();
  Result<std::string> logs = kl->Logs("default", "web-0", "app");
  ASSERT_TRUE(logs.ok()) << logs.status();
  EXPECT_NE(logs->find("pulled image nginx:1.19"), std::string::npos);
  EXPECT_NE(logs->find("container app started"), std::string::npos);
  // Tail limiting.
  Result<std::string> tail = kl->Logs("default", "web-0", "app", 1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->find("pulled image"), std::string::npos);
  // Exec round trip + errors.
  Result<std::string> exec = kl->Exec("default", "web-0", "app", {"ls", "/"});
  ASSERT_TRUE(exec.ok());
  EXPECT_NE(exec->find("ls /"), std::string::npos);
  EXPECT_TRUE(kl->Logs("default", "ghost", "app").status().IsNotFound());
  EXPECT_TRUE(kl->Logs("default", "web-0", "ghost").status().IsNotFound());
}

TEST(KubeletTest, HeartbeatAdvances) {
  Harness h;
  int64_t first = h.server->Get<api::Node>("", "node-0")->status.last_heartbeat_ms;
  for (int i = 0; i < 2000; ++i) {
    int64_t now = h.server->Get<api::Node>("", "node-0")->status.last_heartbeat_ms;
    if (now > first) return;
    RealClock::Get()->SleepFor(Millis(2));
  }
  FAIL() << "heartbeat never advanced";
}

TEST(KubeletTest, InitContainersRunBeforeWorkload) {
  Harness h(1, /*mock=*/false);
  Pod p = BoundPod("init-0", "node-0", "runc");
  api::Container init;
  init.name = "setup";
  init.image = "busybox";
  p.spec.init_containers.push_back(init);
  ASSERT_TRUE(h.server->Create(p).ok());
  ASSERT_TRUE(h.WaitReady("init-0", Seconds(15)).ok());
  Result<std::string> logs = h.fleet->kubelets()[0]->Logs("default", "init-0", "setup");
  ASSERT_TRUE(logs.ok());
  EXPECT_NE(logs->find("container setup started"), std::string::npos);
  EXPECT_NE(logs->find("container setup stopped"), std::string::npos);
}

TEST(KubeletTest, KataPodGetsGuestAgent) {
  Harness h(1, /*mock=*/false, net::PodNetworkMode::kVpc);
  ASSERT_TRUE(h.server->Create(BoundPod("kata-0", "node-0", "kata")).ok());
  Result<Pod> p = h.WaitReady("kata-0", Seconds(15));
  ASSERT_TRUE(p.ok()) << p.status();
  std::optional<net::PodEndpoint> ep = h.fabric.FindPodByIp(p->status.pod_ip);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->mode, net::PodNetworkMode::kVpc);
  ASSERT_NE(ep->guest, nullptr);
  EXPECT_EQ(h.fabric.GuestsOnNode("node-0").size(), 1u);
}

TEST(KubeletTest, NetworkGateTimesOutWithoutKubeproxy) {
  // With the gate enforced and no enhanced kubeproxy injecting rules, a Kata
  // pod must NOT reach Ready (the init barrier never opens).
  Harness h(1, /*mock=*/false, net::PodNetworkMode::kVpc, /*gate=*/true);
  ASSERT_TRUE(h.server->Create(BoundPod("kata-0", "node-0", "kata")).ok());
  Result<Pod> p = h.WaitReady("kata-0", Millis(600));
  EXPECT_FALSE(p.ok());
}

TEST(KubeletTest, NetworkGateOpensWhenAgentSignalled) {
  Harness h(1, /*mock=*/false, net::PodNetworkMode::kVpc, /*gate=*/true);
  ASSERT_TRUE(h.server->Create(BoundPod("kata-0", "node-0", "kata")).ok());
  // Simulate the enhanced kubeproxy: wait for the guest, then mark ready.
  std::thread proxy([&] {
    for (int i = 0; i < 2000; ++i) {
      auto guests = h.fabric.GuestsOnNode("node-0");
      if (!guests.empty()) {
        guests[0]->MarkNetworkReady();
        return;
      }
      RealClock::Get()->SleepFor(Millis(2));
    }
  });
  Result<Pod> p = h.WaitReady("kata-0", Seconds(15));
  proxy.join();
  EXPECT_TRUE(p.ok()) << p.status();
}

TEST(KubeletTest, RestartCountsAreStable) {
  Harness h;
  ASSERT_TRUE(h.server->Create(BoundPod("web-0", "node-0")).ok());
  Result<Pod> p = h.WaitReady("web-0");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->status.container_statuses[0].restart_count, 0);
  // pods_started() increments after the Ready status write becomes visible,
  // so give the worker a moment instead of asserting instantly.
  for (int i = 0; i < 500 && h.fleet->kubelets()[0]->pods_started() < 1; ++i) {
    RealClock::Get()->SleepFor(Millis(2));
  }
  EXPECT_EQ(h.fleet->kubelets()[0]->pods_started(), 1u);
}

}  // namespace
}  // namespace vc::kubelet
