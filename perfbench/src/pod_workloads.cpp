// The two Pod-path workloads, run against a full VirtualCluster deployment
// in intrinsic mode (every injected cost zero, mock runtime, 100 nodes):
//
//   pod_burst    — 32 tenants create all their Pods at once (paper Fig. 7/9);
//                  each Pod is timed from the start of its Create call until
//                  Ready is seen on the tenant watch.
//   tenant_flood — a few greedy tenants burst while the other tenants receive
//                  Pods on a fixed open-loop schedule (paper Fig. 11); regular
//                  Pods are timed from their due time.
//
// Threads: at most four benchmark threads (generators + one observer); the
// observer drains every watch the benchmark opened. Traced rounds add one
// watch per tenant on the mapped super namespace, so every Pod's phase
// boundaries (shadow Added, nodeName set, super Ready) are seen from outside.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "layers.h"
#include "report.h"
#include "vc/deployment.h"

namespace perfbench {
namespace {

using vc::core::TenantClient;
using vc::core::TenantControlPlane;
using vc::core::VcDeployment;
using PodWatch = vc::apiserver::TypedWatch<vc::api::Pod>;
using PodEvent = vc::apiserver::WatchEvent<vc::api::Pod>;

constexpr int kNodes = 100;
constexpr SteadyTime kUnset{};
constexpr int kMinRounds = 3;
// Wall-clock budget of one run; no round starts that could end past it.
constexpr double kRunBudgetS = 150;
constexpr double kRoundTimeoutS = 60;

struct Shape {
  int tenants = 32;
  int burst_generators = 3;
  int burst_pods_per_tenant = 0;  // pod_burst: every tenant bursts
  // tenant_flood
  int greedy_tenants = 0;
  int greedy_pods_per_tenant = 0;
  int regular_pods = 0;
  double regular_rate = 0;  // Pods/s over all regular tenants
};

struct PodRec {
  int tenant = 0;
  std::string name;
  bool regular = false;
  SteadyTime due{};
  SteadyTime create_start{};
  SteadyTime create_end{};
  bool create_ok = false;
  // Written only by the observer thread.
  SteadyTime tenant_added{};
  SteadyTime shadow_added{};
  SteadyTime bound{};
  SteadyTime super_ready{};
  SteadyTime tenant_ready{};
};

struct Plan {
  std::vector<std::string> tenant_ids;
  std::vector<PodRec> pods;
  std::vector<std::vector<int>> burst_lanes;  // per generator thread
  std::vector<int> regular_order;             // regular Pods in due order
};

// Names, tenant roles, creation order and generator lanes all come from the
// seed; the program only ever sees the generated Pods.
Plan MakePlan(const Shape& s, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Plan p;
  const std::string tag = Hex(rng(), 6);
  for (int t = 0; t < s.tenants; ++t) {
    p.tenant_ids.push_back("t" + tag + "-" + std::to_string(100 + t).substr(1));
  }
  std::vector<int> roles(static_cast<size_t>(s.tenants));
  std::iota(roles.begin(), roles.end(), 0);
  std::shuffle(roles.begin(), roles.end(), rng);

  auto add_pod = [&](int tenant, int i, bool regular) {
    PodRec rec;
    rec.tenant = tenant;
    rec.name = "p" + Hex(rng(), 8) + "-" + std::to_string(i);
    rec.regular = regular;
    p.pods.push_back(std::move(rec));
    return static_cast<int>(p.pods.size()) - 1;
  };
  std::vector<int> burst;
  const bool flood = s.greedy_tenants > 0;
  const int bursting = flood ? s.greedy_tenants : s.tenants;
  const int per_tenant = flood ? s.greedy_pods_per_tenant : s.burst_pods_per_tenant;
  for (int r = 0; r < bursting; ++r) {
    for (int i = 0; i < per_tenant; ++i) burst.push_back(add_pod(roles[r], i, false));
  }
  std::shuffle(burst.begin(), burst.end(), rng);
  p.burst_lanes.resize(static_cast<size_t>(s.burst_generators));
  for (size_t k = 0; k < burst.size(); ++k) {
    p.burst_lanes[k % p.burst_lanes.size()].push_back(burst[k]);
  }
  if (flood) {
    const int regular_tenants = s.tenants - s.greedy_tenants;
    for (int k = 0; k < s.regular_pods; ++k) {
      const int tenant = roles[static_cast<size_t>(s.greedy_tenants + k % regular_tenants)];
      p.regular_order.push_back(add_pod(tenant, k / regular_tenants, true));
    }
  }
  return p;
}

vc::api::Pod MakePod(const std::string& name) {
  vc::api::Pod pod;
  pod.meta.ns = "default";
  pod.meta.name = name;
  vc::api::Container c;
  c.name = "app";
  c.image = "bench:latest";
  pod.spec.containers.push_back(c);
  return pod;
}

std::unique_ptr<VcDeployment> IntrinsicDeployment() {
  VcDeployment::Options o;
  o.super.num_nodes = kNodes;
  o.super.mock_runtime = true;
  o.super.sched_cost = vc::scheduler::CostModel{vc::Duration::zero(), vc::Duration::zero(),
                                                vc::Duration::zero()};
  o.super.apiserver_latency = vc::Duration::zero();
  o.super.vn_agents = false;  // not on the Pod-creation path
  o.super.kubelet_workers = 1;
  o.super.kubelet_heartbeat = vc::Seconds(5);
  o.downward_op_cost = vc::Duration::zero();
  o.upward_op_cost = vc::Duration::zero();
  o.periodic_scan = false;
  o.heartbeat_broadcast_period = vc::Seconds(30);
  o.local_provision_delay = vc::Duration::zero();
  o.tenant_controllers = false;
  return std::make_unique<VcDeployment>(std::move(o));
}

// Accumulated over the traced rounds of one run.
struct PodLayers {
  double pods = 0;      // Pods Ready in traced windows
  double window_s = 0;  // summed traced windows
  Samples down_ms, up_ms, bind_ms, start_ms, lag_us, create_us;
  Samples dws_queue_ms, dws_process_ms, uws_queue_ms, uws_process_ms;
  Samples cycle_ms, kubelet_busy_ms;
  Samples band_wait_us[vc::apiserver::kNumBands];
  Samples band_exec_us[vc::apiserver::kNumBands];
  Samples late_ms;
  double syncer_cpu_s = 0;
  double down_creates = 0, down_reconciles = 0;
  double queue_max = 0;
  double sched_busy_s = 0, sched_failed = 0;
  double super_verbs[6] = {0, 0, 0, 0, 0, 0};
  double conflicts = 0, reconciles = 0, retries = 0, relists = 0;
  double cache_served = 0, reads = 0;
  double decoded = 0, lists = 0;
  double commits = 0, log_bytes = 0, cache_bytes = 0;
  double tasks = 0, threads = 0;
};

constexpr const char* kSuperVerbs[6] = {"creates", "gets",    "lists",
                                        "updates", "deletes", "watches"};

// One round: fresh deployment and tenants (set-up), the measured window,
// then the correctness checks and teardown.
class PodRound {
 public:
  PodRound(const Shape& shape, uint64_t seed, bool traced)
      : shape_(shape), plan_(MakePlan(shape, seed)), seed_(seed), traced_(traced) {}

  ~PodRound() { Teardown(); }

  PodRound(const PodRound&) = delete;
  PodRound& operator=(const PodRound&) = delete;

  // Returns false (after recording a mismatch) when set-up fails.
  bool Setup(Report* report, double* setup_s) {
    const SteadyTime start = SteadyClock::now();
    deploy_ = IntrinsicDeployment();
    vc::Status st = deploy_->Start();
    if (!st.ok() || !deploy_->WaitForSync(vc::Seconds(60))) {
      report->Mismatch("deployment failed to start: " + st.ToString());
      return false;
    }
    for (const std::string& id : plan_.tenant_ids) {
      vc::Result<std::shared_ptr<TenantControlPlane>> tcp =
          deploy_->CreateTenant(id, /*weight=*/1, "Local", vc::Seconds(60));
      if (!tcp.ok()) {
        report->Mismatch("tenant " + id + " not provisioned: " + tcp.status().ToString());
        return false;
      }
      tcps_.push_back(*tcp);
    }
    if (!deploy_->WaitForSync(vc::Seconds(60))) {
      report->Mismatch("deployment did not sync after provisioning");
      return false;
    }
    index_.resize(tcps_.size());
    for (size_t i = 0; i < plan_.pods.size(); ++i) {
      index_[static_cast<size_t>(plan_.pods[i].tenant)][plan_.pods[i].name] = static_cast<int>(i);
    }
    for (size_t t = 0; t < tcps_.size(); ++t) {
      if (!OpenWatch(tcps_[t]->server(), "default", &tenant_watches_, report)) return false;
      if (traced_) {
        const std::string super_ns =
            deploy_->syncer().MappingOf(plan_.tenant_ids[t]).SuperNamespace("default");
        if (!OpenWatch(super_server(), super_ns, &super_watches_, report)) return false;
      }
    }
    *setup_s = std::chrono::duration<double>(SteadyClock::now() - start).count();
    return true;
  }

  // The measured window: generators create the planned Pods while the
  // observer waits for every one of them to be Ready on its tenant watch.
  void Measure(SteadyTime deadline, Report* report, RoundResult* out, PodLayers* layers) {
    LayerBaseline base;
    if (traced_) base = TakeBaseline();
    const double cpu0 = ProcessCpuSeconds();
    const SteadyTime t0 = SteadyClock::now();

    std::atomic<int> failed_creates{0};
    std::thread observer([&] { Observe(deadline, failed_creates); });
    std::vector<std::thread> generators;
    for (const std::vector<int>& lane : plan_.burst_lanes) {
      generators.emplace_back([&, lane_ptr = &lane] {
        for (int idx : *lane_ptr) Create(&plan_.pods[static_cast<size_t>(idx)], failed_creates);
      });
    }
    if (!plan_.regular_order.empty()) {
      generators.emplace_back([&] {
        const double period_s = 1.0 / shape_.regular_rate;
        for (size_t k = 0; k < plan_.regular_order.size(); ++k) {
          PodRec& rec = plan_.pods[static_cast<size_t>(plan_.regular_order[k])];
          rec.due = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double>(period_s * static_cast<double>(k)));
          std::this_thread::sleep_until(rec.due);
          Create(&rec, failed_creates);
        }
      });
    }
    for (std::thread& g : generators) g.join();
    observer.join();
    const double cpu_s = ProcessCpuSeconds() - cpu0;

    // ---- end-to-end
    const bool flood = shape_.greedy_tenants > 0;
    size_t ready = 0, measured_ready = 0;
    SteadyTime last_measured = t0;
    Samples late_ms;
    for (const PodRec& rec : plan_.pods) {
      report->Attempt();
      if (!rec.create_ok || rec.tenant_ready == kUnset) {
        report->Failed();
        continue;
      }
      ready++;
      out->write_us.Add(MicrosBetween(rec.create_start, rec.create_end));
      if (rec.regular) {
        out->latency_ms.Add(MillisBetween(rec.due, rec.tenant_ready));
        late_ms.Add(MillisBetween(rec.due, rec.create_start));
      } else {
        measured_ready++;
        last_measured = std::max(last_measured, rec.tenant_ready);
        if (!flood) out->latency_ms.Add(MillisBetween(rec.create_start, rec.tenant_ready));
      }
    }
    const double window_s = std::chrono::duration<double>(last_measured - t0).count();
    out->ops_per_s = Ratio(static_cast<double>(measured_ready), window_s);
    out->cpu_ms_per_op = Ratio(cpu_s * 1000.0, static_cast<double>(ready));
    window_s_ = window_s;
    if (flood) {
      SteadyTime last_due = t0;
      for (int idx : plan_.regular_order) {
        last_due = std::max(last_due, plan_.pods[static_cast<size_t>(idx)].due);
      }
      report->Note("tenant_flood: generator late p99 " + std::to_string(late_ms.Pct(99)) +
                   " ms, max " + std::to_string(late_ms.Max()) + " ms; greedy backlog " +
                   (last_measured >= last_due ? "covered" : "did NOT cover") +
                   " the regular window");
      // An open-loop generator that cannot keep its schedule measures its own
      // lag, not the system: such a run is invalid.
      if (late_ms.Pct(99) > kMaxLateP99Ms) {
        report->Mismatch("open-loop generator fell behind its schedule (late p99 " +
                         std::to_string(late_ms.Pct(99)) + " ms)");
      }
    }
    report->Note("round: " + std::to_string(ready) + "/" + std::to_string(plan_.pods.size()) +
                 " Pods Ready, window " + std::to_string(window_s) + " s, cpu " +
                 std::to_string(cpu_s) + " s");
    if (traced_) CollectLayers(base, window_s, static_cast<double>(ready), late_ms, layers);
  }

  // Every planned Pod is Ready in its tenant, its shadow exists in the mapped
  // super namespace bound to a real node, and the counts match exactly.
  void Check(bool fault, Report* report) {
    if (fault) {
      // Seeded mismatch: one tenant Pod disappears behind the benchmark's back.
      const PodRec& victim = plan_.pods[SplitMix(seed_) % plan_.pods.size()];
      vc::Status st = tcps_[static_cast<size_t>(victim.tenant)]->server().Delete<vc::api::Pod>(
          "default", victim.name);
      report->Note("fault: deleted tenant Pod " + victim.name + ": " + st.ToString());
    }
    std::set<std::string> nodes;
    auto node_list = deploy_->super().server().List<vc::api::Node>();
    if (node_list.ok()) {
      for (const vc::api::Node& n : node_list->items) nodes.insert(n.meta.name);
    }
    if (nodes.size() != kNodes) report->Mismatch("super cluster lists " +
                                                 std::to_string(nodes.size()) + " nodes");
    for (size_t t = 0; t < tcps_.size(); ++t) {
      std::set<std::string> expected;
      for (const PodRec& rec : plan_.pods) {
        if (rec.tenant == static_cast<int>(t) && rec.create_ok) expected.insert(rec.name);
      }
      const std::string& id = plan_.tenant_ids[t];
      vc::apiserver::ListOptions tenant_opts;
      tenant_opts.ns = "default";
      auto tenant_pods = tcps_[t]->server().List<vc::api::Pod>(tenant_opts);
      if (!tenant_pods.ok()) {
        report->Mismatch(id + ": tenant list failed: " + tenant_pods.status().ToString());
        continue;
      }
      if (tenant_pods->items.size() != expected.size()) {
        report->Mismatch(id + ": tenant has " + std::to_string(tenant_pods->items.size()) +
                         " Pods, expected " + std::to_string(expected.size()));
      }
      for (const vc::api::Pod& pod : tenant_pods->items) {
        if (!expected.count(pod.meta.name)) report->Mismatch(id + ": unexpected Pod " + pod.meta.name);
        if (!pod.status.Ready()) report->Mismatch(id + ": Pod " + pod.meta.name + " not Ready");
      }
      vc::apiserver::ListOptions super_opts;
      super_opts.ns = deploy_->syncer().MappingOf(id).SuperNamespace("default");
      auto shadows = deploy_->super().server().List<vc::api::Pod>(super_opts);
      if (!shadows.ok()) {
        report->Mismatch(id + ": super list failed: " + shadows.status().ToString());
        continue;
      }
      if (shadows->items.size() != expected.size()) {
        report->Mismatch(id + ": " + std::to_string(shadows->items.size()) +
                         " shadows in " + super_opts.ns + ", expected " +
                         std::to_string(expected.size()));
      }
      for (const vc::api::Pod& pod : shadows->items) {
        if (!expected.count(pod.meta.name)) {
          report->Mismatch(id + ": unexpected shadow " + pod.meta.name);
        }
        if (!nodes.count(pod.spec.node_name)) {
          report->Mismatch(id + ": shadow " + pod.meta.name + " bound to '" +
                           pod.spec.node_name + "'");
        }
      }
    }
  }

  double window_s() const { return window_s_; }

  void Teardown() {
    for (PodWatch& w : tenant_watches_) CloseWatch(&w);
    for (PodWatch& w : super_watches_) CloseWatch(&w);
    tenant_watches_.clear();
    super_watches_.clear();
    if (deploy_) deploy_->Stop();
    tcps_.clear();
    deploy_.reset();
  }

 private:
  static constexpr double kMaxLateP99Ms = 100;

  struct LayerBaseline {
    Snapshot registry;
    vc::Duration syncer_cpu{};
    size_t bind_samples = 0;
    uint64_t sched_failed = 0;
    std::vector<size_t> kubelet_samples;
    size_t band_wait[vc::apiserver::kNumBands] = {};
    size_t band_exec[vc::apiserver::kNumBands] = {};
    int64_t revisions = 0;
    uint64_t decoded = 0;
    uint64_t tasks = 0;
  };

  bool OpenWatch(vc::apiserver::APIServer& server, const std::string& ns,
                 std::vector<PodWatch>* out, Report* report) {
    vc::apiserver::WatchOptions wo;
    wo.ns = ns;
    wo.from_revision = server.store().CurrentRevision();
    auto w = server.Watch<vc::api::Pod>(wo);
    if (!w.ok()) {
      report->Mismatch("watch on " + server.name() + "/" + ns + " failed: " + w.status().ToString());
      return false;
    }
    w->SetSignal([this] {
      {
        std::lock_guard<std::mutex> l(signal_mu_);
        signalled_ = true;
      }
      signal_cv_.notify_one();
    });
    out->push_back(std::move(*w));
    return true;
  }

  static void CloseWatch(PodWatch* w) {
    w->SetSignal(nullptr);
    w->Cancel();
  }

  void Create(PodRec* rec, std::atomic<int>& failed_creates) {
    TenantClient client(tcps_[static_cast<size_t>(rec->tenant)].get());
    rec->create_start = SteadyClock::now();
    vc::Result<vc::api::Pod> r = client.Create(MakePod(rec->name));
    rec->create_end = SteadyClock::now();
    rec->create_ok = r.ok();
    if (!r.ok()) {
      failed_creates.fetch_add(1);
      std::fprintf(stderr, "create %s failed: %s\n", rec->name.c_str(),
                   r.status().ToString().c_str());
    }
  }

  // Drains every watch until each planned Pod is Ready or failed to create,
  // or the deadline passes.
  void Observe(SteadyTime deadline, const std::atomic<int>& failed_creates) {
    const size_t total = plan_.pods.size();
    size_t ready = 0;
    SteadyTime next_sample = kUnset;
    while (ready + static_cast<size_t>(failed_creates.load()) < total &&
           SteadyClock::now() < deadline) {
      {
        std::unique_lock<std::mutex> l(signal_mu_);
        signal_cv_.wait_for(l, std::chrono::milliseconds(5), [this] { return signalled_; });
        signalled_ = false;
      }
      for (size_t t = 0; t < tenant_watches_.size(); ++t) {
        Drain(&tenant_watches_[t], [&](const PodEvent& ev, SteadyTime now) {
          PodRec* rec = Find(t, ev.object.meta.name);
          if (rec == nullptr) return;
          if (rec->tenant_added == kUnset) rec->tenant_added = now;
          if (rec->tenant_ready == kUnset && ev.object.status.Ready()) {
            rec->tenant_ready = now;
            ready++;
          }
        });
      }
      for (size_t t = 0; t < super_watches_.size(); ++t) {
        Drain(&super_watches_[t], [&](const PodEvent& ev, SteadyTime now) {
          PodRec* rec = Find(t, ev.object.meta.name);
          if (rec == nullptr) return;
          if (rec->shadow_added == kUnset) rec->shadow_added = now;
          if (rec->bound == kUnset && !ev.object.spec.node_name.empty()) rec->bound = now;
          if (rec->super_ready == kUnset && ev.object.status.Ready()) rec->super_ready = now;
        });
      }
      if (traced_) {
        const SteadyTime now = SteadyClock::now();
        if (now >= next_sample) {
          queue_max_ = std::max(queue_max_, deploy_->syncer().DownwardQueueLen());
          next_sample = now + std::chrono::milliseconds(5);
        }
      }
    }
  }

  template <typename Fn>
  void Drain(PodWatch* w, Fn&& fn) {
    for (;;) {
      vc::Result<PodEvent> ev = w->TryNext();
      if (!ev.ok()) {
        if (ev.status().code() != vc::Code::kTimeout && !watch_died_) {
          watch_died_ = true;
          std::fprintf(stderr, "watch died: %s\n", ev.status().ToString().c_str());
        }
        return;
      }
      if (ev->type == PodEvent::Type::kPut) fn(*ev, SteadyClock::now());
    }
  }

  PodRec* Find(size_t tenant, const std::string& name) {
    auto it = index_[tenant].find(name);
    return it == index_[tenant].end() ? nullptr : &plan_.pods[static_cast<size_t>(it->second)];
  }

  vc::apiserver::APIServer& super_server() { return deploy_->super().server(); }

  uint64_t TotalDecodedBytes() {
    uint64_t total = super_server().stats().list_bytes_decoded.load();
    for (const auto& tcp : tcps_) total += tcp->server().stats().list_bytes_decoded.load();
    return total;
  }

  int64_t TotalRevisions() {
    int64_t total = super_server().store().CurrentRevision();
    for (const auto& tcp : tcps_) total += tcp->server().store().CurrentRevision();
    return total;
  }

  LayerBaseline TakeBaseline() {
    LayerBaseline b;
    deploy_->syncer().metrics().ResetHistograms();
    b.registry = TakeSnapshot();
    b.syncer_cpu = deploy_->syncer().WorkerCpuTime();
    vc::scheduler::Scheduler* sched = deploy_->super().sched();
    b.bind_samples = sched->bind_latency().Count();
    b.sched_failed = sched->failed_attempts();
    for (const auto& kl : deploy_->super().fleet().kubelets()) {
      b.kubelet_samples.push_back(kl->start_latency().Count());
    }
    for (int band = 0; band < vc::apiserver::kNumBands; ++band) {
      auto stats = super_server().dispatcher().Stats(static_cast<vc::apiserver::PriorityBand>(band));
      b.band_wait[band] = stats.queue_wait.Count();
      b.band_exec[band] = stats.exec.Count();
    }
    b.revisions = TotalRevisions();
    b.decoded = TotalDecodedBytes();
    b.tasks = vc::Executor::Default()->tasks_run();
    return b;
  }

  void CollectLayers(const LayerBaseline& b, double window_s, double ready,
                     const Samples& late_ms, PodLayers* out) {
    const Snapshot after = TakeSnapshot();
    out->pods += ready;
    out->window_s += window_s;
    for (const PodRec& rec : plan_.pods) {
      if (rec.tenant_ready == kUnset) continue;
      if (rec.shadow_added != kUnset) out->down_ms.Add(MillisBetween(rec.create_end, rec.shadow_added));
      if (rec.super_ready != kUnset) out->up_ms.Add(MillisBetween(rec.super_ready, rec.tenant_ready));
      if (rec.bound != kUnset && rec.shadow_added != kUnset) {
        out->bind_ms.Add(MillisBetween(rec.shadow_added, rec.bound));
      }
      if (rec.super_ready != kUnset && rec.bound != kUnset) {
        out->start_ms.Add(MillisBetween(rec.bound, rec.super_ready));
      }
      if (rec.tenant_added != kUnset) {
        out->lag_us.Add(std::max(0.0, MicrosBetween(rec.create_end, rec.tenant_added)));
      }
      out->create_us.Add(MicrosBetween(rec.create_start, rec.create_end));
    }
    out->late_ms.Append(late_ms);
    vc::core::SyncerMetrics& sm = deploy_->syncer().metrics();
    out->dws_queue_ms.Append(SliceOf(sm.dws_queue, 0, 1e3));
    out->dws_process_ms.Append(SliceOf(sm.dws_process, 0, 1e3));
    out->uws_queue_ms.Append(SliceOf(sm.uws_queue, 0, 1e3));
    out->uws_process_ms.Append(SliceOf(sm.uws_process, 0, 1e3));
    out->syncer_cpu_s += vc::ToSeconds(deploy_->syncer().WorkerCpuTime() - b.syncer_cpu);
    out->down_creates += DeltaSum(b.registry, after, "syncer", "downward_creates");
    out->down_reconciles += DeltaSum(b.registry, after, "syncer-downward", "reconciles");
    out->queue_max = std::max(out->queue_max, static_cast<double>(queue_max_));

    vc::scheduler::Scheduler* sched = deploy_->super().sched();
    Samples cycles = SliceOf(sched->bind_latency(), b.bind_samples, 1e3);
    out->sched_busy_s += cycles.Mean() * static_cast<double>(cycles.Count()) / 1e3;
    out->cycle_ms.Append(cycles);
    out->sched_failed += static_cast<double>(sched->failed_attempts() - b.sched_failed);
    const auto& kubelets = deploy_->super().fleet().kubelets();
    for (size_t k = 0; k < kubelets.size(); ++k) {
      out->kubelet_busy_ms.Append(SliceOf(kubelets[k]->start_latency(), b.kubelet_samples[k], 1e3));
    }
    for (int band = 0; band < vc::apiserver::kNumBands; ++band) {
      auto stats = super_server().dispatcher().Stats(static_cast<vc::apiserver::PriorityBand>(band));
      out->band_wait_us[band].Append(SliceOf(stats.queue_wait, b.band_wait[band], 1e6));
      out->band_exec_us[band].Append(SliceOf(stats.exec, b.band_exec[band], 1e6));
    }
    for (int v = 0; v < 6; ++v) {
      out->super_verbs[v] += DeltaSum(b.registry, after, "super-apiserver", kSuperVerbs[v]);
    }
    out->conflicts += DeltaSum(b.registry, after, "super-apiserver", "conflicts");
    out->reconciles += DeltaSum(b.registry, after, "", "reconciles");
    out->retries += DeltaSum(b.registry, after, "", "retries");
    // The benchmark lists nothing inside the window, so every List served by
    // the super or a tenant apiserver there is an informer relist.
    out->relists += DeltaSum(b.registry, after, "super-apiserver", "lists") +
                    DeltaSum(b.registry, after, "tenant-apiserver", "lists");
    out->cache_served += DeltaSum(b.registry, after, "super-apiserver", "cache_served_gets") +
                         DeltaSum(b.registry, after, "super-apiserver", "cache_served_lists");
    out->reads += DeltaSum(b.registry, after, "super-apiserver", "gets") +
                  DeltaSum(b.registry, after, "super-apiserver", "lists");
    out->lists += DeltaSum(b.registry, after, "super-apiserver", "lists") +
                  DeltaSum(b.registry, after, "tenant-apiserver", "lists");
    out->decoded += static_cast<double>(TotalDecodedBytes() - b.decoded);
    out->commits += static_cast<double>(TotalRevisions() - b.revisions);
    double log_bytes = static_cast<double>(super_server().store().LogBytes());
    for (const auto& tcp : tcps_) log_bytes += static_cast<double>(tcp->server().store().LogBytes());
    out->log_bytes = std::max(out->log_bytes, log_bytes);
    out->cache_bytes =
        std::max(out->cache_bytes, static_cast<double>(deploy_->syncer().InformerCacheBytes()));
    out->tasks += static_cast<double>(vc::Executor::Default()->tasks_run() - b.tasks);
    out->threads = std::max(out->threads, static_cast<double>(vc::Executor::Default()->threads()));
  }

  const Shape shape_;
  Plan plan_;
  const uint64_t seed_;
  const bool traced_;
  std::unique_ptr<VcDeployment> deploy_;
  std::vector<std::shared_ptr<TenantControlPlane>> tcps_;
  std::vector<std::unordered_map<std::string, int>> index_;  // per tenant: name -> Pod
  std::mutex signal_mu_;
  std::condition_variable signal_cv_;
  bool signalled_ = false;
  // Declared after the signal state their callbacks touch.
  std::vector<PodWatch> tenant_watches_;
  std::vector<PodWatch> super_watches_;
  size_t queue_max_ = 0;
  bool watch_died_ = false;
  double window_s_ = 0;
};

void EmitPodLayers(const PodLayers& l, Report* r) {
  const double pods = l.pods;
  r->Set("syncer.down_ms_p50", l.down_ms.Pct(50), "ms");
  r->Set("syncer.down_ms_p99", l.down_ms.Pct(99), "ms");
  r->Set("syncer.up_ms_p50", l.up_ms.Pct(50), "ms");
  r->Set("syncer.up_ms_p99", l.up_ms.Pct(99), "ms");
  r->Set("syncer.down_queue_ms_p50", l.dws_queue_ms.Pct(50), "ms");
  r->Set("syncer.down_process_ms_p50", l.dws_process_ms.Pct(50), "ms");
  r->Set("syncer.up_queue_ms_p50", l.uws_queue_ms.Pct(50), "ms");
  r->Set("syncer.up_process_ms_p50", l.uws_process_ms.Pct(50), "ms");
  r->Set("syncer.cpu_ms_per_pod", Ratio(l.syncer_cpu_s * 1e3, pods), "ms");
  r->Set("syncer.down_useful_ratio", Ratio(l.down_creates, l.down_reconciles), "ratio");
  r->Set("syncer.down_queue_max", l.queue_max, "count");
  r->Set("scheduler.bind_ms_p50", l.bind_ms.Pct(50), "ms");
  r->Set("scheduler.bind_ms_p99", l.bind_ms.Pct(99), "ms");
  r->Set("scheduler.cycle_ms_p50", l.cycle_ms.Pct(50), "ms");
  r->Set("scheduler.cycle_ms_p99", l.cycle_ms.Pct(99), "ms");
  r->Set("scheduler.busy_share", Ratio(l.sched_busy_s, l.window_s), "ratio");
  r->Set("scheduler.failed_attempts", l.sched_failed, "count");
  r->Set("kubelet.start_ms_p50", l.start_ms.Pct(50), "ms");
  r->Set("kubelet.start_ms_p99", l.start_ms.Pct(99), "ms");
  r->Set("kubelet.busy_ms_p50", l.kubelet_busy_ms.Pct(50), "ms");
  r->Set("apiserver.create_us_p50", l.create_us.Pct(50), "us");
  r->Set("apiserver.create_us_p99", l.create_us.Pct(99), "us");
  r->Set("apiserver.cache_served_ratio", Ratio(l.cache_served, l.reads), "ratio");
  for (int band = 0; band < vc::apiserver::kNumBands; ++band) {
    const std::string name = vc::apiserver::BandName(static_cast<vc::apiserver::PriorityBand>(band));
    r->Set("apiserver.dispatch_queue_wait_us_p99." + name, l.band_wait_us[band].Pct(99), "us");
    r->Set("apiserver.dispatch_exec_us_p99." + name, l.band_exec_us[band].Pct(99), "us");
  }
  for (int v = 0; v < 6; ++v) {
    r->Set(std::string("apiserver.super_") + kSuperVerbs[v] + "_per_pod",
           Ratio(l.super_verbs[v], pods), "count");
  }
  r->Set("apiserver.conflicts_per_pod", Ratio(l.conflicts, pods), "count");
  r->Set("watch.lag_us_p50", l.lag_us.Pct(50), "us");
  r->Set("watch.lag_us_p99", l.lag_us.Pct(99), "us");
  r->Set("kv.commits_per_op", Ratio(l.commits, pods), "count");
  r->Set("kv.log_mb", l.log_bytes / (1 << 20), "MiB");
  r->Set("api.decoded_bytes_per_list", Ratio(l.decoded, l.lists), "B");
  r->Set("client.informer_cache_mb", l.cache_bytes / (1 << 20), "MiB");
  r->Set("client.relists", l.relists, "count");
  r->Set("controllers.reconciles_per_pod", Ratio(l.reconciles, pods), "count");
  r->Set("controllers.retries_per_pod", Ratio(l.retries, pods), "count");
  r->Set("common.executor_tasks_per_op", Ratio(l.tasks, pods), "count");
  r->Set("common.executor_threads", l.threads, "count");
  r->Set("gen.late_p99_ms", l.late_ms.Pct(99), "ms");
  r->Set("gen.late_max_ms", l.late_ms.Max(), "ms");
}

// Round 0 warms the process up (executor threads, allocator, code paths)
// and is checked but not counted. Then rounds run until at least kMinRounds
// were counted and their windows add up to --seconds. A traced run pairs
// every counted round with a traced round on the same inputs, so their
// difference is the tracing overhead.
void RunPodWorkload(const Args& args, const Shape& shape, Report* report) {
  const SteadyTime run_start = SteadyClock::now();
  EndToEnd untraced, traced;
  PodLayers layers;
  double measured_s = 0;
  double longest_round_s = 0;
  for (int round = 0;; ++round) {
    const int counted = round - 1;
    if (counted >= kMinRounds && (args.smoke || measured_s >= args.seconds)) break;
    const double elapsed = std::chrono::duration<double>(SteadyClock::now() - run_start).count();
    if (counted >= 1 && elapsed + longest_round_s > kRunBudgetS) break;
    const uint64_t seed = SplitMix(args.seed * 1000003ull + static_cast<uint64_t>(round));
    // Paired rounds alternate which side runs first, so drift over the run
    // does not bias the overhead.
    const bool traced_first = round % 2 == 1;
    for (bool with_trace : {traced_first, !traced_first}) {
      if (with_trace && (!args.trace || round == 0)) continue;
      const SteadyTime round_start = SteadyClock::now();
      PodRound r(shape, seed, with_trace);
      RoundResult result;
      if (!r.Setup(report, &result.setup_s)) return;
      const SteadyTime deadline =
          std::min(SteadyClock::now() + std::chrono::seconds(static_cast<int>(kRoundTimeoutS)),
                   run_start + std::chrono::seconds(static_cast<int>(kRunBudgetS)));
      r.Measure(deadline, report, &result, &layers);
      r.Check(args.fault && round == 0, report);
      r.Teardown();
      if (round > 0) {
        (with_trace ? traced : untraced).rounds.push_back(std::move(result));
        if (!with_trace) measured_s += r.window_s();
      }
      longest_round_s = std::max(
          longest_round_s, std::chrono::duration<double>(SteadyClock::now() - round_start).count());
    }
  }
  if (args.trace) {
    SetLayerDefaults(report);
    EmitPodLayers(layers, report);
    EndToEnd::EmitOverhead(untraced, traced, report);
  } else {
    untraced.Emit(report);
  }
}

}  // namespace

void RunPodBurst(const Args& args, Report* report) {
  Shape s;
  s.burst_pods_per_tenant = args.smoke ? 4 : 125;
  if (args.smoke) s.tenants = 4;
  RunPodWorkload(args, s, report);
}

void RunTenantFlood(const Args& args, Report* report) {
  Shape s;
  s.burst_generators = 2;  // + one open-loop generator + the observer
  s.greedy_tenants = 4;
  s.greedy_pods_per_tenant = args.smoke ? 10 : 2000;
  s.regular_pods = args.smoke ? 20 : 500;
  s.regular_rate = args.smoke ? 50 : 100;
  if (args.smoke) s.tenants = 8;
  RunPodWorkload(args, s, report);
}

}  // namespace perfbench
