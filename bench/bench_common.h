// Shared harness for the paper-reproduction benchmarks (Figures 7-11,
// Table I, §IV-E). Builds calibrated VirtualCluster deployments and baseline
// clusters, drives the paper's workloads, and extracts the measurements.
//
// SCALE: the paper's testbed is two 96-core machines; this harness runs the
// whole distributed system in one process. Pod counts are scaled down 5x by
// default (250..2000 instead of 1250..10000) so the full suite completes in
// minutes; pass --paper to run the original sizes. Absolute seconds are not
// comparable to the paper — the reproduced targets are the SHAPES: who wins,
// by what factor, which phase dominates (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/histogram.h"
#include "common/strings.h"
#include "vc/deployment.h"

namespace vc::bench {

using core::TenantClient;
using core::TenantControlPlane;
using core::VcDeployment;

// Calibration constants — see EXPERIMENTS.md §Calibration for the derivation
// against the paper's reported ceilings (scheduler: a few hundred binds/s;
// VC ~21% throughput degradation; queue phases dominating the breakdown).
struct Calibration {
  Calibration() {
    sched.per_pod_base = Micros(500);
    sched.per_node_filter = Micros(5);
    sched.per_resident_pod = std::chrono::nanoseconds(120);
  }
  scheduler::CostModel sched;
  Duration downward_op_cost = Millis(22);
  Duration upward_op_cost = Millis(170);
  int nodes = 100;                   // paper: 100 virtual kubelets
};

struct RunConfig {
  int tenants = 100;
  int total_pods = 2000;           // equally divided among tenants
  int downward_workers = 20;       // paper default
  int upward_workers = 100;        // paper default
  bool fair_queuing = true;
  Calibration cal;
  std::string label;
};

struct RunResult {
  Histogram latency;           // per-pod creation time (s)
  double wall_seconds = 0;     // submit start → last pod ready
  double throughput = 0;       // pods / wall_seconds
  // Syncer phase histograms (VC runs only).
  Histogram dws_queue, dws_process, super_sched, uws_queue, uws_process;
  double syncer_cpu_seconds = 0;
  size_t peak_cache_bytes = 0;
  size_t cache_objects = 0;
  // Per-tenant mean latency (Fig. 11).
  std::map<std::string, double> per_tenant_mean;
};

inline api::Pod BenchPod(const std::string& ns, const std::string& name) {
  api::Pod p;
  p.meta.ns = ns;
  p.meta.name = name;
  api::Container c;
  c.name = "app";
  c.image = "bench:latest";
  p.spec.containers.push_back(c);
  return p;
}

// Builds a VC deployment with the calibrated cost model, `tenants` lean
// tenant control planes, and the paper's 100-node mock-kubelet super cluster.
inline std::unique_ptr<VcDeployment> BuildDeployment(const RunConfig& cfg) {
  VcDeployment::Options o;
  o.super.num_nodes = cfg.cal.nodes;
  o.super.sched_cost = cfg.cal.sched;
  o.super.kubelet_workers = 1;
  o.super.kubelet_heartbeat = Seconds(5);
  o.super.vn_agents = false;  // not exercised by the throughput benches
  o.downward_workers = cfg.downward_workers;
  o.upward_workers = cfg.upward_workers;
  o.fair_queuing = cfg.fair_queuing;
  o.downward_op_cost = cfg.cal.downward_op_cost;
  o.upward_op_cost = cfg.cal.upward_op_cost;
  o.periodic_scan = false;  // measured separately (fig10 harness)
  o.heartbeat_broadcast_period = Seconds(30);
  o.local_provision_delay = Millis(1);
  o.tenant_controllers = false;  // lean tenants for the large-scale runs
  auto deploy = std::make_unique<VcDeployment>(std::move(o));
  Status st = deploy->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "deployment start failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  deploy->WaitForSync(Seconds(60));
  return deploy;
}

inline std::string TenantName(int i) { return StrFormat("tenant-%03d", i); }

// Provisions cfg.tenants tenant control planes and returns their clients.
inline std::vector<std::shared_ptr<TenantControlPlane>> ProvisionTenants(
    VcDeployment& deploy, const RunConfig& cfg) {
  std::vector<std::shared_ptr<TenantControlPlane>> tcps(
      static_cast<size_t>(cfg.tenants));
  for (int i = 0; i < cfg.tenants; ++i) {
    Result<std::shared_ptr<TenantControlPlane>> tcp =
        deploy.CreateTenant(TenantName(i), /*weight=*/1, "Local", Seconds(60));
    if (!tcp.ok()) {
      std::fprintf(stderr, "tenant provisioning failed: %s\n",
                   tcp.status().ToString().c_str());
      std::abort();
    }
    tcps[static_cast<size_t>(i)] = *tcp;
  }
  return tcps;
}

// Extracts the per-pod creation latency from a tenant pod: creation timestamp
// → the syncer's ready-at stamp (the moment the READY status reached the
// tenant control plane), matching the paper's measurement definition.
inline bool TenantPodLatency(const api::Pod& pod, double* out_s) {
  auto it = pod.meta.annotations.find(core::kReadyAtAnnotation);
  if (it == pod.meta.annotations.end()) return false;
  int64_t ready_ms = std::stoll(it->second);
  *out_s = static_cast<double>(ready_ms - pod.meta.creation_timestamp_ms) / 1000.0;
  return true;
}

// Baseline: creation timestamp → Ready condition transition (stamped by the
// kubelet at status-write time).
inline bool SuperPodLatency(const api::Pod& pod, double* out_s) {
  const api::PodCondition* ready = pod.status.FindCondition(api::kPodReady);
  if (ready == nullptr || !ready->status) return false;
  *out_s = static_cast<double>(ready->last_transition_ms -
                               pod.meta.creation_timestamp_ms) /
           1000.0;
  return true;
}

// The VirtualCluster measurement run: `total_pods` created simultaneously
// across all tenant control planes, one load-generator thread per tenant.
RunResult RunVcCase(const RunConfig& cfg, bool keep_phase_metrics = true);

// The baseline: the same load submitted directly to a super cluster, with as
// many generator threads as the VC case had tenants.
RunResult RunBaselineCase(const RunConfig& cfg);

// ------------------------------------------------------------ CLI helpers

struct BenchArgs {
  bool paper_scale = false;  // full paper sizes (slow)
  bool quick = false;        // tiny smoke sizes
  int repeat = 1;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper") == 0) out.paper_scale = true;
    if (std::strcmp(argv[i], "--quick") == 0) out.quick = true;
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) out.repeat = std::atoi(argv[i] + 9);
  }
  return out;
}

// Pod-count sweep matching the paper's {1250, 2500, 5000, 10000}, scaled.
inline std::vector<int> PodSweep(const BenchArgs& args) {
  if (args.paper_scale) return {1250, 2500, 5000, 10000};
  if (args.quick) return {100, 200};
  return {250, 500, 1000, 2000};
}

inline int ScalePods(const BenchArgs& args, int paper_value) {
  if (args.paper_scale) return paper_value;
  if (args.quick) return std::max(1, paper_value / 50);
  return std::max(1, paper_value / 5);
}

}  // namespace vc::bench
