#include "bench_common.h"

namespace vc::bench {

namespace {

// Baseline-compat shim (see scripts/bench_compare.sh): a syncer whose upward
// reconciles hold their slot for the modeled op cost records UWS-Process
// before the hold ends, and exposes UpwardInFlight(); older syncers record it
// once the cost has elapsed and have no such accessor.
template <typename S>
bool UpwardSettled(S& syncer) {
  if constexpr (requires { syncer.UpwardInFlight(); }) {
    return syncer.UpwardInFlight() == 0;
  } else {
    return true;
  }
}

// Waits until `expected` tenant pods have been reported Ready by the upward
// path and the last upward write's modeled cost has elapsed, with a stall
// guard.
void AwaitUpwardReady(core::Syncer& syncer, size_t expected, Duration timeout) {
  Clock* clock = RealClock::Get();
  Stopwatch sw(clock);
  size_t last = 0;
  TimePoint last_progress = clock->Now();
  for (;;) {
    size_t done = syncer.metrics().uws_process.Count();
    if (done >= expected && UpwardSettled(syncer)) return;
    if (done != last) {
      last = done;
      last_progress = clock->Now();
    }
    if (sw.Elapsed() > timeout || clock->Now() - last_progress > Seconds(60)) {
      std::fprintf(stderr, "WARNING: run stalled at %zu/%zu ready pods\n", done,
                   expected);
      return;
    }
    clock->SleepFor(Millis(20));
  }
}

}  // namespace

RunResult RunVcCase(const RunConfig& cfg, bool keep_phase_metrics) {
  std::unique_ptr<VcDeployment> deploy = BuildDeployment(cfg);
  std::vector<std::shared_ptr<TenantControlPlane>> tcps = ProvisionTenants(*deploy, cfg);
  // Let informers settle so the run starts from a quiescent system.
  deploy->WaitForSync(Seconds(60));
  RealClock::Get()->SleepFor(Millis(200));
  deploy->syncer().metrics().ResetHistograms();

  const int per_tenant = cfg.total_pods / cfg.tenants;
  const int total = per_tenant * cfg.tenants;
  Stopwatch wall(RealClock::Get());

  // Memory sampler: peak informer-cache bytes during the run (Fig. 10).
  std::atomic<bool> sampling{true};
  std::atomic<size_t> peak_bytes{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      size_t bytes =
          deploy->syncer().InformerCacheBytes() + deploy->syncer().QueuedKeyBytes();
      size_t prev = peak_bytes.load();
      while (bytes > prev && !peak_bytes.compare_exchange_weak(prev, bytes)) {
      }
      RealClock::Get()->SleepFor(Millis(500));
    }
  });
  const Duration cpu_before = deploy->syncer().WorkerCpuTime();

  // One load-generator thread per tenant, all firing simultaneously
  // (paper §IV: "created a large number of Pods simultaneously in all
  // tenant control planes").
  ParallelFor(cfg.tenants, [&](int t) {
    TenantClient client(tcps[static_cast<size_t>(t)].get());
    for (int i = 0; i < per_tenant; ++i) {
      Result<api::Pod> r = client.Create(BenchPod("default", StrFormat("bench-%04d", i)));
      if (!r.ok()) {
        std::fprintf(stderr, "create failed (%s): %s\n", TenantName(t).c_str(),
                     r.status().ToString().c_str());
      }
    }
  });

  AwaitUpwardReady(deploy->syncer(), static_cast<size_t>(total), Seconds(1200));

  RunResult out;
  out.wall_seconds = ToSeconds(wall.Elapsed());
  sampling.store(false);
  sampler.join();
  out.peak_cache_bytes = peak_bytes.load();
  out.cache_objects = deploy->syncer().InformerCacheObjects();
  out.syncer_cpu_seconds =
      ToSeconds(deploy->syncer().WorkerCpuTime() - cpu_before);

  // Collect per-pod latencies from the tenant control planes.
  size_t measured = 0;
  for (int t = 0; t < cfg.tenants; ++t) {
    Result<apiserver::TypedList<api::Pod>> pods =
        tcps[static_cast<size_t>(t)]->server().List<api::Pod>({"default"});
    if (!pods.ok()) continue;
    double tenant_sum = 0;
    int tenant_n = 0;
    for (const api::Pod& pod : pods->items) {
      double s = 0;
      if (TenantPodLatency(pod, &s)) {
        out.latency.RecordSeconds(s);
        tenant_sum += s;
        tenant_n++;
        measured++;
      }
    }
    if (tenant_n > 0) out.per_tenant_mean[TenantName(t)] = tenant_sum / tenant_n;
  }
  out.throughput = out.wall_seconds > 0
                       ? static_cast<double>(measured) / out.wall_seconds
                       : 0;
  if (keep_phase_metrics) {
    core::SyncerMetrics& m = deploy->syncer().metrics();
    out.dws_queue.Merge(m.dws_queue);
    out.dws_process.Merge(m.dws_process);
    out.super_sched.Merge(m.super_sched);
    out.uws_queue.Merge(m.uws_queue);
    out.uws_process.Merge(m.uws_process);
  }

  deploy->Stop();
  return out;
}

RunResult RunBaselineCase(const RunConfig& cfg) {
  VcDeployment::Options o;
  o.super.num_nodes = cfg.cal.nodes;
  o.super.sched_cost = cfg.cal.sched;
  o.super.kubelet_workers = 1;
  o.super.kubelet_heartbeat = Seconds(5);
  o.super.vn_agents = false;
  core::SuperCluster cluster(o.super);
  Status st = cluster.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "baseline start failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  cluster.WaitForSync(Seconds(60));

  const int threads = cfg.tenants;  // paper: generator threads == #tenants
  const int per_thread = cfg.total_pods / threads;
  const int total = per_thread * threads;
  Stopwatch wall(RealClock::Get());

  ParallelFor(threads, [&](int t) {
    for (int i = 0; i < per_thread; ++i) {
      api::Pod pod = BenchPod("default", StrFormat("bench-%03d-%04d", t, i));
      Result<api::Pod> r = cluster.server().Create(std::move(pod));
      if (!r.ok()) {
        std::fprintf(stderr, "baseline create failed: %s\n",
                     r.status().ToString().c_str());
      }
    }
  });

  // Wait for readiness (poll the super apiserver).
  Clock* clock = RealClock::Get();
  Stopwatch guard(clock);
  for (;;) {
    size_t ready = 0;
    Result<apiserver::TypedList<api::Pod>> pods = cluster.server().List<api::Pod>();
    if (pods.ok()) {
      for (const api::Pod& p : pods->items) ready += p.status.Ready() ? 1 : 0;
    }
    if (ready >= static_cast<size_t>(total)) break;
    if (guard.Elapsed() > Seconds(1200)) {
      std::fprintf(stderr, "WARNING: baseline stalled at %zu/%d\n", ready, total);
      break;
    }
    clock->SleepFor(Millis(50));
  }

  RunResult out;
  out.wall_seconds = ToSeconds(wall.Elapsed());
  Result<apiserver::TypedList<api::Pod>> pods = cluster.server().List<api::Pod>();
  size_t measured = 0;
  if (pods.ok()) {
    for (const api::Pod& p : pods->items) {
      double s = 0;
      if (SuperPodLatency(p, &s)) {
        out.latency.RecordSeconds(s);
        measured++;
      }
    }
  }
  out.throughput =
      out.wall_seconds > 0 ? static_cast<double>(measured) / out.wall_seconds : 0;
  cluster.Stop();
  return out;
}

}  // namespace vc::bench
