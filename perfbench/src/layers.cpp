#include "layers.h"

#include <vector>

#include "common/metrics.h"

namespace perfbench {

Snapshot TakeSnapshot() {
  Snapshot out;
  for (const auto& [key, value] : vc::MetricsRegistry::Global().Collect()) {
    const size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    std::string block = key.substr(0, dot);
    const size_t hash = block.find('#');
    if (hash != std::string::npos) block.resize(hash);
    out[block + key.substr(dot)] += value;
  }
  return out;
}

double DeltaSum(const Snapshot& before, const Snapshot& after,
                const std::string& block_prefix, const std::string& metric) {
  const std::string suffix = "." + metric;
  auto sum = [&](const Snapshot& s) {
    double total = 0;
    for (const auto& [key, value] : s) {
      if (key.size() <= suffix.size() || key.rfind(block_prefix, 0) != 0) continue;
      // The block is everything before the first '.'; the rest must be the
      // metric itself, not a longer metric that ends the same way.
      if (key.find('.') != key.size() - suffix.size()) continue;
      if (key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
      total += value;
    }
    return total;
  };
  return sum(after) - sum(before);
}

Samples SliceOf(const vc::Histogram& h, size_t from, double scale) {
  Samples out;
  const std::vector<double> all = h.Samples();
  for (size_t i = from; i < all.size(); ++i) out.Add(all[i] * scale);
  return out;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void SetLayerDefaults(Report* r) {
  struct Def {
    const char* name;
    const char* unit;
  };
  static const Def kDefs[] = {
      {"syncer.down_ms_p50", "ms"},
      {"syncer.down_ms_p99", "ms"},
      {"syncer.up_ms_p50", "ms"},
      {"syncer.up_ms_p99", "ms"},
      {"syncer.down_queue_ms_p50", "ms"},
      {"syncer.down_process_ms_p50", "ms"},
      {"syncer.up_queue_ms_p50", "ms"},
      {"syncer.up_process_ms_p50", "ms"},
      {"syncer.cpu_ms_per_pod", "ms"},
      {"syncer.down_useful_ratio", "ratio"},
      {"syncer.down_queue_max", "count"},
      {"scheduler.bind_ms_p50", "ms"},
      {"scheduler.bind_ms_p99", "ms"},
      {"scheduler.cycle_ms_p50", "ms"},
      {"scheduler.cycle_ms_p99", "ms"},
      {"scheduler.busy_share", "ratio"},
      {"scheduler.failed_attempts", "count"},
      {"kubelet.start_ms_p50", "ms"},
      {"kubelet.start_ms_p99", "ms"},
      {"kubelet.busy_ms_p50", "ms"},
      {"apiserver.get_us_p50", "us"},
      {"apiserver.get_us_p99", "us"},
      {"apiserver.list_us_p50", "us"},
      {"apiserver.list_us_p99", "us"},
      {"apiserver.create_us_p50", "us"},
      {"apiserver.create_us_p99", "us"},
      {"apiserver.update_us_p50", "us"},
      {"apiserver.update_us_p99", "us"},
      {"apiserver.delete_us_p50", "us"},
      {"apiserver.delete_us_p99", "us"},
      {"apiserver.cache_served_ratio", "ratio"},
      {"apiserver.dispatch_queue_wait_us_p99.system", "us"},
      {"apiserver.dispatch_queue_wait_us_p99.leader", "us"},
      {"apiserver.dispatch_queue_wait_us_p99.workload", "us"},
      {"apiserver.dispatch_queue_wait_us_p99.best-effort", "us"},
      {"apiserver.dispatch_exec_us_p99.system", "us"},
      {"apiserver.dispatch_exec_us_p99.leader", "us"},
      {"apiserver.dispatch_exec_us_p99.workload", "us"},
      {"apiserver.dispatch_exec_us_p99.best-effort", "us"},
      {"apiserver.super_creates_per_pod", "count"},
      {"apiserver.super_gets_per_pod", "count"},
      {"apiserver.super_lists_per_pod", "count"},
      {"apiserver.super_updates_per_pod", "count"},
      {"apiserver.super_deletes_per_pod", "count"},
      {"apiserver.super_watches_per_pod", "count"},
      {"apiserver.conflicts_per_pod", "count"},
      {"watch.lag_us_p50", "us"},
      {"watch.lag_us_p99", "us"},
      {"kv.commits_per_op", "count"},
      {"kv.wal_bytes_per_write", "B"},
      {"kv.wal_checkpoints", "count"},
      {"kv.log_mb", "MiB"},
      {"api.decoded_bytes_per_list", "B"},
      {"client.informer_cache_mb", "MiB"},
      {"client.relists", "count"},
      {"controllers.reconciles_per_pod", "count"},
      {"controllers.retries_per_pod", "count"},
      {"common.executor_tasks_per_op", "count"},
      {"common.executor_threads", "count"},
      {"gen.late_p99_ms", "ms"},
      {"gen.late_max_ms", "ms"},
      {"overhead.setup_s", "s"},
      {"overhead.ops_per_s", "1/s"},
      {"overhead.latency_p50_ms", "ms"},
      {"overhead.latency_p99_ms", "ms"},
      {"overhead.write_p50_us", "us"},
      {"overhead.cpu_ms_per_op", "ms"},
  };
  for (const Def& d : kDefs) r->Set(d.name, 0, d.unit);
}

}  // namespace perfbench
