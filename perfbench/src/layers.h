// Per-layer measurement from outside the program: snapshots of the counters
// the layers already export (MetricsRegistry, component accessors) and the
// samples their histograms gained during a measured window.
#pragma once

#include <map>
#include <string>

#include "common/histogram.h"
#include "report.h"

namespace perfbench {

// MetricsRegistry::Global().Collect() keyed "block.metric", with the "#N"
// uniquifier stripped from block names and same-named blocks summed.
using Snapshot = std::map<std::string, double>;
Snapshot TakeSnapshot();

// Sum over blocks whose name starts with `block_prefix` of metric `metric`,
// after minus before.
double DeltaSum(const Snapshot& before, const Snapshot& after,
                const std::string& block_prefix, const std::string& metric);

// Samples recorded into `h` after its first `from` samples, times `scale`.
Samples SliceOf(const vc::Histogram& h, size_t from, double scale);

// a / b, or 0 when b is 0.
double Ratio(double a, double b);

// Sets every per-layer metric (the traced-run schema in BENCHMARK.json) to 0;
// each workload then overwrites the layers it exercises.
void SetLayerDefaults(Report* r);

}  // namespace perfbench
