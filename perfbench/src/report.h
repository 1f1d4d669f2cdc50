// Shared vocabulary of the cpbench workloads: arguments, sample sets, the
// run report (attempted/failed/correct + named metrics) and process-level
// probes (CPU time, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;
using SteadyTime = SteadyClock::time_point;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  // Seeds one deliberate mismatch into the program's state after the
  // measured window; the correctness checks must then fail the run.
  bool fault = false;
  // Tiny sizes for the self-test; numbers are not comparable to full runs.
  bool smoke = false;
  // Scratch directory inside the checkout (api_mix puts its WAL here).
  std::string work_dir = ".bench_build/work";
};

// A bag of samples (any unit) with exact nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  Samples Scaled(double k) const {
    Samples out;
    for (double v : v_) out.Add(v * k);
    return out;
  }
  size_t Count() const { return v_.size(); }
  // p in [0, 100]; 0 when empty.
  double Pct(double p) const;
  double Max() const;
  double Mean() const;

 private:
  std::vector<double> v_;
};

// Seed mixing for per-round and per-client generators.
uint64_t SplitMix(uint64_t x);
// The low `digits` hex digits of v, zero-padded (seeded names).
std::string Hex(uint64_t v, int digits);

// Median of per-round values (0 when empty).
double Median(std::vector<double> v);

double MillisBetween(SteadyTime from, SteadyTime to);
double MicrosBetween(SteadyTime from, SteadyTime to);

// User+system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
// Peak resident set of the process (getrusage ru_maxrss), MiB.
double PeakRssMiB();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  // Records a correctness violation; the run then reports correct=false.
  void Mismatch(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  // Human-readable line on stderr (never parsed).
  void Note(const std::string& line) const;

  bool correct() const { return mismatches_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // The one-line JSON object the runner parses (last line of stdout).
  std::string Json() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> mismatches_;
  std::vector<Metric> metrics_;
};

// What one measured round yields towards the end-to-end metrics.
struct RoundResult {
  double setup_s = 0;
  double ops_per_s = 0;
  double cpu_ms_per_op = 0;
  Samples latency_ms;
  Samples write_us;
};

// End-to-end metrics, identical in name and unit on every workload (see
// BENCHMARK.json for each workload's definition of an operation). Each is
// computed per round and reported as the median over the counted rounds, so
// one disturbed round cannot move a run's figure.
struct EndToEnd {
  std::vector<RoundResult> rounds;

  // Every end-to-end metric except peak_rss_mb, which is process-wide.
  std::vector<Metric> Values() const;
  void Emit(Report* r) const;
  // Traced run: "overhead.<metric>" = traced minus untraced.
  static void EmitOverhead(const EndToEnd& untraced, const EndToEnd& traced, Report* r);
};

void RunPodBurst(const Args& args, Report* report);
void RunTenantFlood(const Args& args, Report* report);
void RunApiMix(const Args& args, Report* report);

}  // namespace perfbench
