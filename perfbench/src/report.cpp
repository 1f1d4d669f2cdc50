#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

double Samples::Pct(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(s.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return s[std::min(idx, s.size() - 1)];
}

double Samples::Max() const {
  return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
}

double Samples::Mean() const {
  return v_.empty() ? 0 : std::accumulate(v_.begin(), v_.end(), 0.0) / v_.size();
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Hex(uint64_t v, int digits) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(static_cast<size_t>(digits), '0');
  for (int i = digits - 1; i >= 0; --i, v >>= 4) out[static_cast<size_t>(i)] = kDigits[v & 15];
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double MillisBetween(SteadyTime from, SteadyTime to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MicrosBetween(SteadyTime from, SteadyTime to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::Mismatch(const std::string& what) {
  if (mismatches_.size() < 20) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(what);
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) const {
  std::fprintf(stderr, "%s\n", line.c_str());
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::vector<Metric> EndToEnd::Values() const {
  auto median = [this](auto field) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(field(r));
    return Median(std::move(v));
  };
  return {
      {"setup_s", median([](const RoundResult& r) { return r.setup_s; }), "s"},
      {"ops_per_s", median([](const RoundResult& r) { return r.ops_per_s; }), "1/s"},
      {"latency_p50_ms", median([](const RoundResult& r) { return r.latency_ms.Pct(50); }), "ms"},
      {"latency_p99_ms", median([](const RoundResult& r) { return r.latency_ms.Pct(99); }), "ms"},
      {"write_p50_us", median([](const RoundResult& r) { return r.write_us.Pct(50); }), "us"},
      {"cpu_ms_per_op", median([](const RoundResult& r) { return r.cpu_ms_per_op; }), "ms"},
  };
}

void EndToEnd::Emit(Report* r) const {
  for (const Metric& m : Values()) r->Set(m.name, m.value, m.unit);
  r->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  size_t latency = 0, writes = 0;
  for (const RoundResult& round : rounds) {
    latency += round.latency_ms.Count();
    writes += round.write_us.Count();
  }
  r->Note(std::to_string(rounds.size()) + " counted rounds; latency samples " +
          std::to_string(latency) + ", write samples " + std::to_string(writes));
}

void EndToEnd::EmitOverhead(const EndToEnd& untraced, const EndToEnd& traced, Report* r) {
  const std::vector<Metric> a = untraced.Values();
  const std::vector<Metric> b = traced.Values();
  for (size_t i = 0; i < a.size(); ++i) {
    r->Set("overhead." + a[i].name, b[i].value - a[i].value, a[i].unit);
  }
}

}  // namespace perfbench
