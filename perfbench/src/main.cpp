// cpbench: the intrinsic-cost control-plane benchmark program.
//
//   cpbench --workload pod_burst|tenant_flood|api_mix --seed N --seconds S
//           --trace 0|1 [--fault] [--smoke] [--work-dir DIR]
//
// Every injected cost in the system (syncer op costs, scheduler CostModel,
// apiserver request latency) is zero, so the numbers are the cost of the code
// itself. The last stdout line is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exit code 1 when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "report.h"

using perfbench::Args;
using perfbench::Report;

namespace {

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--workload") {
      const char* v = value("--workload");
      if (v == nullptr) return false;
      out->workload = v;
    } else if (a == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr) return false;
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      const char* v = value("--seconds");
      if (v == nullptr) return false;
      out->seconds = std::atoi(v);
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (v == nullptr) return false;
      out->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--work-dir") {
      const char* v = value("--work-dir");
      if (v == nullptr) return false;
      out->work_dir = v;
    } else if (a == "--fault") {
      out->fault = true;
    } else if (a == "--smoke") {
      out->smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (out->seconds < 1) {
    std::fprintf(stderr, "--seconds must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  vc::SetLogLevel(vc::LogLevel::kError);

  Report report;
  if (args.workload == "pod_burst") {
    perfbench::RunPodBurst(args, &report);
  } else if (args.workload == "tenant_flood") {
    perfbench::RunTenantFlood(args, &report);
  } else if (args.workload == "api_mix") {
    perfbench::RunApiMix(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (report.attempted() == 0) report.Mismatch("no operation was attempted");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
