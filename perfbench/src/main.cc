// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload audit-batch|serve-mixed|ingest-window
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//                    [--server-binary PATH] [--scale full|tiny] [--corrupt]
//
// Human-readable report lines go first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
// exit code is 1 when any answer was wrong, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--server-binary") {
      args->server_binary = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0 && (args->scale == "full" || args->scale == "tiny");
}

void PrintMetrics(const std::map<std::string, perfbench::Metric>& metrics) {
  std::cout << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N --seconds S"
                 " --trace 0|1 --workdir DIR [--server-binary PATH]"
                 " [--scale full|tiny] [--corrupt]\n";
    return 2;
  }
  // nproc: the CPUs this process may run on, as the fingerprint reports.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  args.threads = sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  if (args.threads < 1) args.threads = 1;
  std::filesystem::create_directories(args.workdir);

  perfbench::RunResult result;
  if (args.workload == "audit-batch") {
    perfbench::RunAuditBatch(args, &result);
  } else if (args.workload == "serve-mixed") {
    perfbench::RunServeMixed(args, &result);
  } else if (args.workload == "ingest-window") {
    perfbench::RunIngestWindow(args, &result);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  for (const std::string& m : result.mismatches) std::cout << "MISMATCH " << m << "\n";
  const double failed_frac =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  result.Report("failed_frac", failed_frac, "ratio");
  for (const auto& [name, m] : result.report) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    std::cout << "report " << args.workload << " " << name << " = " << value
              << " " << m.unit << "\n";
  }
  for (const auto& [name, value] : result.notes) {
    std::cout << "note " << name << " = " << value << "\n";
  }
  result.attempted = std::max<std::uint64_t>({result.attempted, result.failed, 1});
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": ";
  PrintMetrics(args.trace ? result.layers : result.e2e);
  std::cout << "}" << std::endl;
  return result.correct ? 0 : 1;
}
