// The end-to-end benchmark: runs one workload against the library's public
// API and prints its metrics. The last line of standard output is the
// result object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}
//
// Usage: tensat_e2e --workload table1|saturate|service --seed N --seconds S
//                   --trace 0|1 [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics and writes the Chrome trace of its spans to --trace-out. Exits 1
// when any output check fails (after printing the result), 2 on bad usage,
// 3 when the library was not built as Release.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "support/buildinfo.h"
#include "workloads.h"

namespace e2e {

std::string provenance_json(const RunConfig& config) {
  return "{\"git_sha\": " + json_string(tensat::build_git_sha()) +
         ", \"build_type\": " + json_string(tensat::build_type()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"seed\": " + std::to_string(config.seed) +
         ", \"seconds\": " + json_number(config.seconds) +
         ", \"trace\": " + (config.trace ? "1" : "0") +
         ", \"settings\": " + config.settings_json + "}";
}

}  // namespace e2e

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table1|saturate|service --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2e;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) return usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage(argv[0]);
      config.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.workload != "table1" && config.workload != "saturate" &&
      config.workload != "service")
    return usage(argv[0]);
  if (std::strcmp(tensat::build_type(), "Release") != 0) {
    std::fprintf(stderr, "refusing to report numbers from a %s build; build Release\n",
                 tensat::build_type());
    return 3;
  }

  Outcome out = config.workload == "service" ? run_service_workload(config)
                                             : run_optimize_workload(config);
  const bool correct = out.failed == 0;

  const std::string provenance = provenance_json(config);
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("%s\n", config.trace ? "per-layer metrics:" : "end-to-end metrics:");
  std::string metrics;
  for (const Metric& m : out.metrics.all()) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics += std::string(metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(m.value) + ", \"unit\": " +
               json_string(m.unit) + "}";
  }
  std::printf("provenance: %s\n", provenance.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return correct ? 0 : 1;
}
