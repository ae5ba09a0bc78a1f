// The benchmark's workloads. Each runs against the library's public API for
// `seconds` of measured time and returns its metrics: the end-to-end set
// when untraced, the per-layer set when traced.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string trace_out;  // Chrome trace path (traced run only)
  /// Workload settings as a JSON object, filled in by the workload so every
  /// result is stamped with what produced it.
  std::string settings_json;
};

/// `table1` (quick-scale models, ILP extraction) or `saturate` (paper-scale
/// models, N_max 50000, greedy extraction).
Outcome run_optimize_workload(RunConfig& config);

/// `service`: one OptimizationService serving a seeded request trace from
/// two closed-loop clients.
Outcome run_service_workload(RunConfig& config);

/// Provenance object: build SHA and type, core count, seed, settings.
std::string provenance_json(const RunConfig& config);

}  // namespace e2e
