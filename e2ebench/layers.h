// The traced run: the workload's request stream replayed at successively
// lower entry points, plus timed calls into the session, agent, GEMM,
// engine and checkpoint layers, reported as per-layer metrics.
#ifndef CDBTUNE_E2EBENCH_LAYERS_H_
#define CDBTUNE_E2EBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace cdbtune::e2e {

struct RunArgs {
  Workload workload = Workload::kEpisodesSim;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced run ("" = do not write).
  std::string trace_file;
  /// Directory for checkpoint files.
  std::string tmp_dir;
  double scale = 1.0;
};

/// Outcome of a run, printed as the final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Why `correct` is false, for the log.
  std::vector<std::string> problems;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void Count(const CallLog& log) {
    attempted += log.attempted;
    failed += log.failed;
    for (const std::string& e : log.errors) problems.push_back("error: " + e);
  }
};

RunResult RunTraced(const RunArgs& args);

}  // namespace cdbtune::e2e

#endif  // CDBTUNE_E2EBENCH_LAYERS_H_
