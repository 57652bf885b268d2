// The three framebench workloads.  Each generates its snippet pool from the
// seed, sets up its models several times (setup_s is the median), serves
// the pool in whole passes until the run length has elapsed, and checks the
// outputs.  With trace on, the window runs a re-implementation of the
// serving loop from the library's public calls, with a span around each
// call, and reports the per-layer metrics instead of the end-to-end ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace framebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;  ///< trained weights (see prepare_weights)
  std::string trace_out;  ///< Chrome trace JSON path; empty writes none
};

struct RunResult {
  /// Frames offered in the measured window, plus dff_mixed_int8's one
  /// mixed-precision bar comparison.
  long attempted = 0;
  long failed = 0;  ///< offered frames not served, plus a missed bar
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;  ///< empty when correct
  std::vector<std::string> notes;           ///< host and run facts
};

/// "adascale_single", "dff_mixed_int8", "streams_16".
const std::vector<std::string>& workload_names();

/// Trains the detector and regressor into `cache_dir`, or loads them when
/// they are already there.  Returns true when it trained.
bool prepare_weights(const std::string& cache_dir);

/// Runs one workload.  Requires weights already in opt.cache_dir.
RunResult run_workload(const RunOptions& opt);

/// CPUs this process may run on (what `nproc` prints).
int host_nproc();

}  // namespace framebench
