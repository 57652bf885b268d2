// framebench — frame-level speed and accuracy of AdaScale serving.
//
//   framebench --prepare --cache-dir DIR
//       trains the detector and regressor into DIR, or loads them when DIR
//       already holds them, and prints which.
//   framebench --workload NAME --seed N --seconds S --trace 0|1
//              --cache-dir DIR [--trace-out FILE]
//       runs one workload (adascale_single, dff_mixed_int8, streams_16),
//       prints every metric by name and unit and each failed check, and
//       ends with one JSON line: correct, attempted, failed, metrics.
//       --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
//       re-implementation and reports the per-layer ones, writing its spans
//       to FILE as Chrome trace-event JSON.
//
// framebench/run.py builds this binary and calls both forms.  Exit status:
// 0 whenever the JSON line is printed (its "correct" says whether every
// check passed), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/qgemm.h"
#include "util/json.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "framebench: %s (see the header of main.cpp)\n", why);
  std::exit(2);
}

// ada::JsonWriter prints doubles to six significant digits; the result
// line carries every measured digit.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  framebench::RunOptions opt;
  bool prepare = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--prepare") {
      prepare = true;
    } else if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-')
        usage("--seed wants a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      const std::string v = next();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0)
        usage("--seconds wants a number in (0, 3600]");
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--cache-dir") {
      opt.cache_dir = next();
    } else if (a == "--trace-out") {
      opt.trace_out = next();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.cache_dir.empty()) usage("--cache-dir is required");

  if (prepare) {
    const bool trained = framebench::prepare_weights(opt.cache_dir);
    std::printf("weights: %s %s\n", trained ? "trained into" : "loaded from",
                opt.cache_dir.c_str());
    return 0;
  }

  bool known = false;
  for (const std::string& n : framebench::workload_names())
    known = known || n == opt.workload;
  if (!known)
    usage("--workload wants adascale_single, dff_mixed_int8 or streams_16");
  if (!have_seed || !have_trace) usage("--seed and --trace are required");

  // One kernel thread for every workload (README.md, "Workloads"); the
  // kernel pool reads ADASCALE_THREADS once, at its first use.
  const std::string threads = "1";
  setenv("ADASCALE_THREADS", threads.c_str(), /*overwrite=*/1);

  const framebench::RunResult r = framebench::run_workload(opt);

  std::printf("host: nproc %d, qgemm_kernel_isa %s, ADASCALE_THREADS %s\n",
              framebench::host_nproc(), ada::qgemm_kernel_isa(),
              threads.c_str());
  std::printf("workload %s seed %llu trace %d: attempted %ld, failed %ld\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, r.attempted, r.failed);
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  for (const framebench::Metric& m : r.metrics)
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : r.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string line = "{\"correct\": ";
  line += r.check_failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const framebench::Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + ada::json_escape(m.name) + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" +
            ada::json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
