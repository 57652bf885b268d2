// Multi-stream serving throughput: N independent AdaScale pipelines served
// concurrently through the stream table (runtime/multi_stream.h) versus one
// after another.
//
// This is the production-serving scenario the ROADMAP targets: many users'
// video streams arriving at once.  Algorithm 1 is sequential within a stream
// (frame t picks frame t+1's scale), so cross-stream concurrency is the
// scaling axis.  Expected shape: aggregate FPS grows near-linearly with
// streams until the core count saturates; on a single core all rows should
// sit near 1.0x.
//
// Usage: bench_multi_stream [max_streams] [snippets]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "experiments/harness.h"
#include "runtime/multi_stream.h"
#include "util/table.h"

using namespace ada;

int main(int argc, char** argv) {
  // Default the kernel-level pool to serial (no overwrite: an explicit
  // ADASCALE_THREADS still wins).  With the pool enabled the n=1 baseline
  // already saturates every core through the parallelized kernels, which
  // would make the Speedup column measure nothing; this bench isolates
  // stream-level scaling.
  setenv("ADASCALE_THREADS", "1", /*overwrite=*/0);

  const int max_streams = std::max(argc > 1 ? std::atoi(argv[1]) : 8, 1);
  const int num_snippets = std::max(argc > 2 ? std::atoi(argv[2]) : 16, 1);

  std::printf("=== Multi-stream serving throughput ===\n");
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  HarnessSizes sizes;
  sizes.train_snippets = 8;
  sizes.val_snippets = 3;
  Harness h = make_vid_harness(default_cache_dir(), sizes);
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg = h.regressor(ScaleSet::train_default(),
                                    h.default_regressor_config());

  // A fixed pool of synthetic "user" snippets, reused for every row so all
  // configurations process identical work.
  const Dataset stream_ds =
      h.dataset().sibling(num_snippets, 0, h.dataset().seed() ^ 0x57AEA7ULL);
  std::vector<const Snippet*> jobs;
  for (const Snippet& s : stream_ds.train_snippets()) jobs.push_back(&s);

  TextTable table({"Mode", "Wall(ms)", "Agg FPS", "Speedup", "Frames"});
  double serial_fps = 0.0;
  for (int n = 1; n <= max_streams; n *= 2) {
    MultiStreamRunner runner(det, reg, &h.renderer(), h.dataset().scale_policy(),
                             ScaleSet::reg_default(), n);
    // Serial reference measured once, with the single-stream runner.
    if (n == 1) {
      MultiStreamResult s = runner.run_serial(jobs);
      serial_fps = s.aggregate_fps;
      table.add_row({"serial", fmt(s.wall_ms, 0), fmt(s.aggregate_fps, 1),
                     "1.00x", std::to_string(s.total_frames)});
    }
    MultiStreamResult r = runner.run(jobs);
    table.add_row({std::to_string(n) + " streams", fmt(r.wall_ms, 0),
                   fmt(r.aggregate_fps, 1),
                   fmt(r.aggregate_fps / serial_fps, 2) + "x",
                   std::to_string(r.total_frames)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
