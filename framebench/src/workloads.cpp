#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "adascale/pipeline.h"
#include "adascale/scale_target.h"
#include "checks.h"
#include "experiments/harness.h"
#include "runtime/exec_plan.h"
#include "runtime/multi_stream.h"
#include "stats.h"
#include "tensor/image_ops.h"
#include "trace.h"
#include "video/optical_flow.h"

namespace framebench {

namespace {

using Clock = std::chrono::steady_clock;

// 192 snippets x 12 frames = 2304 frames.  mAP is a mean over 30 classes
// with a handful of objects each per pool, so it moves with the seed: its
// quartile distance over the median measured 10-21% over ten seeds on 96
// snippets, and falls with the square root of the pool size.
//
// A measured window lasts at least --seconds and serves at least the whole
// pool.  On a 4-core host the pool takes longer, so a window covers the same
// frames whatever the machine's speed of the moment; on DFF the share of
// frames that race kernels (and so p99) would otherwise change with how far
// a window got.  Every window is far above the 1000 frames that give p99
// ten frames beyond it.
constexpr int kPoolSnippets = 192;
// Single-stream windows stop at a multiple of this many snippets — one of
// each theme, since the pool cycles through them.
constexpr int kThemeCycle = 3;
constexpr int kStreams = 16;
constexpr int kInitScale = 600;
// Setups per run; setup_s and the setup.* metrics are their medians.  An
// fp32 setup takes tens of milliseconds, so it repeats more often than the
// int8 one, whose calibration takes most of a second.
constexpr int kSetupRepeatsFp32 = 31;
constexpr int kSetupRepeatsInt8 = 5;
// Snippets the untraced runs serve again apart from the window: through the
// re-implementation of Algorithm 1 (adascale_single) or a runner pass
// (dff_mixed_int8).
constexpr int kReplaySnippets = 8;
// streams_16: rounds (one snippet per stream) checked against run_serial.
constexpr int kSerialRounds = 2;
// streams_16 serves the pool this many times.  The repeats are checked
// against the first pass, and each frame's latency is the best of its
// servings: its workers fill every core, so host noise that preempts one of
// them lands on that worker's frame, and plain p99s of ten seeds spread 29%
// and 36%, against 14.3-16.3 ms over six seeds for the best-of-two p99.
constexpr int kStreamPasses = 2;
// Snippets the traced single-stream runs serve again through
// AdaScalePipeline, to check the re-implementation.
constexpr int kTracedCheckSnippets = 96;
// The repository's mixed-precision bar: 1.0 mAP point (docs/SERVING.md).
constexpr double kMixedPrecisionBar = 0.01;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// The weights are the standard SynthVID harness's (HarnessSizes defaults:
// 24 training snippets, seed 2019) — what quickstart and the paper benches
// serve.  Training takes a few minutes, once per weight cache.
ada::Dataset training_dataset() {
  const ada::HarnessSizes sizes;
  return ada::Dataset::synth_vid(sizes.train_snippets, sizes.val_snippets,
                                 sizes.seed);
}

struct Models {
  std::unique_ptr<ada::Harness> harness;
  ada::Detector* det = nullptr;
  ada::ScaleRegressor* reg = nullptr;
};

Models load_models(const std::string& cache_dir) {
  Models m;
  // Constructed in place: a Harness's renderer points into its own dataset.
  m.harness = std::make_unique<ada::Harness>(training_dataset(), cache_dir);
  m.det = m.harness->detector(ada::ScaleSet::train_default());
  m.reg = m.harness->regressor(ada::ScaleSet::train_default(),
                               m.harness->default_regressor_config());
  return m;
}

void pin_fp32(const Models& m) {
  m.det->set_execution_policy(ada::ExecutionPolicy::fp32());
  m.reg->set_execution_policy(ada::ExecutionPolicy::fp32());
}

// The seed's snippets: the three themes in turn, so every stretch of the
// pool mixes large, small and mixed-size objects.
std::vector<ada::Snippet> make_pool(const ada::Dataset& ds,
                                    std::uint64_t seed) {
  ada::SnippetGenerator gen(&ds.catalog(), ds.video_config());
  ada::Rng rng(seed);
  const ada::SnippetTheme themes[] = {ada::SnippetTheme::kLargeObject,
                                      ada::SnippetTheme::kSmallObjects,
                                      ada::SnippetTheme::kMixed};
  std::vector<ada::Snippet> pool;
  pool.reserve(kPoolSnippets);
  for (int i = 0; i < kPoolSnippets; ++i)
    pool.push_back(gen.generate_with_theme(themes[i % 3], &rng));
  return pool;
}

long frames_of(const std::vector<ada::Snippet>& pool,
               const std::vector<int>& jobs) {
  long n = 0;
  for (int j : jobs) n += pool[static_cast<std::size_t>(j)].num_frames();
  return n;
}

std::vector<int> job_range(int begin, int end) {
  std::vector<int> jobs;
  for (int j = begin; j < end; ++j) jobs.push_back(j);
  return jobs;
}

// One warm-up frame at every S_reg scale: builds the plans (and, under an
// int8 policy, runs the autotune races) for the scales Algorithm 1 starts
// from and snaps to.  The frame is the harness's first validation frame, the
// same for every seed, so that set-up does the same work on every run.
void warm_up(ada::Detector* det, ada::ScaleRegressor* reg,
             const ada::Harness& h) {
  const ada::Scene& scene = h.dataset().val_snippets().at(0).frames.at(0);
  const ada::ScalePolicy& policy = h.dataset().scale_policy();
  for (int s : ada::ScaleSet::reg_default().scales) {
    const ada::Tensor image = h.renderer().render_at_scale(scene, s, policy);
    det->detect(image);
    reg->predict(det->features());
  }
}

struct SetupTimes {
  double load_s = 0.0;
  double calibrate_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const { return load_s + calibrate_s + warmup_s; }
};

struct SetupSummary {
  double total_s = 0.0, load_s = 0.0, calibrate_s = 0.0, warmup_s = 0.0;
};

SetupSummary summarize_setups(const std::vector<SetupTimes>& runs) {
  std::vector<double> total, load, cal, warm;
  for (const SetupTimes& t : runs) {
    total.push_back(t.total_s());
    load.push_back(t.load_s);
    cal.push_back(t.calibrate_s);
    warm.push_back(t.warmup_s);
  }
  return {median(total), median(load), median(cal), median(warm)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double param_mb(ada::Detector* det, ada::ScaleRegressor* reg) {
  std::size_t floats = 0;
  for (ada::Param* p : det->parameters())
    floats += p->value.size() + p->grad.size();
  for (ada::Param* p : reg->parameters())
    floats += p->value.size() + p->grad.size();
  return static_cast<double>(floats * sizeof(float)) / (1024.0 * 1024.0);
}

long int8_steps_at_600(ada::Detector* det, const ada::ScalePolicy& policy) {
  const ada::ExecutionPlan& plan =
      det->plan_for(1, policy.render_h(600), policy.render_w(600));
  long n = 0;
  for (const ada::PlanStep& s : plan.steps)
    if (s.kernel == ada::KernelKind::kInt8) ++n;
  return n;
}

// Records ordered by (stream, snippet, frame): the order in which two
// executions of the same jobs are compared.
std::vector<FrameRecord> sorted(std::vector<FrameRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const FrameRecord& a, const FrameRecord& b) {
                     return std::tie(a.stream, a.snippet, a.frame) <
                            std::tie(b.stream, b.snippet, b.frame);
                   });
  return records;
}

// The records of `records` whose snippet is in [begin, end).
std::vector<FrameRecord> snippets_in(const std::vector<FrameRecord>& records,
                                     int begin, int end) {
  std::vector<FrameRecord> out;
  for (const FrameRecord& r : records)
    if (r.snippet >= begin && r.snippet < end) out.push_back(r);
  return out;
}

// ----------------------------------------------------------- serving window

// What one measured window served.
struct Window {
  std::vector<FrameRecord> first;  ///< first time each frame was served
  /// First difference between a frame served again (the window wrapped
  /// round the pool) and its first serving; repeats are not kept, so the
  /// window's own memory does not grow with how far it got.
  std::string repeat_error;
  std::map<std::tuple<int, int, int>, std::size_t> first_index;
  std::vector<double> latency_ms;    ///< per served frame
  long offered = 0;
  long served = 0;
  double wall_s = 0.0;
  double busy_ms = 0.0;  ///< summed worker time spent serving frames
};

// Compares a frame served again with its first serving.
void check_repeat(Window* w, const FrameRecord& r) {
  if (!w->repeat_error.empty()) return;
  if (w->first_index.empty())
    for (std::size_t i = 0; i < w->first.size(); ++i)
      w->first_index[{w->first[i].stream, w->first[i].snippet,
                      w->first[i].frame}] = i;
  const auto it = w->first_index.find({r.stream, r.snippet, r.frame});
  w->repeat_error = it == w->first_index.end()
                        ? "a repeated frame has no first serving"
                        : check_identical({r}, {w->first[it->second]});
}

// Serves the pool's snippets in order (wrapping round) until `seconds` have
// elapsed and at least `min_snippets` have been served, stopping at a
// theme-cycle boundary; `seconds` 0 serves `min_snippets` once, untimed.
// `serve` handles one frame (resetting per-stream state at frame 0) and
// returns its record plus the wall time of the serving call.
Window serve_single_stream(
    const std::vector<ada::Snippet>& pool, int min_snippets, double seconds,
    const std::function<FrameRecord(int snippet, int frame, double* ms)>&
        serve) {
  Window w;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= static_cast<std::size_t>(min_snippets) &&
        (seconds <= 0.0 ||
         (k % kThemeCycle == 0 && seconds_since(t0) >= seconds)))
      break;
    const std::size_t s = k % pool.size();
    for (int f = 0; f < pool[s].num_frames(); ++f) {
      ++w.offered;
      double ms = 0.0;
      FrameRecord rec = serve(static_cast<int>(s), f, &ms);
      if (k < pool.size())
        w.first.push_back(std::move(rec));
      else
        check_repeat(&w, rec);
      w.latency_ms.push_back(ms);
      w.busy_ms += ms;
      ++w.served;
    }
  }
  w.wall_s = seconds_since(t0);
  return w;
}

// ------------------------------------------------- traced re-implementations

// Algorithm 1 for one frame from the public calls: render at the target
// scale, run the backbone and heads, decode + NMS on the same features (what
// Detector::detect() runs after forward()), regress t on the deep features
// and decode the next scale.  `contexts` lends the models for the frame (the
// stream table's pool); when null the frame runs on `own`.
FrameRecord traced_algorithm1(Tracer* tr, int lane, int stream, long seq,
                              int snippet, int frame, const ada::Scene& scene,
                              int* target_scale, bool snap,
                              ada::ModelPool* contexts,
                              const ada::ModelPool::Lease& own,
                              const ada::Renderer& renderer,
                              const ada::ScalePolicy& policy,
                              const ada::ScaleSet& sreg) {
  const int scale = *target_scale;
  const ada::Tensor image = tr->span(lane, "data.render_ms", stream, seq, [&] {
    return renderer.render_at_scale(scene, scale, policy);
  });
  const ada::ModelPool::Lease m =
      contexts != nullptr ? contexts->acquire() : own;
  tr->span(lane, "detection.forward_ms", stream, seq,
           [&] { m.detector->forward(image); });
  const ada::DetectionOutput out =
      tr->span(lane, "detection.decode_nms_ms", stream, seq, [&] {
        return m.detector->detect_from_features(m.detector->features(),
                                                image.h(), image.w());
      });
  const float t = tr->span(lane, "adascale.regressor_ms", stream, seq, [&] {
    return m.regressor->predict(m.detector->features());
  });
  if (contexts != nullptr) contexts->release(m);
  int next = ada::decode_scale_target(t, scale, sreg);
  if (snap) next = sreg.nearest(next);
  *target_scale = next;
  return make_record(stream, snippet, frame, scale, next, false, out);
}

// AdaScalePipeline's DFF branch (adaptive key frames, tiny flow render,
// incremental flow, AdaScale on, no cap, unsnapped) from the public calls.
class TracedDff {
 public:
  TracedDff(ada::Detector* det, ada::ScaleRegressor* reg,
            const ada::Renderer& renderer, const ada::ScalePolicy& policy,
            const ada::ScaleSet& sreg, const ada::DffServingConfig& cfg,
            Tracer* tr)
      : det_(det), reg_(reg), renderer_(renderer), policy_(policy),
        sreg_(sreg), cfg_(cfg), tr_(tr) {}

  void reset() {
    has_key_ = false;
    since_key_ = 0;
    current_ = pending_ = kInitScale;
    acc_y_ = ada::Tensor();
    acc_x_ = ada::Tensor();
  }

  FrameRecord serve(int snippet, int frame, long seq, const ada::Scene& scene) {
    seq_ = seq;
    bool key = !has_key_ || since_key_ >= cfg_.max_interval;
    if (key) current_ = pending_;
    if (!key) {
      const int img_h = policy_.render_h(current_);
      const int img_w = policy_.render_w(current_);
      ada::Tensor cur_gray = flow_source(scene);
      ada::Tensor flow_y, flow_x;
      span("video.flow_ms", [&] {
        if (acc_y_.size() != 0) {
          ada::Tensor step_y, step_x;
          ada::block_matching_flow(prev_gray_, cur_gray, cfg_.flow, &step_y,
                                   &step_x);
          ada::compose_flow(acc_y_, acc_x_, step_y, step_x, &flow_y, &flow_x);
        } else {
          ada::block_matching_flow(key_gray_, cur_gray, cfg_.flow, &flow_y,
                                   &flow_x);
        }
      });
      ada::Tensor warped_gray;
      span("video.warp_ms", [&] {
        ada::bilinear_warp(key_gray_, flow_y, flow_x, &warped_gray);
      });
      const float residual = span("video.flow_ms", [&] {
        double r = 0.0;
        for (std::size_t i = 0; i < warped_gray.size(); ++i)
          r += std::abs(static_cast<double>(warped_gray[i]) - cur_gray[i]);
        return static_cast<float>(r / static_cast<double>(warped_gray.size()));
      });
      if (residual > cfg_.residual_threshold) {
        current_ = pending_;
        key = true;
      }
      if (!key) {
        ada::Tensor warped;
        span("video.warp_ms", [&] {
          ada::bilinear_warp(key_features_, flow_y, flow_x, &warped);
        });
        const float t = span("adascale.regressor_ms",
                             [&] { return reg_->predict(warped); });
        const int decoded = ada::decode_scale_target(t, current_, sreg_);
        const float jump =
            std::abs(static_cast<float>(decoded - current_)) /
            static_cast<float>(current_);
        if (jump >= cfg_.scale_jump_frac) {
          current_ = decoded;
          pending_ = decoded;
          key = true;
        }
        if (!key) {
          prev_gray_ = std::move(cur_gray);
          acc_y_ = std::move(flow_y);
          acc_x_ = std::move(flow_x);
          const ada::DetectionOutput out =
              span("detection.warp_heads_ms", [&] {
                return det_->detect_from_features(warped, img_h, img_w);
              });
          ++since_key_;
          return make_record(0, snippet, frame, current_, pending_, false,
                             out);
        }
      }
    }
    return refresh_key(snippet, frame, scene);
  }

 private:
  template <typename Fn>
  auto span(const char* name, Fn&& fn) -> decltype(fn()) {
    return tr_->span(0, name, 0, seq_, std::forward<Fn>(fn));
  }

  // Grayscale of a tiny dedicated render, resized to the key's feature grid.
  ada::Tensor flow_source(const ada::Scene& scene) {
    const ada::Tensor tiny = span("data.render_ms", [&] {
      return renderer_.render_at_scale(scene, cfg_.flow_render_scale, policy_);
    });
    return span("video.flow_ms", [&] {
      const ada::Tensor gray = ada::to_grayscale(tiny);
      ada::Tensor out;
      ada::bilinear_resize(gray, key_features_.h(), key_features_.w(), &out);
      return out;
    });
  }

  FrameRecord refresh_key(int snippet, int frame, const ada::Scene& scene) {
    const ada::Tensor image = span("data.render_ms", [&] {
      return renderer_.render_at_scale(scene, current_, policy_);
    });
    const ada::Tensor tiny = span("data.render_ms", [&] {
      return renderer_.render_at_scale(scene, cfg_.flow_render_scale, policy_);
    });
    span("detection.forward_ms", [&] { key_features_ = det_->forward(image); });
    const float t = span("adascale.regressor_ms",
                         [&] { return reg_->predict(key_features_); });
    span("video.flow_ms", [&] {
      const ada::Tensor gray = ada::to_grayscale(tiny);
      key_gray_ = ada::Tensor();
      ada::bilinear_resize(gray, key_features_.h(), key_features_.w(),
                           &key_gray_);
    });
    prev_gray_ = key_gray_;
    acc_y_ = ada::Tensor();
    acc_x_ = ada::Tensor();
    // The pipeline decodes on its cached copy of the key features, so the
    // heads run again here (detect_from_features on a foreign tensor).
    const ada::DetectionOutput out = span("detection.decode_nms_ms", [&] {
      return det_->detect_from_features(key_features_, image.h(), image.w());
    });
    pending_ = ada::decode_scale_target(t, current_, sreg_);
    has_key_ = true;
    since_key_ = 0;
    return make_record(0, snippet, frame, current_, pending_, true, out);
  }

  ada::Detector* det_;
  ada::ScaleRegressor* reg_;
  const ada::Renderer& renderer_;
  ada::ScalePolicy policy_;
  ada::ScaleSet sreg_;
  ada::DffServingConfig cfg_;
  Tracer* tr_;
  long seq_ = 0;

  bool has_key_ = false;
  int since_key_ = 0;
  int current_ = kInitScale, pending_ = kInitScale;
  ada::Tensor key_features_, key_gray_, prev_gray_, acc_y_, acc_x_;
};

// -------------------------------------------------------------- reporting

struct Collected {
  const std::vector<ada::Snippet>* pool = nullptr;
  const ada::Dataset* ds = nullptr;
  Window window;
  SetupSummary setup;
  std::vector<std::string> failures;
  double map = 0.0;
  double peak_rss_mb = 0.0;  ///< taken right after the window
};

void add_failure(std::vector<std::string>* failures, const std::string& what,
                 const std::string& err) {
  if (!err.empty()) failures->push_back(what + ": " + err);
}

// The checks every workload's window must pass, plus repeatability of every
// frame served twice; c->map must already be set.
void common_checks(Collected* c, bool snapped) {
  const ada::DetectorConfig dcfg;
  const std::vector<FrameRecord>& first = c->window.first;
  add_failure(&c->failures, "served",
              check_served(c->window.offered, c->window.served));
  add_failure(&c->failures, "repeated frames match their first serving",
              c->window.repeat_error);
  add_failure(&c->failures, "scales",
              check_scales(first, ada::ScaleSet::reg_default(),
                           c->ds->scale_policy(), snapped));
  add_failure(&c->failures, "boxes", check_boxes_inside(first));
  add_failure(&c->failures, "top_k", check_top_k(first, dcfg.top_k));
  add_failure(&c->failures, "nms", check_nms(first, dcfg.nms_threshold));
  add_failure(&c->failures, "map floor",
              check_map_floor(c->map, c->ds->catalog().num_classes()));
}

void end_to_end_metrics(const Collected& c, RunResult* r) {
  r->metrics.push_back({"setup_s", "s", c.setup.total_s});
  r->metrics.push_back(
      {"fps", "1/s", static_cast<double>(c.window.served) / c.window.wall_s});
  const Summary lat = summarize(c.window.latency_ms);
  char line[160];
  std::snprintf(line, sizeof line,
                "latency: %zu frames, median %.3f ms, p%g %.3f ms (the "
                "highest percentile with ten frames beyond it)",
                lat.n, lat.median, lat.tail_q * 100.0, lat.tail);
  r->notes.push_back(line);
  r->metrics.push_back({"latency_p50_ms", "ms", lat.median});
  const auto p99 = tail_percentile(c.window.latency_ms, 0.99);
  if (!p99) r->check_failures.push_back("latency: too few frames for a p99");
  r->metrics.push_back({"latency_p99_ms", "ms", p99.value_or(0.0)});
  r->metrics.push_back({"map", "share", c.map});
  r->metrics.push_back({"peak_rss_mb", "MB", c.peak_rss_mb});
}

// Per-layer facts a workload measured besides the spans.
struct LayerFacts {
  double plans_built = 0, races_after_warmup = 0, int8_steps = 0;
  double resident_weight_mb = 0, busy_share = 0;
  ada::Detector* macs_det = nullptr;
};

void per_layer_metrics(const Collected& c, const Tracer& tr,
                       const LayerFacts& f, bool dff, RunResult* r) {
  const std::vector<FrameRecord>& first = c.window.first;
  const double frames = static_cast<double>(c.window.served);
  const std::map<std::string, double> totals = tr.total_ms();
  for (const char* name :
       {"data.render_ms", "detection.forward_ms", "detection.decode_nms_ms",
        "detection.warp_heads_ms", "video.flow_ms", "video.warp_ms",
        "adascale.regressor_ms"}) {
    const auto it = totals.find(name);
    r->metrics.push_back(
        {name, "ms", it == totals.end() ? 0.0 : it->second / frames});
  }
  // Backbone MACs: every frame runs it, except DFF warp frames.
  double macs = 0.0, scale = 0.0, keys = 0.0;
  for (const FrameRecord& fr : first) {
    if (!dff || fr.key)
      macs += static_cast<double>(
          f.macs_det->forward_macs(fr.image_h, fr.image_w));
    scale += fr.scale;
    keys += fr.key ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(first.size());
  r->metrics.push_back({"detection.macs_per_frame", "MACs", macs / n});
  r->metrics.push_back({"adascale.mean_scale", "px", scale / n});
  r->metrics.push_back({"video.key_frames", "count", keys});
  r->metrics.push_back({"exec_plan.plans_built", "count", f.plans_built});
  r->metrics.push_back({"exec_plan.autotune_races_after_warmup", "count",
                        f.races_after_warmup});
  r->metrics.push_back({"exec_plan.int8_steps", "count", f.int8_steps});
  r->metrics.push_back({"runtime.worker_busy_share", "share", f.busy_share});
  r->metrics.push_back(
      {"runtime.resident_weight_mb", "MB", f.resident_weight_mb});
  r->metrics.push_back({"setup.load_s", "s", c.setup.load_s});
  r->metrics.push_back({"setup.calibrate_s", "s", c.setup.calibrate_s});
  r->metrics.push_back({"setup.warmup_s", "s", c.setup.warmup_s});
  r->metrics.push_back({"trace.fps", "1/s", frames / c.window.wall_s});
}

void write_trace(const Tracer& tr, const std::string& path, RunResult* r) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << tr.chrome_json();
  out.close();
  if (!out)
    r->check_failures.push_back("trace: could not write " + path);
  else
    r->notes.push_back("trace: " + std::to_string(tr.span_count()) +
                       " spans written to " + path);
}

void finish(Collected* c, RunResult* r) {
  r->attempted = c->window.offered;
  r->failed = c->window.offered - c->window.served;
  r->notes.push_back("window: " + std::to_string(c->window.served) +
                     " frames in " + std::to_string(c->window.wall_s) + " s");
  for (std::string& f : c->failures) r->check_failures.push_back(std::move(f));
}

// Records of a runner pass over `jobs` (pool indices): job k ran on stream
// k % N, which resets at each of its snippets.  `ms`, when given, gets each
// record's detect + regress time as its pipeline reported it.
std::vector<FrameRecord> stream_records(const ada::MultiStreamResult& res,
                                        const std::vector<ada::Snippet>& pool,
                                        const std::vector<int>& jobs,
                                        std::vector<double>* ms = nullptr) {
  std::vector<FrameRecord> out;
  const std::size_t n = res.streams.size();
  for (const ada::StreamOutput& so : res.streams) {
    std::size_t i = 0;
    for (std::size_t k = static_cast<std::size_t>(so.stream_id);
         k < jobs.size(); k += n) {
      const int j = jobs[k];
      for (int f = 0; f < pool[static_cast<std::size_t>(j)].num_frames();
           ++f, ++i) {
        if (i >= so.frames.size()) return out;  // check_identical reports it
        const ada::AdaFrameOutput& o = so.frames[i];
        out.push_back(make_record(so.stream_id, j, f, o.scale_used,
                                  o.next_scale, o.dff_key, o.detections));
        if (ms != nullptr) ms->push_back(o.total_ms());
      }
    }
  }
  return out;
}

std::vector<const ada::Snippet*> snippet_ptrs(
    const std::vector<ada::Snippet>& pool, const std::vector<int>& jobs) {
  std::vector<const ada::Snippet*> out;
  for (int j : jobs) out.push_back(&pool[static_cast<std::size_t>(j)]);
  return out;
}

// `jobs` through the single-stream pipeline's configuration, spread over
// host_nproc() streams of a MultiStreamRunner so they take all cores.
// Streams reset at every snippet and pooled contexts are bit-identical, so
// each frame comes out as one AdaScalePipeline serving it would produce it.
// Records come back in pool order, as stream 0.
std::vector<FrameRecord> on_all_cores(const Models& m,
                                      const std::vector<ada::Snippet>& pool,
                                      const std::vector<int>& jobs,
                                      const ada::ScalePolicy& policy,
                                      const ada::ScaleSet& sreg,
                                      const ada::DffServingConfig* dff) {
  ada::MultiStreamRunner runner(m.det, m.reg, &m.harness->renderer(), policy,
                                sreg, host_nproc(), kInitScale);
  if (dff != nullptr) runner.set_dff(*dff);
  std::vector<FrameRecord> out =
      stream_records(runner.run(snippet_ptrs(pool, jobs)), pool, jobs);
  for (FrameRecord& r : out) r.stream = 0;
  return sorted(std::move(out));
}

// ------------------------------------------------------------- workloads

// Single-stream workloads: adascale_single (fp32, unsnapped Algorithm 1)
// and dff_mixed_int8 (mixed precision + adaptive-keyframe DFF).
RunResult run_single_stream(const RunOptions& opt, bool dff) {
  RunResult r;
  const ada::Dataset ds = training_dataset();
  const std::vector<ada::Snippet> pool = make_pool(ds, opt.seed);
  const ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  const ada::ScalePolicy& policy = ds.scale_policy();
  const ada::DffServingConfig dff_cfg;

  Models m;
  std::unique_ptr<ada::AdaScalePipeline> pipe;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < (dff ? kSetupRepeatsInt8 : kSetupRepeatsFp32); ++i) {
    pipe.reset();
    m = Models{};
    // Each setup races the int8 kernels afresh, as a new process would.
    ada::clear_autotune_cache();
    SetupTimes t;
    Clock::time_point t0 = Clock::now();
    m = load_models(opt.cache_dir);
    t.load_s = seconds_since(t0);
    t0 = Clock::now();
    if (dff) {
      m.harness->prepare_mixed_precision(m.det, m.reg);
      t.calibrate_s = seconds_since(t0);
    } else {
      pin_fp32(m);
    }
    t0 = Clock::now();
    pipe = std::make_unique<ada::AdaScalePipeline>(
        m.det, m.reg, &m.harness->renderer(), policy, sreg, kInitScale);
    if (dff) pipe->set_dff(dff_cfg);
    warm_up(m.det, m.reg, *m.harness);
    t.warmup_s = seconds_since(t0);
    setups.push_back(t);
  }

  Collected c;
  c.pool = &pool;
  c.ds = &ds;
  c.setup = summarize_setups(setups);
  r.notes.push_back("peak RSS after set-up " + std::to_string(peak_rss_mb()) +
                    " MB");
  const std::size_t races_before = ada::autotune_cache_size();
  const ada::Renderer& renderer = m.harness->renderer();
  auto scene_at = [&](int s, int f) -> const ada::Scene& {
    return pool[static_cast<std::size_t>(s)]
        .frames[static_cast<std::size_t>(f)];
  };

  // The pipeline as served: AdaScalePipeline::process, one call per frame.
  auto pipeline_frame = [&](int s, int f, double* ms) {
    if (f == 0) pipe->reset();
    const Clock::time_point t0 = Clock::now();
    const ada::AdaFrameOutput out = pipe->process(scene_at(s, f));
    *ms = ms_since(t0);
    return make_record(0, s, f, out.scale_used, out.next_scale, out.dff_key,
                       out.detections);
  };

  // The traced re-implementations of the same loop.
  Tracer tr(1);
  int target = kInitScale;
  long seq = 0;
  const ada::ModelPool::Lease own{m.det, m.reg, -1};
  auto algorithm1_frame = [&](int s, int f, double* ms) {
    if (f == 0) target = kInitScale;
    const Clock::time_point t0 = Clock::now();
    FrameRecord rec = traced_algorithm1(&tr, 0, 0, seq++, s, f, scene_at(s, f),
                                        &target, /*snap=*/false, nullptr, own,
                                        renderer, policy, sreg);
    *ms = ms_since(t0);
    return rec;
  };
  TracedDff traced_dff(m.det, m.reg, renderer, policy, sreg, dff_cfg, &tr);
  auto dff_frame = [&](int s, int f, double* ms) {
    if (f == 0) traced_dff.reset();
    const Clock::time_point t0 = Clock::now();
    FrameRecord rec = traced_dff.serve(s, f, seq++, scene_at(s, f));
    *ms = ms_since(t0);
    return rec;
  };

  std::function<FrameRecord(int, int, double*)> window_frame = pipeline_frame;
  if (opt.trace) {
    if (dff)
      window_frame = dff_frame;
    else
      window_frame = algorithm1_frame;
  }
  c.window =
      serve_single_stream(pool, kPoolSnippets, opt.seconds, window_frame);
  const std::size_t races_after = ada::autotune_cache_size();
  c.peak_rss_mb = peak_rss_mb();
  c.map = frames_map(c.window.first, pool, ds.catalog(), policy);

  // Checks against computations made apart from the measured window.
  if (opt.trace) {
    add_failure(&c.failures,
                dff ? "traced DFF matches AdaScalePipeline"
                    : "traced Algorithm 1 matches AdaScalePipeline",
                check_identical(
                    snippets_in(c.window.first, 0, kTracedCheckSnippets),
                    serve_single_stream(pool, kTracedCheckSnippets, 0.0,
                                        pipeline_frame)
                        .first));
  } else if (dff) {
    add_failure(&c.failures, "window matches a runner pass",
                check_identical(
                    snippets_in(c.window.first, 0, kReplaySnippets),
                    on_all_cores(m, pool, job_range(0, kReplaySnippets), policy,
                                 sreg, &dff_cfg)));
  } else {
    add_failure(
        &c.failures, "Algorithm 1 replay matches AdaScalePipeline",
        check_identical(
            serve_single_stream(pool, kReplaySnippets, 0.0, algorithm1_frame)
                .first,
            snippets_in(c.window.first, 0, kReplaySnippets)));
  }
  common_checks(&c, /*snapped=*/false);
  std::string bar_miss;
  if (dff) {
    add_failure(&c.failures, "key frames",
                check_keyframes(c.window.first, dff_cfg.max_interval));
    // fp32 DFF from freshly loaded weights, against the served models.
    Models ref = load_models(opt.cache_dir);
    pin_fp32(ref);
    // The bar is judged on the harness's validation snippets, the frames
    // tools/calibrate judges it on.  They are the same for every seed; over
    // the window's frames the gap moves with the seed by about a point
    // either way (README).
    const std::vector<ada::Snippet>& val = ds.val_snippets();
    auto val_dff_map = [&](const Models& models) {
      return frames_map(
          on_all_cores(models, val, job_range(0, static_cast<int>(val.size())),
                       policy, sreg, &dff_cfg),
          val, ds.catalog(), policy);
    };
    const double val_map = val_dff_map(m);
    const double val_ref_map = val_dff_map(ref);
    r.notes.push_back("validation snippets: mixed-precision DFF mAP " +
                      std::to_string(val_map) + ", fp32 DFF mAP " +
                      std::to_string(val_ref_map));
    bar_miss = check_map_bar(val_map, val_ref_map, kMixedPrecisionBar);
  }

  if (opt.trace) {
    LayerFacts f;
    f.macs_det = m.det;
    f.plans_built = static_cast<double>(m.det->cached_plan_count());
    f.races_after_warmup = static_cast<double>(races_after - races_before);
    f.int8_steps = static_cast<double>(int8_steps_at_600(m.det, policy));
    f.resident_weight_mb = param_mb(m.det, m.reg);
    f.busy_share = c.window.busy_ms / (1e3 * c.window.wall_s);
    per_layer_metrics(c, tr, f, dff, &r);
    write_trace(tr, opt.trace_out, &r);
  } else {
    end_to_end_metrics(c, &r);
  }
  r.notes.push_back("autotune races in window " +
                    std::to_string(races_after - races_before));
  finish(&c, &r);
  if (dff) {
    // The bar comparison is one more operation of every run.  Missing the
    // bar fails that operation; the outputs checked above stay correct.
    ++r.attempted;
    if (!bar_miss.empty()) {
      ++r.failed;
      r.notes.push_back("failed: mixed-precision bar against fp32 DFF "
                        "(validation snippets): " + bar_miss);
    }
  }
  return r;
}

// The stream table's loop from the outside: `workers` threads take one
// ready stream at a time, serve ONE traced Algorithm-1 frame on a context
// leased from the runner's own pool, and hand the stream back.  Job k goes
// to stream k % kStreams, as in MultiStreamRunner.
std::vector<FrameRecord> traced_table_pass(
    const std::vector<ada::Snippet>& pool, const std::vector<int>& jobs,
    ada::ContextPool* contexts, int workers, Tracer* tr,
    const ada::Renderer& renderer, const ada::ScalePolicy& policy,
    const ada::ScaleSet& sreg, double* busy_ms) {
  struct Cursor {
    std::vector<int> jobs;
    std::size_t job = 0;
    int frame = 0;
    int target = kInitScale;
    long seq = 0;
    std::vector<FrameRecord> out;
  };
  std::vector<Cursor> streams(kStreams);
  long remaining = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    streams[k % kStreams].jobs.push_back(jobs[k]);
    remaining += pool[static_cast<std::size_t>(jobs[k])].num_frames();
  }
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  for (int s = 0; s < kStreams; ++s)
    if (!streams[static_cast<std::size_t>(s)].jobs.empty()) ready.push_back(s);
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);

  auto worker_main = [&](int lane) {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [&] { return !ready.empty() || remaining <= 0; });
      if (remaining <= 0) return;
      const int sid = ready.front();
      ready.pop_front();
      // This worker owns stream `sid` until it goes back on the deque.
      Cursor& c = streams[static_cast<std::size_t>(sid)];
      lk.unlock();
      const auto j = static_cast<std::size_t>(c.jobs[c.job]);
      if (c.frame == 0) c.target = kInitScale;
      const Clock::time_point t0 = Clock::now();
      c.out.push_back(traced_algorithm1(
          tr, lane, sid, c.seq++, static_cast<int>(j), c.frame,
          pool[j].frames[static_cast<std::size_t>(c.frame)], &c.target,
          /*snap=*/true, contexts, {}, renderer, policy, sreg));
      busy[static_cast<std::size_t>(lane)] += ms_since(t0);
      if (++c.frame == pool[j].num_frames()) {
        c.frame = 0;
        ++c.job;
      }
      lk.lock();
      --remaining;
      if (c.job < c.jobs.size()) ready.push_back(sid);
      cv.notify_all();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < workers; ++i) threads.emplace_back(worker_main, i);
  for (std::thread& t : threads) t.join();
  std::vector<FrameRecord> records;
  for (Cursor& c : streams)
    for (FrameRecord& fr : c.out) records.push_back(std::move(fr));
  for (double b : busy) *busy_ms += b;
  return records;
}

// streams_16: 16 streams on MultiStreamRunner::run, snapped scales, fp32,
// one kernel thread per table worker.  The window serves the whole pool at
// least kStreamPasses times, in rounds of one snippet per stream (a stream's k-th round job
// is its k-th job of the whole pool, so outputs equal one run over the
// pool).
RunResult run_streams(const RunOptions& opt) {
  RunResult r;
  const ada::Dataset ds = training_dataset();
  const std::vector<ada::Snippet> pool = make_pool(ds, opt.seed);
  const ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  const ada::ScalePolicy& policy = ds.scale_policy();
  const int rounds = kPoolSnippets / kStreams;
  // MultiStreamRunner::run's own worker count.
  const int workers = std::max(
      1, std::min(kStreams,
                  static_cast<int>(std::thread::hardware_concurrency())));

  Models m;
  std::unique_ptr<ada::MultiStreamRunner> runner;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeatsFp32; ++i) {
    runner.reset();
    m = Models{};
    SetupTimes t;
    Clock::time_point t0 = Clock::now();
    m = load_models(opt.cache_dir);
    pin_fp32(m);
    runner = std::make_unique<ada::MultiStreamRunner>(
        m.det, m.reg, &m.harness->renderer(), policy, sreg, kStreams,
        kInitScale, /*snap_scales=*/true);
    t.load_s = seconds_since(t0);
    t0 = Clock::now();
    // The contexts share the master's plan cache, so this warms them all.
    ada::ModelTable* table = runner->model_table();
    warm_up(table->master_detector(), table->master_regressor(), *m.harness);
    t.warmup_s = seconds_since(t0);
    setups.push_back(t);
  }
  ada::ModelTable* table = runner->model_table();
  ada::Detector* master = table->master_detector();
  ada::ContextPool* contexts =
      table->pool_for(master->execution_policy(),
                      table->master_regressor()->execution_policy());

  Collected c;
  c.pool = &pool;
  c.ds = &ds;
  c.setup = summarize_setups(setups);
  r.notes.push_back("peak RSS after set-up " + std::to_string(peak_rss_mb()) +
                    " MB");
  const std::size_t races_before = ada::autotune_cache_size();
  Tracer tr(workers);
  // Each frame's best latency over its servings, by (stream, snippet, frame).
  std::map<std::tuple<int, int, int>, double> best_ms;
  auto round_jobs = [&](int k) {
    return job_range(k * kStreams, (k + 1) * kStreams);
  };
  // The window: whole rounds, wrapping round the pool, until it has been
  // served kStreamPasses times and the run length has elapsed.
  for (int k = 0;; ++k) {
    if (k >= kStreamPasses * rounds && c.window.wall_s >= opt.seconds) break;
    const std::vector<int> jobs = round_jobs(k % rounds);
    std::vector<FrameRecord> records;
    const Clock::time_point t0 = Clock::now();
    if (opt.trace) {
      records = traced_table_pass(pool, jobs, contexts, workers, &tr,
                                  m.harness->renderer(), policy, sreg,
                                  &c.window.busy_ms);
    } else {
      // run() times no single call from outside; its per-frame latency is
      // the detect + regress time each pipeline reports (render excluded).
      std::vector<double> ms;
      records =
          stream_records(runner->run(snippet_ptrs(pool, jobs)), pool, jobs, &ms);
      for (std::size_t i = 0; i < records.size(); ++i) {
        const auto [it, fresh] = best_ms.try_emplace(
            {records[i].stream, records[i].snippet, records[i].frame}, ms[i]);
        if (!fresh) it->second = std::min(it->second, ms[i]);
      }
    }
    c.window.wall_s += seconds_since(t0);
    c.window.offered += frames_of(pool, jobs);
    c.window.served += static_cast<long>(records.size());
    for (FrameRecord& fr : records) {
      if (k < rounds)
        c.window.first.push_back(std::move(fr));
      else
        check_repeat(&c.window, fr);
    }
  }
  const std::size_t races_after = ada::autotune_cache_size();
  c.peak_rss_mb = peak_rss_mb();
  c.map = frames_map(c.window.first, pool, ds.catalog(), policy);
  common_checks(&c, /*snapped=*/true);

  // One worker, outside the window: the first rounds must come out the same.
  const std::vector<int> serial_jobs = job_range(0, kSerialRounds * kStreams);
  const std::vector<FrameRecord> serial = sorted(stream_records(
      runner->run_serial(snippet_ptrs(pool, serial_jobs)), pool, serial_jobs));
  add_failure(&c.failures,
              opt.trace ? "traced table matches run_serial"
                        : "run matches run_serial",
              check_identical(sorted(snippets_in(c.window.first, 0,
                                                 kSerialRounds * kStreams)),
                              serial));

  if (opt.trace) {
    const ada::MultiStreamResult res =
        runner->run(snippet_ptrs(pool, serial_jobs));
    add_failure(&c.failures, "run matches run_serial",
                check_identical(sorted(stream_records(res, pool, serial_jobs)),
                                serial));
    double busy = 0.0;
    for (const ada::StreamOutput& so : res.streams) busy += so.busy_ms;
    LayerFacts f;
    f.macs_det = master;
    f.plans_built = static_cast<double>(master->cached_plan_count());
    f.races_after_warmup = static_cast<double>(races_after - races_before);
    f.int8_steps = static_cast<double>(int8_steps_at_600(master, policy));
    f.resident_weight_mb =
        static_cast<double>(table->resident_weight_bytes()) /
        (1024.0 * 1024.0);
    f.busy_share = busy / (res.wall_ms * static_cast<double>(workers));
    per_layer_metrics(c, tr, f, /*dff=*/false, &r);
    write_trace(tr, opt.trace_out, &r);
  } else {
    for (const auto& kv : best_ms) c.window.latency_ms.push_back(kv.second);
    end_to_end_metrics(c, &r);
  }
  r.notes.push_back("table workers " + std::to_string(workers));
  finish(&c, &r);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "adascale_single", "dff_mixed_int8", "streams_16"};
  return names;
}

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool prepare_weights(const std::string& cache_dir) {
  namespace fs = std::filesystem;
  auto files = [&] {
    std::size_t n = 0;
    std::error_code ec;
    if (fs::exists(cache_dir, ec))
      for (auto it = fs::directory_iterator(cache_dir, ec);
           !ec && it != fs::directory_iterator(); it.increment(ec))
        ++n;
    return n;
  };
  const std::size_t before = files();
  load_models(cache_dir);
  return files() != before;
}

RunResult run_workload(const RunOptions& opt) {
  if (opt.workload == "streams_16") return run_streams(opt);
  return run_single_stream(opt, /*dff=*/opt.workload == "dff_mixed_int8");
}

}  // namespace framebench
