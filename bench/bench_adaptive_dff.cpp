// Extension bench: flow-quality-triggered key frames (adaptive DFF) vs the
// fixed-interval DFF of the paper's Fig. 7, both with and without AdaScale.
//
// Expected shape: on quiet clips adaptive DFF stretches key intervals beyond
// the fixed schedule (faster at similar mAP); on fast-changing clips it
// refreshes sooner (more accurate at similar cost).  AdaScale composes with
// either scheduler.  This goes beyond the AdaScale paper (its related-work
// Sec. 2.2, "Both" — cf. Zhu et al. 2018a).
#include <cstdio>

#include "experiments/harness.h"
#include "util/table.h"

using namespace ada;

namespace {

struct Row {
  MethodRun run;
  double key_share;
};

/// One DFF configuration over the validation snippets, with the share of
/// frames that ran the backbone (AdaFrameOutput::dff_key).
Row run_row(Harness* h, const char* label, Detector* det, ScaleRegressor* reg,
            const DffServingConfig& cfg) {
  std::vector<SnippetRun> runs =
      h->run_dff(det, reg, cfg, ScaleSet::reg_default());
  long keys = 0, frames = 0;
  for (const SnippetRun& r : runs) {
    keys += r.key_frames;
    frames += static_cast<long>(r.frame_dets.size());
  }
  return {h->evaluate(label, std::move(runs)),
          frames > 0 ? static_cast<double>(keys) / frames : 0.0};
}

/// Adaptive key frames on the warp residual alone: a forced refresh after
/// 20 warp frames and no scale-jump trigger.
DffServingConfig adaptive(float residual_threshold, bool with_adascale) {
  DffServingConfig cfg;
  cfg.policy = DffServingConfig::Keyframe::kAdaptive;
  cfg.residual_threshold = residual_threshold;
  cfg.max_interval = 20;
  cfg.scale_jump_frac = 0.0f;
  cfg.adascale = with_adascale;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== Extension: adaptive key-frame DFF (SynthVID) ===\n");
  Harness h = make_vid_harness(default_cache_dir());
  Detector* det = h.detector(ScaleSet::train_default());
  ScaleRegressor* reg =
      h.regressor(ScaleSet::train_default(), h.default_regressor_config());

  DffServingConfig fixed;  // the paper's DFF: a key every 10 frames
  fixed.policy = DffServingConfig::Keyframe::kFixedInterval;
  fixed.key_interval = 10;
  fixed.adascale = false;
  DffServingConfig fixed_ada = fixed;
  fixed_ada.adascale = true;

  std::vector<Row> rows;
  rows.push_back(run_row(&h, "DFF (fixed k=10)", det, reg, fixed));
  rows.push_back(
      run_row(&h, "adaptive (thr 0.02)", det, reg, adaptive(0.02f, false)));
  rows.push_back(
      run_row(&h, "adaptive (thr 0.06)", det, reg, adaptive(0.06f, false)));
  rows.push_back(run_row(&h, "DFF+AdaScale (fixed)", det, reg, fixed_ada));
  rows.push_back(run_row(&h, "adaptive+AdaScale (0.02)", det, reg,
                         adaptive(0.02f, true)));

  TextTable table({"method", "mAP(%)", "ms/frame", "key share(%)"});
  for (const Row& r : rows)
    table.add_row({r.run.label, fmt(100.0 * r.run.eval.map, 1),
                   fmt(r.run.mean_ms, 1), fmt(100.0 * r.key_share, 1)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("summary: loose threshold uses %.0f%% keys at %+.1f mAP vs "
              "fixed DFF; AdaScale composes with the adaptive scheduler\n",
              100.0 * rows[2].key_share,
              100.0 * (rows[2].run.eval.map - rows[0].run.eval.map));
  return 0;
}
