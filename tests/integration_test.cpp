// End-to-end integration: train a small detector + regressor on a tiny
// SynthVID split and verify the whole AdaScale methodology holds together:
// the detector learns to detect, the optimal-scale metric produces in-range
// labels, the regressor trains, and Algorithm 1 runs with sane evaluation
// output through the experiment harness.
//
// Kept deliberately small (a few seconds); the statistically meaningful
// numbers come from the bench binaries.
#include <gtest/gtest.h>

#include <filesystem>

#include "experiments/harness.h"

namespace ada {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  /// Conv MACs of one full forward at `scale` — exact integers, so sums
  /// and means of them compare exactly.
  static double macs(const Detector* det, int scale) {
    const ScalePolicy& policy = harness()->dataset().scale_policy();
    return static_cast<double>(
        det->forward_macs(policy.render_h(scale), policy.render_w(scale)));
  }

  /// Mean full-forward MACs over one scale per frame.
  static double mean_macs(const Detector* det, const std::vector<int>& scales) {
    double total = 0.0;
    for (int s : scales) total += macs(det, s);
    return total / static_cast<double>(scales.size());
  }

  // One harness shared by all integration tests (training happens once).
  static Harness* harness() {
    static Harness* h = [] {
      HarnessSizes sizes;
      sizes.train_snippets = 8;
      sizes.val_snippets = 3;
      sizes.seed = 555;
      // Shared disk cache: the first integration test in the suite trains
      // (about two minutes), the rest load instantly.  ctest runs these
      // serially, so there is no cache race.
      return new Harness(
          Dataset::synth_vid(sizes.train_snippets, sizes.val_snippets,
                             sizes.seed),
          "/tmp/ada_integration_cache");
    }();
    return h;
  }
};

TEST_F(IntegrationFixture, DetectorLearnsToDetect) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun run = h->evaluate("MS/SS", h->run_fixed(det, 600));
  // An untrained detector gets ~0 mAP; a trained one must clear a floor.
  EXPECT_GT(run.eval.map, 0.15f) << "detector failed to learn";
  EXPECT_GT(run.mean_ms, 0.0);
}

TEST_F(IntegrationFixture, OptimalScaleLabelsAreInRange) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  const Renderer renderer = h->dataset().make_renderer();
  auto frames = h->dataset().train_frames();
  frames.resize(6);
  const auto labels = generate_optimal_scale_labels(
      det, renderer, h->dataset().scale_policy(), frames,
      ScaleSet::reg_default(), OptimalScaleConfig{});
  ASSERT_EQ(labels.size(), 6u);
  for (int m : labels) EXPECT_TRUE(ScaleSet::reg_default().contains(m));
}

TEST_F(IntegrationFixture, MetricIsDeterministic) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  const Renderer renderer = h->dataset().make_renderer();
  const Scene& scene = h->dataset().val_snippets()[0].frames[0];
  const auto m1 =
      compute_scale_metric(det, renderer, h->dataset().scale_policy(), scene,
                           ScaleSet::reg_default(), OptimalScaleConfig{});
  const auto m2 =
      compute_scale_metric(det, renderer, h->dataset().scale_policy(), scene,
                           ScaleSet::reg_default(), OptimalScaleConfig{});
  EXPECT_EQ(m1.optimal_scale, m2.optimal_scale);
  EXPECT_EQ(m1.n_fg, m2.n_fg);
}

TEST_F(IntegrationFixture, AdaScaleRunsAndStaysInRange) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  MethodRun run = h->evaluate("MS/AdaScale",
                              h->run_adascale(det, reg, ScaleSet::reg_default()));
  EXPECT_FALSE(run.used_scales.empty());
  for (int s : run.used_scales) {
    EXPECT_GE(s, 128);
    EXPECT_LE(s, 600);
  }
  EXPECT_GT(run.eval.map, 0.05f);
}

TEST_F(IntegrationFixture, MultiScaleSlowestRandomBetween) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  const ScaleSet sreg = ScaleSet::reg_default();
  MethodRun ss = h->evaluate("SS", h->run_fixed(det, 600));
  MethodRun ms = h->evaluate("MS", h->run_multiscale(det, sreg));
  MethodRun rnd = h->evaluate("Rnd", h->run_random(det, sreg, 1));
  // Work, not wall-clock.  Single-scale runs one forward at 600 per frame.
  EXPECT_EQ(ss.mean_macs, macs(det, 600));
  // Multi-shot testing runs every scale of S_reg on every frame: strictly
  // more work than single-scale.
  double all_scales = 0.0;
  for (int s : sreg.scales) all_scales += macs(det, s);
  EXPECT_EQ(ms.mean_macs, all_scales);
  EXPECT_GT(ms.mean_macs, ss.mean_macs * 1.2);
  // Random scaling runs one forward at the drawn scale: cheaper than
  // always-600.
  EXPECT_EQ(rnd.mean_macs, mean_macs(det, rnd.used_scales));
  EXPECT_LT(rnd.mean_macs, ss.mean_macs * 1.05);
}

TEST_F(IntegrationFixture, DffFasterThanFullPerFrame) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  DffServingConfig cfg;  // plain DFF at 600, a key every 5 frames
  cfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  cfg.key_interval = 5;
  cfg.adascale = false;
  std::vector<SnippetRun> runs =
      h->run_dff(det, reg, cfg, ScaleSet::reg_default());
  long keys = 0, frames = 0;
  for (const Snippet& snip : h->dataset().val_snippets()) {
    keys += (snip.num_frames() + 4) / 5;
    frames += snip.num_frames();
  }
  long run_keys = 0;
  for (const SnippetRun& run : runs) run_keys += run.key_frames;
  EXPECT_EQ(run_keys, keys);
  MethodRun dff = h->evaluate("DFF", std::move(runs));
  MethodRun full = h->evaluate("full", h->run_fixed(det, 600));
  // Work, not wall-clock: key frames run the full forward, warp frames the
  // heads alone.
  const ScalePolicy& policy = h->dataset().scale_policy();
  const double heads = static_cast<double>(
      det->head_macs(policy.render_h(600), policy.render_w(600)));
  EXPECT_EQ(full.mean_macs, macs(det, 600));
  EXPECT_EQ(dff.mean_macs,
            (static_cast<double>(keys) * macs(det, 600) +
             static_cast<double>(frames - keys) * heads) /
                static_cast<double>(frames));
  EXPECT_LT(dff.mean_macs, full.mean_macs);
}

TEST_F(IntegrationFixture, SeqNmsDoesNotCrashAndKeepsMapReasonable) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  auto runs = h->run_fixed(det, 600);
  MethodRun base = h->evaluate("base", runs);
  SeqNmsConfig cfg;
  MethodRun seq = h->evaluate("seqnms", h->run_fixed(det, 600), &cfg);
  // Seq-NMS may help or mildly hurt on tiny data, but must stay in the same
  // ballpark and not destroy the evaluation.
  EXPECT_GT(seq.eval.map, base.eval.map * 0.5f);
}

TEST_F(IntegrationFixture, EvaluateReportsScaleHistogramAndMacs) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun run = h->evaluate("SS", h->run_fixed(det, 240));
  for (int s : run.used_scales) EXPECT_EQ(s, 240);
  EXPECT_GT(run.mean_macs, 0.0);
  EXPECT_GT(run.fps, 0.0);
}


TEST_F(IntegrationFixture, OracleRunnerUsesPerFrameOptimalScales) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  MethodRun oracle = h->evaluate("oracle", h->run_oracle(det, ScaleSet::reg_default()));
  ASSERT_FALSE(oracle.used_scales.empty());
  for (int s : oracle.used_scales)
    EXPECT_TRUE(ScaleSet::reg_default().contains(s));
  // The oracle is charged one forward at each frame's chosen scale, so it
  // must not cost more than always running 600 (it can only choose 600 or
  // cheaper).
  MethodRun fixed = h->evaluate("fixed", h->run_fixed(det, 600));
  EXPECT_EQ(oracle.mean_macs, mean_macs(det, oracle.used_scales));
  EXPECT_LE(oracle.mean_macs, fixed.mean_macs * 1.1);
}

TEST_F(IntegrationFixture, SameFrameVariantCostsTwoDetections) {
  Harness* h = harness();
  Detector* det = h->detector(ScaleSet::train_default());
  ScaleRegressor* reg = h->regressor(ScaleSet::train_default(),
                                     h->default_regressor_config());
  MethodRun lagged = h->evaluate(
      "lagged", h->run_adascale(det, reg, ScaleSet::reg_default()));
  MethodRun same = h->evaluate(
      "same", h->run_adascale_same_frame(det, reg, ScaleSet::reg_default()));
  // The lag-free variant detects every frame twice — at the scale inherited
  // from the previous frame (600 on a snippet's first), then at the scale
  // it decodes — where Algorithm 1 detects once: clearly more work.
  double same_total = 0.0;
  std::size_t i = 0;
  for (const Snippet& snip : h->dataset().val_snippets()) {
    int inherited = 600;
    for (int f = 0; f < snip.num_frames(); ++f, ++i) {
      const int chosen = same.used_scales[i];
      same_total += macs(det, inherited) + macs(det, chosen);
      inherited = chosen;
    }
  }
  ASSERT_EQ(i, same.used_scales.size());
  EXPECT_EQ(same.mean_macs,
            same_total / static_cast<double>(same.used_scales.size()));
  EXPECT_EQ(lagged.mean_macs, mean_macs(det, lagged.used_scales));
  EXPECT_GT(same.mean_macs, lagged.mean_macs * 1.2);
  for (int s : same.used_scales) {
    EXPECT_GE(s, 128);
    EXPECT_LE(s, 600);
  }
}

TEST_F(IntegrationFixture, CorruptCacheFallsBackToTraining) {
  // A truncated cache file must be detected and retrained, not crash or
  // silently load garbage.
  const std::string dir = "/tmp/ada_corrupt_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Dataset ds = Dataset::synth_vid(1, 1, 42);
  DetectorConfig dcfg;
  dcfg.num_classes = ds.catalog().num_classes();
  TrainConfig tcfg;
  tcfg.epochs = 1;
  auto first = train_or_load_detector(ds, dcfg, tcfg, dir);
  ASSERT_NE(first, nullptr);

  // Truncate every cache file in the directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    std::filesystem::resize_file(entry.path(), 8);

  auto second = train_or_load_detector(ds, dcfg, tcfg, dir);
  ASSERT_NE(second, nullptr);
  // Retrained deterministically: weights match the first training run.
  auto pa = first->parameters();
  auto pb = second->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::size_t k = 0; k < pa[i]->value.size(); ++k)
      ASSERT_EQ(pa[i]->value[k], pb[i]->value[k]);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ada
