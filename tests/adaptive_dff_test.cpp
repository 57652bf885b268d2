// Adaptive key-frame DFF: flow-quality-triggered refresh (extension beyond
// the paper; see video/adaptive_dff.h).
#include "video/adaptive_dff.h"

#include <gtest/gtest.h>

#include <cstring>

#include "data/dataset.h"
#include "tensor/conv2d.h"

namespace ada {
namespace {

/// MACs of the detection heads alone at an image size: the head entries of
/// the detector's conv stack, which is all a non-key frame runs on the
/// network.
long long head_macs(const Detector& det, int img_h, int img_w) {
  long long total = 0;
  for (const Detector::ConvStackEntry& e : det.conv_stack(img_h, img_w))
    if (std::strstr(e.name, "_head") != nullptr)
      total += conv2d_macs(e.spec, e.in_h, e.in_w);
  return total;
}

class AdaptiveDffFixture : public ::testing::Test {
 protected:
  AdaptiveDffFixture()
      : dataset_(Dataset::synth_vid(1, 2, 2024)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(3);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = detector_->feature_channels();
    Rng rng2(4);
    regressor_ = std::make_unique<ScaleRegressor>(rcfg, &rng2);
  }

  AdaptiveDffPipeline make(const AdaptiveDffConfig& cfg,
                           bool with_regressor = false) {
    return AdaptiveDffPipeline(detector_.get(),
                               with_regressor ? regressor_.get() : nullptr,
                               &renderer_, dataset_.scale_policy(), cfg,
                               ScaleSet::reg_default());
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(AdaptiveDffFixture, FirstFrameIsAlwaysKey) {
  AdaptiveDffPipeline p = make(AdaptiveDffConfig{});
  const auto out = p.process(dataset_.val_snippets()[0].frames[0]);
  EXPECT_TRUE(out.is_key);
  EXPECT_GT(out.backbone_ms, 0.0);
  EXPECT_EQ(out.warp_residual, 0.0f);
}

TEST_F(AdaptiveDffFixture, HugeThresholdPropagatesUntilMaxInterval) {
  AdaptiveDffConfig cfg;
  cfg.residual_threshold = 1e9f;  // never triggers
  cfg.max_interval = 4;
  AdaptiveDffPipeline p = make(cfg);
  const Snippet& snip = dataset_.val_snippets()[0];
  int keys = 0;
  for (int rep = 0; rep < 2; ++rep)
    for (const Scene& f : snip.frames) {
      const auto out = p.process(f);
      if (out.is_key) ++keys;
    }
  const int frames = 2 * snip.num_frames();
  // Keys only from the interval guard: 1 + floor((frames-1)/(max_interval+1))
  // at most; certainly far fewer than the frame count.
  EXPECT_GE(keys, 1);
  EXPECT_LE(keys, frames / cfg.max_interval + 1);
  EXPECT_NEAR(p.key_frame_share(), static_cast<double>(keys) / frames, 1e-9);
}

TEST_F(AdaptiveDffFixture, ZeroThresholdMakesEveryFrameKey) {
  AdaptiveDffConfig cfg;
  cfg.residual_threshold = -1.0f;  // every residual exceeds it
  AdaptiveDffPipeline p = make(cfg);
  const Snippet& snip = dataset_.val_snippets()[0];
  for (const Scene& f : snip.frames) EXPECT_TRUE(p.process(f).is_key);
  EXPECT_NEAR(p.key_frame_share(), 1.0, 1e-9);
}

TEST_F(AdaptiveDffFixture, NonKeyFramesAreCheaperThanKeys) {
  // Work, not wall-clock: a warp frame never runs the backbone (its
  // backbone_ms is exactly 0, a key frame's is not), so its network work is
  // the heads alone — strictly below a full forward at the served scale.
  AdaptiveDffConfig cfg;
  cfg.residual_threshold = 1e9f;
  AdaptiveDffPipeline p = make(cfg);
  int keys = 0, warps = 0;
  for (const Scene& f : dataset_.val_snippets()[0].frames) {
    const auto out = p.process(f);
    const int h = out.detections.image_h, w = out.detections.image_w;
    ASSERT_GT(h, 0);
    ASSERT_GT(w, 0);
    if (out.is_key) {
      EXPECT_GT(out.backbone_ms, 0.0);
      ++keys;
    } else {
      EXPECT_EQ(out.backbone_ms, 0.0);
      EXPECT_GT(out.flow_ms, 0.0);
      EXPECT_LT(head_macs(*detector_, h, w), detector_->forward_macs(h, w));
      ++warps;
    }
  }
  ASSERT_GT(keys, 0);
  ASSERT_GT(warps, 0);
}

TEST_F(AdaptiveDffFixture, ScaleChangesOnlyAtKeyFrames) {
  AdaptiveDffConfig cfg;
  cfg.residual_threshold = 0.02f;
  AdaptiveDffPipeline p = make(cfg, /*with_regressor=*/true);
  int last_scale = -1;
  bool last_was_key = true;
  for (const Snippet& snip : dataset_.val_snippets())
    for (const Scene& f : snip.frames) {
      const auto out = p.process(f);
      if (last_scale >= 0 && out.scale_used != last_scale) {
        EXPECT_TRUE(out.is_key) << "scale changed on a propagated frame";
      }
      last_scale = out.scale_used;
      last_was_key = out.is_key;
      EXPECT_GE(out.scale_used, 128);
      EXPECT_LE(out.scale_used, 600);
    }
  (void)last_was_key;
}

TEST_F(AdaptiveDffFixture, ResetRestartsKeySchedule) {
  AdaptiveDffConfig cfg;
  cfg.residual_threshold = 1e9f;
  AdaptiveDffPipeline p = make(cfg);
  const Snippet& snip = dataset_.val_snippets()[0];
  (void)p.process(snip.frames[0]);
  (void)p.process(snip.frames[1]);
  p.reset();
  const auto out = p.process(snip.frames[2]);
  EXPECT_TRUE(out.is_key);
}

}  // namespace
}  // namespace ada
