#include "video/dff.h"

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

struct DffFixture : public ::testing::Test {
  DffFixture()
      : dataset(Dataset::synth_vid(1, 1, 9)),
        renderer(dataset.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset.catalog().num_classes();
    dcfg.c1 = 4; dcfg.c2 = 6; dcfg.c3 = 8;
    Rng rng(5);
    detector = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = 8;
    rcfg.stream_channels = 4;
    regressor = std::make_unique<ScaleRegressor>(rcfg, &rng);
  }

  Dataset dataset;
  Renderer renderer;
  std::unique_ptr<Detector> detector;
  std::unique_ptr<ScaleRegressor> regressor;
};

TEST_F(DffFixture, KeyFramePattern) {
  DffConfig cfg;
  cfg.key_interval = 4;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  const auto& frames = dataset.val_snippets()[0].frames;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const DffFrameOutput out = p.process(frames[f]);
    EXPECT_EQ(out.is_key, f % 4 == 0) << "frame " << f;
  }
}

TEST_F(DffFixture, NonKeyFramesSkipBackbone) {
  DffConfig cfg;
  cfg.key_interval = 3;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  const auto& frames = dataset.val_snippets()[0].frames;
  for (std::size_t f = 0; f < 6; ++f) {
    const DffFrameOutput out = p.process(frames[f]);
    if (out.is_key) {
      EXPECT_GT(out.backbone_ms, 0.0);
      EXPECT_EQ(out.flow_ms, 0.0);
    } else {
      EXPECT_EQ(out.backbone_ms, 0.0);
      EXPECT_GT(out.flow_ms, 0.0);
    }
  }
}

TEST_F(DffFixture, NonKeyCheaperThanKey) {
  // Work, not wall-clock: a non-key frame never runs the backbone (its
  // backbone_ms is exactly 0, a key frame's is not), so its network work is
  // the heads alone — strictly below a full forward at the served scale.
  DffConfig cfg;
  cfg.key_interval = 5;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  int keys = 0, nonkeys = 0;
  for (const Scene& frame : dataset.val_snippets()[0].frames) {
    const DffFrameOutput out = p.process(frame);
    const int h = out.detections.image_h, w = out.detections.image_w;
    ASSERT_GT(h, 0);
    ASSERT_GT(w, 0);
    if (out.is_key) {
      EXPECT_GT(out.backbone_ms, 0.0);
      ++keys;
    } else {
      EXPECT_EQ(out.backbone_ms, 0.0);
      EXPECT_LT(head_macs(*detector, h, w), detector->forward_macs(h, w));
      ++nonkeys;
    }
  }
  ASSERT_GT(keys, 0);
  ASSERT_GT(nonkeys, 0);
}

TEST_F(DffFixture, FixedScaleWithoutRegressor) {
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                DffConfig{}, ScaleSet::reg_default(), 480);
  for (const Scene& frame : dataset.val_snippets()[0].frames) {
    const DffFrameOutput out = p.process(frame);
    EXPECT_EQ(out.scale_used, 480);
  }
}

TEST_F(DffFixture, AdaScaleChangesScaleOnlyAtKeyFrames) {
  DffConfig cfg;
  cfg.key_interval = 3;
  DffPipeline p(detector.get(), regressor.get(), &renderer,
                dataset.scale_policy(), cfg, ScaleSet::reg_default());
  const auto& frames = dataset.val_snippets()[0].frames;
  int last_scale = -1;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const DffFrameOutput out = p.process(frames[f]);
    if (!out.is_key && last_scale >= 0) {
      EXPECT_EQ(out.scale_used, last_scale) << "scale changed mid-interval";
    }
    last_scale = out.scale_used;
    EXPECT_GE(out.scale_used, 128);
    EXPECT_LE(out.scale_used, 600);
  }
}

TEST_F(DffFixture, NonPositiveKeyIntervalClampsToEveryFrameKey) {
  // Regression: key_interval <= 0 used to hit a modulo-by-zero; it now
  // clamps to 1, i.e. the backbone runs on every frame.
  DffConfig cfg;
  cfg.key_interval = 0;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  const auto& frames = dataset.val_snippets()[0].frames;
  for (std::size_t f = 0; f < 3; ++f) {
    const DffFrameOutput out = p.process(frames[f]);
    EXPECT_TRUE(out.is_key) << "frame " << f;
  }
}

TEST_F(DffFixture, ResetStartsNewKeyInterval) {
  DffConfig cfg;
  cfg.key_interval = 4;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  const auto& frames = dataset.val_snippets()[0].frames;
  p.process(frames[0]);
  p.process(frames[1]);
  p.reset();
  const DffFrameOutput out = p.process(frames[2]);
  EXPECT_TRUE(out.is_key);
}

TEST_F(DffFixture, WarpedDetectionsSimilarToFullOnStaticScene) {
  // A static scene means zero flow: warped features equal key features, so
  // non-key detections must match key detections exactly.
  Scene static_scene = dataset.val_snippets()[0].frames[0];
  DffConfig cfg;
  cfg.key_interval = 2;
  DffPipeline p(detector.get(), nullptr, &renderer, dataset.scale_policy(),
                cfg, ScaleSet::reg_default());
  const DffFrameOutput key = p.process(static_scene);
  const DffFrameOutput warped = p.process(static_scene);
  ASSERT_FALSE(warped.is_key);
  ASSERT_EQ(key.detections.detections.size(),
            warped.detections.detections.size());
  for (std::size_t i = 0; i < key.detections.detections.size(); ++i) {
    EXPECT_NEAR(key.detections.detections[i].score,
                warped.detections.detections[i].score, 0.05f);
  }
}

}  // namespace
}  // namespace ada
