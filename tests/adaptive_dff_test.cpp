// Adaptive key-frame DFF: flow-quality-triggered refresh (an extension
// beyond the paper, after Zhu et al., CVPR 2018), served by
// AdaScalePipeline's DFF branch (set_dff with kAdaptive).
#include <gtest/gtest.h>

#include "adascale/pipeline.h"
#include "data/dataset.h"

namespace ada {
namespace {

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

  /// Adaptive DFF refreshing on the warp residual and after
  /// `max_interval` warp frames; the scale-jump trigger is off.
  static DffServingConfig adaptive(float residual_threshold,
                                   int max_interval = 20) {
    DffServingConfig cfg;
    cfg.policy = DffServingConfig::Keyframe::kAdaptive;
    cfg.residual_threshold = residual_threshold;
    cfg.max_interval = max_interval;
    cfg.scale_jump_frac = 0.0f;
    return cfg;
  }

  AdaScalePipeline make(DffServingConfig cfg, bool adascale = false) {
    AdaScalePipeline p(detector_.get(), regressor_.get(), &renderer_,
                       dataset_.scale_policy(), ScaleSet::reg_default());
    cfg.adascale = adascale;
    p.set_dff(cfg);
    return p;
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(AdaptiveDffFixture, FirstFrameIsAlwaysKey) {
  AdaScalePipeline p = make(DffServingConfig{});
  const AdaFrameOutput out = p.process(dataset_.val_snippets()[0].frames[0]);
  EXPECT_TRUE(out.dff_key);
  EXPECT_EQ(out.warp_residual, 0.0f);
}

TEST_F(AdaptiveDffFixture, HugeThresholdPropagatesUntilMaxInterval) {
  // The residual never triggers, so only the interval guard refreshes: a
  // key, then exactly max_interval warp frames, then the next key.
  const int max_interval = 4;
  AdaScalePipeline p = make(adaptive(1e9f, max_interval));
  const Snippet& snip = dataset_.val_snippets()[0];
  long frame = 0;
  for (int rep = 0; rep < 2; ++rep)
    for (const Scene& f : snip.frames) {
      const AdaFrameOutput out = p.process(f);
      EXPECT_EQ(out.dff_key, frame % (max_interval + 1) == 0)
          << "frame " << frame;
      ++frame;
    }
  EXPECT_EQ(p.context().dff.frames, frame);
  EXPECT_EQ(p.context().dff.keys, (frame + max_interval) / (max_interval + 1));
}

TEST_F(AdaptiveDffFixture, ZeroThresholdMakesEveryFrameKey) {
  // Every moving frame leaves a positive warp residual, which exceeds 0.
  AdaScalePipeline p = make(adaptive(0.0f));
  const Snippet& snip = dataset_.val_snippets()[0];
  for (const Scene& f : snip.frames) EXPECT_TRUE(p.process(f).dff_key);
  EXPECT_EQ(p.context().dff.keys, static_cast<long>(snip.frames.size()));
}

TEST_F(AdaptiveDffFixture, ResidualThresholdSplitsWarpsFromForcedKeys) {
  // The trigger's contract, frame by frame: a warp frame's residual is at
  // most the threshold, and every key after a snippet's first frame (the
  // interval guard of 20 outlasts the snippets) carries the residual above
  // the threshold that forced it.  Both kinds must occur for the split to
  // be tested (this threshold is low enough that these snippets force
  // some keys).
  const float threshold = 0.002f;
  AdaScalePipeline p = make(adaptive(threshold));
  long warps = 0, forced = 0;
  for (const Snippet& snip : dataset_.val_snippets()) {
    p.reset();
    for (std::size_t f = 0; f < snip.frames.size(); ++f) {
      const AdaFrameOutput out = p.process(snip.frames[f]);
      if (!out.dff_key) {
        EXPECT_LE(out.warp_residual, threshold);
        ++warps;
      } else if (f > 0) {
        EXPECT_GT(out.warp_residual, threshold);
        ++forced;
      }
    }
  }
  EXPECT_GT(warps, 0);
  EXPECT_GT(forced, 0);
}

TEST_F(AdaptiveDffFixture, WarpFramesSkipBackbone) {
  // After a warp frame the detector's backbone output buffer still holds
  // the key frame's features: the backbone did not run on it.
  AdaScalePipeline p = make(adaptive(1e9f));
  int warps = 0;
  for (const Scene& f : dataset_.val_snippets()[0].frames) {
    const AdaFrameOutput out = p.process(f);
    const Tensor& live = detector_->features();
    const Tensor& key = p.context().dff.key_features;
    ASSERT_TRUE(live.same_shape(key));
    for (std::size_t i = 0; i < key.size(); ++i) ASSERT_EQ(live[i], key[i]);
    if (!out.dff_key) ++warps;
  }
  EXPECT_GT(warps, 0);
}

TEST_F(AdaptiveDffFixture, ScaleChangesOnlyAtKeyFrames) {
  AdaScalePipeline p = make(adaptive(0.02f), /*adascale=*/true);
  int last_scale = -1;
  for (const Snippet& snip : dataset_.val_snippets())
    for (const Scene& f : snip.frames) {
      const AdaFrameOutput out = p.process(f);
      if (last_scale >= 0 && out.scale_used != last_scale) {
        EXPECT_TRUE(out.dff_key) << "scale changed on a propagated frame";
      }
      last_scale = out.scale_used;
      EXPECT_GE(out.scale_used, 128);
      EXPECT_LE(out.scale_used, 600);
    }
}

TEST_F(AdaptiveDffFixture, ResetRestartsKeySchedule) {
  AdaScalePipeline p = make(adaptive(1e9f));
  const Snippet& snip = dataset_.val_snippets()[0];
  (void)p.process(snip.frames[0]);
  (void)p.process(snip.frames[1]);
  p.reset();
  const AdaFrameOutput out = p.process(snip.frames[2]);
  EXPECT_TRUE(out.dff_key);
}

}  // namespace
}  // namespace ada
