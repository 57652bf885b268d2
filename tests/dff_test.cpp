// Deep Feature Flow at a fixed key interval (the paper's Fig. 7 DFF rows),
// served by AdaScalePipeline's DFF branch (set_dff with kFixedInterval).
#include <gtest/gtest.h>

#include "adascale/pipeline.h"
#include "data/dataset.h"
#include "experiments/harness.h"

namespace ada {
namespace {

void expect_equal_tensors(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
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

  /// A pipeline serving fixed-interval DFF: AdaScale picks each key's
  /// scale, or with `adascale` false the scale stays at `init_scale`.
  AdaScalePipeline make(int key_interval, bool adascale,
                        int init_scale = 600) {
    AdaScalePipeline p(detector.get(), regressor.get(), &renderer,
                       dataset.scale_policy(), ScaleSet::reg_default(),
                       init_scale);
    DffServingConfig cfg;
    cfg.policy = DffServingConfig::Keyframe::kFixedInterval;
    cfg.key_interval = key_interval;
    cfg.adascale = adascale;
    p.set_dff(cfg);
    return p;
  }

  const std::vector<Scene>& frames() const {
    return dataset.val_snippets()[0].frames;
  }

  Dataset dataset;
  Renderer renderer;
  std::unique_ptr<Detector> detector;
  std::unique_ptr<ScaleRegressor> regressor;
};

TEST_F(DffFixture, KeyFramePattern) {
  AdaScalePipeline p = make(4, /*adascale=*/false);
  for (std::size_t f = 0; f < frames().size(); ++f) {
    const AdaFrameOutput out = p.process(frames()[f]);
    EXPECT_TRUE(out.dff);
    EXPECT_EQ(out.dff_key, f % 4 == 0) << "frame " << f;
  }
  EXPECT_EQ(p.context().dff.keys,
            static_cast<long>((frames().size() + 3) / 4));
}

TEST_F(DffFixture, NonKeyFramesSkipBackbone) {
  // The detector's backbone output buffer still holds the key frame's
  // features after every warp frame: the backbone did not run on it (a
  // forward on the moved scene would have overwritten them).
  AdaScalePipeline p = make(3, /*adascale=*/false);
  int warps = 0;
  for (std::size_t f = 0; f < 6; ++f) {
    const AdaFrameOutput out = p.process(frames()[f]);
    EXPECT_EQ(out.dff_key, f % 3 == 0);
    expect_equal_tensors(detector->features(), p.context().dff.key_features);
    if (!out.dff_key) ++warps;
  }
  EXPECT_EQ(warps, 4);
}

TEST_F(DffFixture, HarnessChargesHeadsOnlyOnWarpFrames) {
  // Work, not wall-clock: Harness::run_dff charges a key frame a full
  // forward and a warp frame the heads alone, at the served scale.
  Harness h(Dataset::synth_vid(1, 1, 9), /*cache_dir=*/"");
  DffServingConfig cfg;
  cfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  cfg.key_interval = 5;
  cfg.adascale = false;
  const std::vector<SnippetRun> runs = h.run_dff(
      detector.get(), regressor.get(), cfg, ScaleSet::reg_default());
  ASSERT_EQ(runs.size(), 1u);
  const SnippetRun& run = runs[0];
  ASSERT_EQ(run.frame_macs.size(), frames().size());
  const int img_h = dataset.scale_policy().render_h(600);
  const int img_w = dataset.scale_policy().render_w(600);
  const long long full = detector->forward_macs(img_h, img_w);
  const long long heads = detector->head_macs(img_h, img_w);
  ASSERT_LT(heads, full);
  for (std::size_t f = 0; f < run.frame_macs.size(); ++f)
    EXPECT_EQ(run.frame_macs[f], f % 5 == 0 ? full : heads) << "frame " << f;
  EXPECT_EQ(run.key_frames, static_cast<int>((frames().size() + 4) / 5));
}

TEST_F(DffFixture, FixedScaleWithoutAdaScale) {
  AdaScalePipeline p = make(10, /*adascale=*/false, /*init_scale=*/480);
  for (const Scene& frame : frames()) {
    const AdaFrameOutput out = p.process(frame);
    EXPECT_EQ(out.scale_used, 480);
    EXPECT_EQ(out.next_scale, 480);
    EXPECT_EQ(out.regressed_t, 0.0f) << "the regressor ran";
  }
}

TEST_F(DffFixture, AdaScaleChangesScaleOnlyAtKeyFrames) {
  AdaScalePipeline p = make(3, /*adascale=*/true);
  int last_scale = -1;
  for (std::size_t f = 0; f < frames().size(); ++f) {
    const AdaFrameOutput out = p.process(frames()[f]);
    if (!out.dff_key && last_scale >= 0) {
      EXPECT_EQ(out.scale_used, last_scale) << "scale changed mid-interval";
    }
    last_scale = out.scale_used;
    EXPECT_GE(out.scale_used, 128);
    EXPECT_LE(out.scale_used, 600);
  }
}

TEST_F(DffFixture, ResetStartsNewKeyInterval) {
  AdaScalePipeline p = make(4, /*adascale=*/false);
  p.process(frames()[0]);
  p.process(frames()[1]);
  p.reset();
  const AdaFrameOutput out = p.process(frames()[2]);
  EXPECT_TRUE(out.dff_key);
}

TEST_F(DffFixture, WarpedDetectionsEqualKeyOnStaticScene) {
  // A static scene means zero flow: warped features equal key features, and
  // the warp frame's heads run the same planned kernels as the key frame's,
  // so its detections must equal the key's bit for bit.
  const Scene static_scene = frames()[0];
  AdaScalePipeline p = make(2, /*adascale=*/false);
  const AdaFrameOutput key = p.process(static_scene);
  const AdaFrameOutput warped = p.process(static_scene);
  ASSERT_TRUE(key.dff_key);
  ASSERT_FALSE(warped.dff_key);
  const auto& a = key.detections.detections;
  const auto& b = warped.detections.detections;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].box.x1, b[i].box.x1);
    EXPECT_EQ(a[i].box.y1, b[i].box.y1);
    EXPECT_EQ(a[i].box.x2, b[i].box.x2);
    EXPECT_EQ(a[i].box.y2, b[i].box.y2);
  }
}

}  // namespace
}  // namespace ada
