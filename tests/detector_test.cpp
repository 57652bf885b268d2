#include "detection/detector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>

#include "data/dataset.h"
#include "detection/trainer.h"
#include "runtime/exec_plan.h"

namespace ada {
namespace {

DetectorConfig small_config(int num_classes = 5) {
  DetectorConfig cfg;
  cfg.num_classes = num_classes;
  cfg.c1 = 6;
  cfg.c2 = 10;
  cfg.c3 = 16;
  return cfg;
}

TEST(Detector, ForwardFeatureShape) {
  Rng rng(1);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 64, 80);
  const Tensor& feat = det.forward(img);
  EXPECT_EQ(feat.c(), 16);
  EXPECT_EQ(feat.h(), 8);   // stride 8
  EXPECT_EQ(feat.w(), 10);
}

TEST(Detector, DetectReturnsBoundedOutput) {
  Rng rng(2);
  DetectorConfig cfg = small_config();
  cfg.top_k = 10;
  Detector det(cfg, &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput out = det.detect(img);
  EXPECT_LE(static_cast<int>(out.detections.size()), 10);
  EXPECT_EQ(out.image_h, 48);
  EXPECT_EQ(out.image_w, 64);
  for (const Detection& d : out.detections) {
    EXPECT_GE(d.class_id, 0);
    EXPECT_LT(d.class_id, cfg.num_classes);
    EXPECT_GE(d.score, cfg.score_threshold);
    EXPECT_LE(d.score, 1.0f);
    EXPECT_GE(d.box.x1, 0.0f);
    EXPECT_LE(d.box.x2, 63.0f);
    EXPECT_EQ(d.probs.size(), static_cast<std::size_t>(cfg.num_classes + 1));
  }
}

TEST(Detector, DetectionsScoreSorted) {
  Rng rng(3);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput out = det.detect(img);
  for (std::size_t i = 1; i < out.detections.size(); ++i)
    EXPECT_GE(out.detections[i - 1].score, out.detections[i].score);
}

TEST(Detector, TrainStepReducesLossOnFixedImage) {
  Rng rng(4);
  Detector det(small_config(3), &rng);
  // One synthetic image with a single centered box.
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  // Paint a bright square where the object is.
  for (int c = 0; c < 3; ++c)
    for (int i = 16; i < 32; ++i)
      for (int j = 24; j < 40; ++j) img.at(0, c, i, j) = 1.0f;
  GtBox g;
  g.x1 = 24; g.y1 = 16; g.x2 = 40; g.y2 = 32; g.class_id = 1;

  Sgd::Options opt_cfg;
  opt_cfg.lr = 1e-3f;
  Sgd opt(det.parameters(), opt_cfg);
  Rng sample_rng(5);
  const float first = det.train_step(img, {g}, &opt, &sample_rng);
  float last = first;
  for (int i = 0; i < 60; ++i) last = det.train_step(img, {g}, &opt, &sample_rng);
  EXPECT_LT(last, first * 0.7f) << "training failed to reduce loss";
}

TEST(Detector, ComputeLossIsFiniteWithoutGt) {
  Rng rng(6);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  Rng sample_rng(7);
  const float loss = det.compute_loss(img, {}, &sample_rng);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GE(loss, 0.0f);
}

TEST(Detector, ForwardMacsDecreaseWithScale) {
  Rng rng(8);
  Detector det(small_config(), &rng);
  const long long big = det.forward_macs(150, 200);
  const long long small = det.forward_macs(60, 80);
  EXPECT_GT(big, small);
  // Roughly area-proportional: (150*200)/(60*80) = 6.25.
  EXPECT_NEAR(static_cast<double>(big) / static_cast<double>(small), 6.25, 1.5);
}

void expect_same_detections(const DetectionOutput& a,
                            const DetectionOutput& b) {
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_EQ(a.detections[i].class_id, b.detections[i].class_id);
    EXPECT_EQ(a.detections[i].score, b.detections[i].score);
    EXPECT_EQ(a.detections[i].box.x1, b.detections[i].box.x1);
    EXPECT_EQ(a.detections[i].box.y1, b.detections[i].box.y1);
    EXPECT_EQ(a.detections[i].box.x2, b.detections[i].box.x2);
    EXPECT_EQ(a.detections[i].box.y2, b.detections[i].box.y2);
  }
}

TEST(Detector, DetectFromFeaturesMatchesDetect) {
  Rng rng(9);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  const DetectionOutput a = det.detect(img);
  const Tensor feat = det.forward(img);  // copy features
  const DetectionOutput b = det.detect_from_features(feat, 48, 64);
  EXPECT_GT(a.detections.size(), 0u);
  expect_same_detections(a, b);
}

TEST(Detector, ForeignFeaturesRunThePlannedHeadKernels) {
  // The DFF warp-frame path: heads on a feature map the backbone did not
  // just produce must run the plan's kernels, not the eager ones.  Under an
  // int8 policy with every measured race won by fp32, the plan runs packed
  // fp32 heads while eager forward would run the quantized kernel, so only
  // a planned head pass reproduces detect() bit for bit.
  clear_autotune_cache();
  set_autotune_bench(+[](const std::function<void()>& run) {
    run();
    static int calls = 0;
    return 1.0e6 - static_cast<double>(++calls);  // the later (fp32) wins
  });
  Rng rng(9);
  Detector det(small_config(), &rng);
  Tensor img = Tensor::chw(3, 48, 64);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = rng.uniform();
  det.quantize({img});
  det.set_execution_policy(ExecutionPolicy::int8());
  const ExecutionPlan& plan = det.plan_for(1, 48, 64);
  for (const PlanStep& step : plan.steps) {
    if (step.autotuned) {
      EXPECT_EQ(step.kernel, KernelKind::kGemmPacked) << step.layer;
    }
  }

  const DetectionOutput a = det.detect(img);
  const Tensor feat = det.forward(img);  // copy features
  const DetectionOutput b = det.detect_from_features(feat, 48, 64);
  EXPECT_GT(a.detections.size(), 0u);
  expect_same_detections(a, b);
  set_autotune_bench(nullptr);
  clear_autotune_cache();
}

TEST(DetectorDeathTest, DetectFromFeaturesRejectsMisfitFeatures) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Rng rng(9);
  Detector det(small_config(), &rng);
  const Tensor feat(1, 16, 6, 8);  // a 48x64 image's feature grid
  EXPECT_DEATH(det.detect_from_features(feat, 96, 64), "do not fit");
}

TEST(Detector, ParameterCountIsStable) {
  Rng rng(10);
  Detector det(small_config(), &rng);
  auto params = det.parameters();
  EXPECT_FALSE(params.empty());
  const std::size_t n = param_count(params);
  // conv1 (6*3*9+6) + conv2 (10*6*9+10) + conv3 (16*10*9+16)
  // + cls head (6 anchors * 6 classes... ) -- just check nonzero & stable.
  EXPECT_GT(n, 1000u);
  Rng rng2(10);
  Detector det2(small_config(), &rng2);
  EXPECT_EQ(param_count(det2.parameters()), n);
}

TEST(Detector, ConfigFingerprintDiscriminates) {
  DetectorConfig a = small_config();
  DetectorConfig b = small_config();
  b.c3 = 32;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Trainer, TrainOrLoadUsesCache) {
  const Dataset ds = Dataset::synth_vid(1, 1, 123);
  DetectorConfig dcfg;
  dcfg.num_classes = ds.catalog().num_classes();
  dcfg.c1 = 4; dcfg.c2 = 6; dcfg.c3 = 8;
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.train_scales = {240};

  const std::string cache =
      (std::filesystem::temp_directory_path() / "ada_cache_test").string();
  std::filesystem::remove_all(cache);
  auto det1 = train_or_load_detector(ds, dcfg, tcfg, cache);
  auto det2 = train_or_load_detector(ds, dcfg, tcfg, cache);
  // Same weights after cache round trip.
  auto p1 = det1->parameters();
  auto p2 = det2->parameters();
  const auto f1 = flatten_params(p1);
  const auto f2 = flatten_params(p2);
  EXPECT_EQ(f1, f2);
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace ada
