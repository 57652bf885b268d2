// DFF on the serving path: the keyframe/warp branch of AdaScalePipeline /
// MultiStreamRunner, the one DFF implementation.  With a key on every frame
// it must equal Algorithm 1 bit for bit (every head pass runs through the
// execution plan), and it must be bit-identical between serial and
// concurrent execution no matter how workers interleave the streams.
// Serving is stateful here, so the suite also proves the per-stream context
// carries no state across streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "adascale/pipeline.h"
#include "adascale/scale_target.h"
#include "data/dataset.h"
#include "runtime/exec_plan.h"
#include "runtime/multi_stream.h"

namespace ada {
namespace {

void expect_equal_detections(const DetectionOutput& a,
                             const DetectionOutput& b) {
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t d = 0; d < a.detections.size(); ++d) {
    EXPECT_EQ(a.detections[d].class_id, b.detections[d].class_id);
    EXPECT_EQ(a.detections[d].score, b.detections[d].score);
    EXPECT_EQ(a.detections[d].box.x1, b.detections[d].box.x1);
    EXPECT_EQ(a.detections[d].box.y1, b.detections[d].box.y1);
    EXPECT_EQ(a.detections[d].box.x2, b.detections[d].box.x2);
    EXPECT_EQ(a.detections[d].box.y2, b.detections[d].box.y2);
  }
}

/// Per-stream outputs of two runs must match bit for bit, including the
/// DFF bookkeeping fields (key placement is part of the contract: a key in
/// one mode but not the other means the stateful branch diverged).
void expect_equal_outputs(const MultiStreamResult& a,
                          const MultiStreamResult& b) {
  ASSERT_EQ(a.streams.size(), b.streams.size());
  EXPECT_EQ(a.total_frames, b.total_frames);
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    const StreamOutput& x = a.streams[s];
    const StreamOutput& y = b.streams[s];
    ASSERT_EQ(x.frames.size(), y.frames.size());
    for (std::size_t f = 0; f < x.frames.size(); ++f) {
      EXPECT_EQ(x.frames[f].scale_used, y.frames[f].scale_used);
      EXPECT_EQ(x.frames[f].next_scale, y.frames[f].next_scale);
      EXPECT_EQ(x.frames[f].regressed_t, y.frames[f].regressed_t);
      EXPECT_EQ(x.frames[f].dff, y.frames[f].dff);
      EXPECT_EQ(x.frames[f].dff_key, y.frames[f].dff_key);
      EXPECT_EQ(x.frames[f].warp_residual, y.frames[f].warp_residual);
      expect_equal_detections(x.frames[f].detections, y.frames[f].detections);
    }
  }
}

class DffServingTest : public ::testing::Test {
 protected:
  DffServingTest()
      : dataset_(Dataset::synth_vid(1, 4, 77)),
        renderer_(dataset_.make_renderer()) {
    DetectorConfig dcfg;
    dcfg.num_classes = dataset_.catalog().num_classes();
    Rng rng(5);
    detector_ = std::make_unique<Detector>(dcfg, &rng);
    RegressorConfig rcfg;
    rcfg.in_channels = detector_->feature_channels();
    Rng rng2(6);
    regressor_ = std::make_unique<ScaleRegressor>(rcfg, &rng2);
  }

  std::vector<const Snippet*> val_jobs() const {
    std::vector<const Snippet*> jobs;
    for (const Snippet& s : dataset_.val_snippets()) jobs.push_back(&s);
    return jobs;
  }

  AdaScalePipeline make_serving(int init_scale = 600) {
    return AdaScalePipeline(detector_.get(), regressor_.get(), &renderer_,
                            dataset_.scale_policy(), ScaleSet::reg_default(),
                            init_scale);
  }

  Dataset dataset_;
  Renderer renderer_;
  std::unique_ptr<Detector> detector_;
  std::unique_ptr<ScaleRegressor> regressor_;
};

TEST_F(DffServingTest, DffEveryKeyMatchesAlgorithm1) {
  // With a key on every frame, AdaScale+DFF is Algorithm 1: each frame runs
  // the backbone and heads at the scale regressed on the previous frame.
  // The detector is int8-quantized and every planned step loses its
  // measured race to fp32, so a head pass that skipped the plan (eager
  // forward runs the quantized kernel) would change the detections.
  clear_autotune_cache();
  set_autotune_bench(+[](const std::function<void()>& run) {
    run();
    static int calls = 0;
    return 1.0e6 - static_cast<double>(++calls);  // the later (fp32) wins
  });
  std::vector<Tensor> calib;
  for (const Scene& frame : dataset_.val_snippets()[0].frames)
    calib.push_back(
        renderer_.render_at_scale(frame, 600, dataset_.scale_policy()));
  detector_->quantize(calib);
  detector_->set_execution_policy(ExecutionPolicy::int8());
  regressor_->set_execution_policy(ExecutionPolicy::fp32());

  AdaScalePipeline algorithm1 = make_serving();
  AdaScalePipeline dff = make_serving();
  DffServingConfig scfg;
  scfg.policy = DffServingConfig::Keyframe::kFixedInterval;
  scfg.key_interval = 1;
  scfg.adascale = true;
  dff.set_dff(scfg);

  long detections = 0;
  for (const Snippet& snip : dataset_.val_snippets()) {
    algorithm1.reset();
    dff.reset();
    for (const Scene& frame : snip.frames) {
      const AdaFrameOutput a = algorithm1.process(frame);
      const AdaFrameOutput b = dff.process(frame);
      ASSERT_TRUE(b.dff_key);
      EXPECT_EQ(a.scale_used, b.scale_used);
      EXPECT_EQ(a.next_scale, b.next_scale);
      EXPECT_EQ(a.regressed_t, b.regressed_t);
      expect_equal_detections(a.detections, b.detections);
      detections += static_cast<long>(a.detections.detections.size());
    }
  }
  EXPECT_GT(detections, 0) << "no detections: the comparison is vacuous";
  set_autotune_bench(nullptr);
  clear_autotune_cache();
}

TEST_F(DffServingTest, ConcurrentDffMatchesSerialDff) {
  // The core serving contract: the stream table with several workers
  // serving DFF streams — key frames and warp frames of different streams
  // interleaved on shared leased contexts — produces the same bits as
  // run_serial.  Covers the default adaptive policy with every trigger
  // armed, and a fixed-interval AdaScale schedule whose key period (3)
  // divides neither the stream count (4) nor the worker count (3).
  DffServingConfig adaptive;  // default: adaptive, adascale, scale-jump on
  DffServingConfig fixed;
  fixed.policy = DffServingConfig::Keyframe::kFixedInterval;
  fixed.key_interval = 3;
  fixed.adascale = true;
  const auto jobs = val_jobs();
  for (const DffServingConfig& scfg : {adaptive, fixed}) {
    MultiStreamRunner concurrent(detector_.get(), regressor_.get(), &renderer_,
                                 dataset_.scale_policy(),
                                 ScaleSet::reg_default(), 4,
                                 /*init_scale=*/600, /*snap_scales=*/true);
    MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                             dataset_.scale_policy(), ScaleSet::reg_default(),
                             4, /*init_scale=*/600, /*snap_scales=*/true);
    concurrent.set_dff(scfg);
    serial.set_dff(scfg);
    StreamTableConfig tcfg;
    tcfg.workers = 3;
    const MultiStreamResult par = concurrent.run_table(jobs, tcfg);
    expect_equal_outputs(par, serial.run_serial(jobs));

    // Both frame kinds were served, so both branches were compared.
    long keys = 0;
    for (const StreamOutput& s : par.streams)
      for (const AdaFrameOutput& f : s.frames)
        if (f.dff_key) ++keys;
    EXPECT_GT(keys, 0);
    EXPECT_LT(keys, par.total_frames);
  }
}

TEST_F(DffServingTest, HeterogeneousPoliciesConcurrentMatchesSerial) {
  // Interleaved stateful streams with *different* pinned execution policies:
  // run() honors per-stream policies and must equal the serial per-stream
  // run — any cross-stream leak of DFF caches or scale state would surface
  // as a bitwise mismatch.
  MultiStreamRunner concurrent(detector_.get(), regressor_.get(), &renderer_,
                               dataset_.scale_policy(),
                               ScaleSet::reg_default(), 2);
  MultiStreamRunner serial(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           2);
  for (MultiStreamRunner* r : {&concurrent, &serial}) {
    r->set_stream_policy(0, ExecutionPolicy::fp32(), ExecutionPolicy::fp32());
    r->set_stream_policy(1, ExecutionPolicy::reference(),
                         ExecutionPolicy::reference());
    DffServingConfig scfg;
    scfg.max_interval = 5;
    r->set_dff(scfg);
  }
  const auto jobs = val_jobs();
  expect_equal_outputs(concurrent.run(jobs), serial.run_serial(jobs));
}

TEST_F(DffServingTest, PerStreamContextIsolatedAcrossStreams) {
  // Round-robin job assignment means stream s of a 2-stream run sees
  // exactly the jobs a 1-stream runner would see given that subset — if the
  // outputs match, no state crossed between the interleaved streams.
  MultiStreamRunner pair(detector_.get(), regressor_.get(), &renderer_,
                         dataset_.scale_policy(), ScaleSet::reg_default(), 2);
  DffServingConfig scfg;
  pair.set_dff(scfg);
  const auto jobs = val_jobs();
  const MultiStreamResult both = pair.run(jobs);

  for (int s = 0; s < 2; ++s) {
    MultiStreamRunner solo(detector_.get(), regressor_.get(), &renderer_,
                           dataset_.scale_policy(), ScaleSet::reg_default(),
                           1);
    solo.set_dff(scfg);
    std::vector<const Snippet*> subset;
    for (std::size_t j = static_cast<std::size_t>(s); j < jobs.size(); j += 2)
      subset.push_back(jobs[j]);
    const MultiStreamResult alone = solo.run_serial(subset);
    const StreamOutput& x = both.streams[static_cast<std::size_t>(s)];
    const StreamOutput& y = alone.streams[0];
    ASSERT_EQ(x.frames.size(), y.frames.size());
    for (std::size_t f = 0; f < x.frames.size(); ++f) {
      EXPECT_EQ(x.frames[f].scale_used, y.frames[f].scale_used);
      EXPECT_EQ(x.frames[f].dff_key, y.frames[f].dff_key);
      EXPECT_EQ(x.frames[f].warp_residual, y.frames[f].warp_residual);
      expect_equal_detections(x.frames[f].detections,
                              y.frames[f].detections);
    }
  }
}

TEST_F(DffServingTest, ScaleJumpTriggerForcesKeyframes) {
  // With a near-zero jump threshold every warp frame whose regressed scale
  // differs from the current one must become a key; with the trigger off
  // those frames warp.  The non-key frames that remain must all satisfy the
  // jump bound — that is the trigger's contract.
  const auto count_keys = [&](float jump_frac) {
    AdaScalePipeline serving = make_serving();
    DffServingConfig scfg;
    scfg.residual_threshold = 1.0f;  // residual trigger effectively off
    scfg.max_interval = 1000;        // interval trigger effectively off
    scfg.scale_jump_frac = jump_frac;
    serving.set_dff(scfg);
    long keys = 0;
    for (const Snippet& snip : dataset_.val_snippets()) {
      serving.reset();
      for (const Scene& frame : snip.frames) {
        const AdaFrameOutput out = serving.process(frame);
        if (out.dff_key) ++keys;
        if (!out.dff_key && jump_frac > 0.0f) {
          const int decoded = decode_scale_target(out.regressed_t,
                                                  out.scale_used,
                                                  ScaleSet::reg_default());
          const float jump =
              std::abs(static_cast<float>(decoded - out.scale_used)) /
              static_cast<float>(out.scale_used);
          EXPECT_LT(jump, jump_frac);
        }
      }
    }
    return keys;
  };
  const long keys_tight = count_keys(1e-4f);
  const long keys_off = count_keys(0.0f);
  EXPECT_GE(keys_tight, keys_off);
}

TEST_F(DffServingTest, ResetDropsKeyCacheAndRestartsAtInitScale) {
  AdaScalePipeline serving = make_serving();
  DffServingConfig scfg;
  serving.set_dff(scfg);
  const auto& frames = dataset_.val_snippets()[0].frames;
  serving.process(frames[0]);
  serving.process(frames[1]);
  serving.reset();
  EXPECT_FALSE(serving.context().dff.has_key);
  EXPECT_EQ(serving.current_scale(), 600);
  const AdaFrameOutput out = serving.process(frames[2]);
  EXPECT_TRUE(out.dff_key) << "first frame after reset must be a key";
}

}  // namespace
}  // namespace ada
