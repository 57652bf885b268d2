// The benchmark's own tests: the tail-sample rule of its percentiles, and
// that every output check rejects a deliberately corrupted result.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "checks.h"
#include "stats.h"
#include "trace.h"

namespace framebench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, BelowFortySamplesOnlyTheMedian) {
  for (int n : {1, 2, 10, 39}) {
    const Summary s = summarize(ramp(n));
    EXPECT_EQ(s.n, static_cast<std::size_t>(n));
    EXPECT_DOUBLE_EQ(s.median, (n + 1) / 2.0);
    EXPECT_EQ(s.tail_q, 0.0) << n;
    EXPECT_FALSE(tail_percentile(ramp(n), 0.75).has_value()) << n;
  }
  const Summary s40 = summarize(ramp(40));
  EXPECT_EQ(s40.tail_q, 0.75);
  EXPECT_DOUBLE_EQ(s40.tail, 30.0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  ASSERT_TRUE(tail_percentile(ramp(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(ramp(1000), 0.99), 990.0);
  const Summary s = summarize(ramp(1000));
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
}

TEST(Trace, SumsSpansAndWritesChromeEvents) {
  Tracer tr(2);
  const int v = tr.span(1, "data.render_ms", 3, 7, [] { return 42; });
  EXPECT_EQ(v, 42);
  tr.span(0, "data.render_ms", 0, 0, [] {});
  EXPECT_EQ(tr.span_count(), 2u);
  EXPECT_EQ(tr.total_ms().count("data.render_ms"), 1u);
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\":3"), std::string::npos);
  EXPECT_NE(json.find("\"frame\":7"), std::string::npos);
}

// A small valid result: two streams, two frames each, at scale 600.
std::vector<FrameRecord> valid_frames() {
  const ada::ScalePolicy policy;
  std::vector<FrameRecord> frames;
  for (int s = 0; s < 2; ++s) {
    for (int f = 0; f < 2; ++f) {
      FrameRecord r;
      r.stream = s;
      r.snippet = s;
      r.frame = f;
      r.scale = 600;
      r.next_scale = 480;
      r.key = f == 0;
      r.image_h = policy.render_h(600);
      r.image_w = policy.render_w(600);
      r.dets.push_back({ada::Box{10, 10, 50, 50}, 1, 0.9f});
      r.dets.push_back({ada::Box{60, 60, 100, 100}, 1, 0.8f + 0.01f * s});
      r.dets.push_back({ada::Box{12, 12, 52, 52}, 2, 0.7f});
      frames.push_back(r);
    }
  }
  return frames;
}

TEST(Checks, AcceptValidOutput) {
  const std::vector<FrameRecord> f = valid_frames();
  const ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  EXPECT_EQ(check_served(4, 4), "");
  EXPECT_EQ(check_scales(f, sreg, ada::ScalePolicy{}, /*snapped=*/true), "");
  EXPECT_EQ(check_boxes_inside(f), "");
  EXPECT_EQ(check_top_k(f, 3), "");
  EXPECT_EQ(check_nms(f, 0.3f), "");
  EXPECT_EQ(check_identical(f, f), "");
  EXPECT_EQ(check_keyframes(f, 1), "");
  EXPECT_EQ(check_map_floor(0.2, 30), "");
  EXPECT_EQ(check_map_bar(0.155, 0.150, 0.01), "");
}

TEST(Checks, DroppedFrameFailsServed) {
  EXPECT_NE(check_served(1152, 1151), "");
}

TEST(Checks, PerturbedScaleFails) {
  const ada::ScaleSet sreg = ada::ScaleSet::reg_default();
  const ada::ScalePolicy policy;
  std::vector<FrameRecord> f = valid_frames();
  f[1].next_scale = 601;  // out of range
  EXPECT_NE(check_scales(f, sreg, policy, false), "");
  f = valid_frames();
  f[2].scale = 500;  // in range, not a set member, wrong image size
  EXPECT_NE(check_scales(f, sreg, policy, true), "");
  f = valid_frames();
  f[2].next_scale = 479;  // in range but not snapped
  EXPECT_EQ(check_scales(f, sreg, policy, false), "");
  EXPECT_NE(check_scales(f, sreg, policy, true), "");
  EXPECT_NE(check_identical(f, valid_frames()), "");
}

TEST(Checks, BoxOutsideImageFails) {
  std::vector<FrameRecord> f = valid_frames();
  f[3].dets[0].box.x2 = static_cast<float>(f[3].image_w) + 0.5f;
  EXPECT_NE(check_boxes_inside(f), "");
  f = valid_frames();
  f[0].dets[1].box.y1 = -1.0f;
  EXPECT_NE(check_boxes_inside(f), "");
}

TEST(Checks, TooManyDetectionsFails) {
  EXPECT_NE(check_top_k(valid_frames(), 2), "");
}

TEST(Checks, OverlappingSameClassBoxesFail) {
  std::vector<FrameRecord> f = valid_frames();
  f[0].dets[1].box = ada::Box{11, 11, 51, 51};  // same class as dets[0]
  EXPECT_NE(check_nms(f, 0.3f), "");
}

TEST(Checks, DroppedDetectionFailsIdentity) {
  std::vector<FrameRecord> f = valid_frames();
  f[2].dets.pop_back();
  EXPECT_NE(check_identical(f, valid_frames()), "");
}

TEST(Checks, NudgedScoreOrBoxFailsIdentity) {
  std::vector<FrameRecord> f = valid_frames();
  f[1].dets[0].score = std::nextafter(f[1].dets[0].score, 1.0f);
  EXPECT_NE(check_identical(f, valid_frames()), "");
  f = valid_frames();
  f[1].dets[2].box.x1 += 1e-4f;
  EXPECT_NE(check_identical(f, valid_frames()), "");
}

TEST(Checks, SwappedStreamFailsIdentity) {
  std::vector<FrameRecord> f = valid_frames();
  std::swap(f[0], f[2]);
  std::swap(f[1], f[3]);
  EXPECT_NE(check_identical(f, valid_frames()), "");
  // Same order, but stream 1's outputs carried under stream 0's label.
  f = valid_frames();
  for (int i = 0; i < 2; ++i) f[i].dets = f[i + 2].dets;
  EXPECT_NE(check_identical(f, valid_frames()), "");
}

TEST(Checks, MissingFrameFailsIdentity) {
  std::vector<FrameRecord> f = valid_frames();
  f.pop_back();
  EXPECT_NE(check_identical(f, valid_frames()), "");
}

TEST(Checks, KeyFrameRules) {
  std::vector<FrameRecord> f = valid_frames();
  f[0].key = false;  // snippet starts on a warp frame
  EXPECT_NE(check_keyframes(f, 1), "");
  f = valid_frames();
  f[2].key = false;  // frame 0 of stream 1's snippet
  f[2].frame = 2;    // ...made a mid-snippet frame: now two warps in a row
  EXPECT_NE(check_keyframes(f, 1), "");
}

TEST(Checks, MapFloorAndBar) {
  EXPECT_NE(check_map_floor(1.0 / 30.0, 30), "");
  EXPECT_NE(check_map_floor(0.0, 30), "");
  EXPECT_NE(check_map_bar(0.130, 0.150, 0.01), "");
  EXPECT_NE(check_map_bar(0.161, 0.150, 0.01), "");
}

}  // namespace
}  // namespace framebench
