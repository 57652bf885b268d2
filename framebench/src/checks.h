// Output checks: each takes what a workload served and returns an empty
// string when the output holds, else a one-line description of the first
// violation.  The checks compare against computations made apart from the
// serving path (a re-implementation of Algorithm 1, a one-worker serial
// pass, an fp32 reference pass) or against properties the method must
// have; framebench_test feeds each one a deliberately corrupted result.
#pragma once

#include <string>
#include <vector>

#include "adascale/scale_set.h"
#include "data/renderer.h"
#include "data/video.h"
#include "detection/detector.h"
#include "eval/map_evaluator.h"

namespace framebench {

/// One served frame, in the image coordinates it was served at.
struct FrameRecord {
  int stream = 0;
  int snippet = 0;     ///< index into the workload's snippet pool
  int frame = 0;       ///< index within the snippet
  int scale = 0;       ///< nominal scale the frame was served at
  int next_scale = 0;  ///< scale the pipeline chose for what follows
  bool key = false;    ///< DFF: the backbone ran on this frame
  int image_h = 0, image_w = 0;
  std::vector<ada::EvalDetection> dets;  ///< image coordinates
};

/// Compacts a pipeline output (drops the per-detection softmax vectors).
FrameRecord make_record(int stream, int snippet, int frame, int scale,
                        int next_scale, bool key,
                        const ada::DetectionOutput& out);

/// Every frame offered was served.
std::string check_served(long offered, long served);

/// Scales (served and next) lie within [sreg.min, sreg.max] — and are set
/// members when `snapped` — and each frame was processed at the image size
/// its scale renders to.
std::string check_scales(const std::vector<FrameRecord>& frames,
                         const ada::ScaleSet& sreg,
                         const ada::ScalePolicy& policy, bool snapped);

/// Every box lies inside its image (0 <= x1 <= x2 <= w, same for y).
std::string check_boxes_inside(const std::vector<FrameRecord>& frames);

/// No frame carries more than `top_k` detections.
std::string check_top_k(const std::vector<FrameRecord>& frames, int top_k);

/// No two kept same-class boxes of a frame overlap above `nms_threshold`.
std::string check_nms(const std::vector<FrameRecord>& frames,
                      float nms_threshold);

/// `got` equals `want` bit for bit: stream, snippet, frame, scales, key
/// flags, image size, and every detection's box, class and score.
std::string check_identical(const std::vector<FrameRecord>& got,
                            const std::vector<FrameRecord>& want);

/// DFF key-frame rules: every snippet starts on a key frame and no run of
/// warp frames is longer than `max_interval`.
std::string check_keyframes(const std::vector<FrameRecord>& frames,
                            int max_interval);

/// mAP above the class-blind floor 1/num_classes (see README.md).
std::string check_map_floor(double map, int num_classes);

/// |map - reference_map| within `bar` (mAP as a share: 1 point = 0.01).
std::string check_map_bar(double map, double reference_map, double bar);

/// VOC mAP@0.5 of `frames` against scene_ground_truth in the scale-600
/// reference frame (detections rescaled from their image size).
double frames_map(const std::vector<FrameRecord>& frames,
                  const std::vector<ada::Snippet>& pool,
                  const ada::ClassCatalog& catalog,
                  const ada::ScalePolicy& policy);

}  // namespace framebench
