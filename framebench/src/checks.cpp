#include "checks.h"

#include <cstring>
#include <string>

#include "detection/box.h"

namespace framebench {

namespace {

std::string at(const FrameRecord& f) {
  return "stream " + std::to_string(f.stream) + " snippet " +
         std::to_string(f.snippet) + " frame " + std::to_string(f.frame);
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_box(const ada::Box& a, const ada::Box& b) {
  return same_bits(a.x1, b.x1) && same_bits(a.y1, b.y1) &&
         same_bits(a.x2, b.x2) && same_bits(a.y2, b.y2);
}

}  // namespace

FrameRecord make_record(int stream, int snippet, int frame, int scale,
                        int next_scale, bool key,
                        const ada::DetectionOutput& out) {
  FrameRecord r;
  r.stream = stream;
  r.snippet = snippet;
  r.frame = frame;
  r.scale = scale;
  r.next_scale = next_scale;
  r.key = key;
  r.image_h = out.image_h;
  r.image_w = out.image_w;
  r.dets.reserve(out.detections.size());
  for (const ada::Detection& d : out.detections)
    r.dets.push_back(ada::EvalDetection{d.box, d.class_id, d.score});
  return r;
}

std::string check_served(long offered, long served) {
  if (offered == served) return "";
  return "served " + std::to_string(served) + " of " +
         std::to_string(offered) + " offered frames";
}

std::string check_scales(const std::vector<FrameRecord>& frames,
                         const ada::ScaleSet& sreg,
                         const ada::ScalePolicy& policy, bool snapped) {
  const int lo = sreg.min(), hi = sreg.max();
  for (const FrameRecord& f : frames) {
    for (int s : {f.scale, f.next_scale}) {
      if (s < lo || s > hi)
        return at(f) + ": scale " + std::to_string(s) + " outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
      if (snapped && !sreg.contains(s))
        return at(f) + ": snapped scale " + std::to_string(s) +
               " is not in " + sreg.to_string();
    }
    if (f.image_h != policy.render_h(f.scale) ||
        f.image_w != policy.render_w(f.scale))
      return at(f) + ": image " + std::to_string(f.image_h) + "x" +
             std::to_string(f.image_w) + " does not match scale " +
             std::to_string(f.scale);
  }
  return "";
}

std::string check_boxes_inside(const std::vector<FrameRecord>& frames) {
  for (const FrameRecord& f : frames) {
    const auto h = static_cast<float>(f.image_h);
    const auto w = static_cast<float>(f.image_w);
    for (const ada::EvalDetection& d : f.dets) {
      const ada::Box& b = d.box;
      if (!(b.x1 >= 0.0f && b.x1 <= b.x2 && b.x2 <= w && b.y1 >= 0.0f &&
            b.y1 <= b.y2 && b.y2 <= h))
        return at(f) + ": box (" + std::to_string(b.x1) + ", " +
               std::to_string(b.y1) + ", " + std::to_string(b.x2) + ", " +
               std::to_string(b.y2) + ") outside the " +
               std::to_string(f.image_h) + "x" + std::to_string(f.image_w) +
               " image";
    }
  }
  return "";
}

std::string check_top_k(const std::vector<FrameRecord>& frames, int top_k) {
  for (const FrameRecord& f : frames)
    if (static_cast<int>(f.dets.size()) > top_k)
      return at(f) + ": " + std::to_string(f.dets.size()) +
             " detections, more than top_k " + std::to_string(top_k);
  return "";
}

std::string check_nms(const std::vector<FrameRecord>& frames,
                      float nms_threshold) {
  for (const FrameRecord& f : frames) {
    for (std::size_t i = 0; i < f.dets.size(); ++i) {
      for (std::size_t j = i + 1; j < f.dets.size(); ++j) {
        if (f.dets[i].class_id != f.dets[j].class_id) continue;
        const float o = ada::iou(f.dets[i].box, f.dets[j].box);
        if (o > nms_threshold)
          return at(f) + ": class " + std::to_string(f.dets[i].class_id) +
                 " boxes " + std::to_string(i) + " and " + std::to_string(j) +
                 " overlap at IoU " + std::to_string(o);
      }
    }
  }
  return "";
}

std::string check_identical(const std::vector<FrameRecord>& got,
                            const std::vector<FrameRecord>& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " frames, reference has " +
           std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const FrameRecord& g = got[i];
    const FrameRecord& w = want[i];
    if (g.stream != w.stream || g.snippet != w.snippet || g.frame != w.frame)
      return "frame " + std::to_string(i) + " is " + at(g) +
             ", reference has " + at(w);
    if (g.scale != w.scale || g.next_scale != w.next_scale)
      return at(g) + ": scales " + std::to_string(g.scale) + "->" +
             std::to_string(g.next_scale) + ", reference " +
             std::to_string(w.scale) + "->" + std::to_string(w.next_scale);
    if (g.key != w.key) return at(g) + ": key-frame flag differs";
    if (g.image_h != w.image_h || g.image_w != w.image_w)
      return at(g) + ": image size differs";
    if (g.dets.size() != w.dets.size())
      return at(g) + ": " + std::to_string(g.dets.size()) +
             " detections, reference has " + std::to_string(w.dets.size());
    for (std::size_t k = 0; k < g.dets.size(); ++k) {
      const ada::EvalDetection& a = g.dets[k];
      const ada::EvalDetection& b = w.dets[k];
      if (a.class_id != b.class_id || !same_bits(a.score, b.score) ||
          !same_box(a.box, b.box))
        return at(g) + ": detection " + std::to_string(k) +
               " differs from the reference";
    }
  }
  return "";
}

std::string check_keyframes(const std::vector<FrameRecord>& frames,
                            int max_interval) {
  int warp_run = 0;
  for (const FrameRecord& f : frames) {
    if (f.frame == 0 && !f.key)
      return at(f) + ": snippet starts on a warp frame";
    warp_run = f.key ? 0 : warp_run + 1;
    if (warp_run > max_interval)
      return at(f) + ": " + std::to_string(warp_run) +
             " warp frames in a row, max_interval is " +
             std::to_string(max_interval);
  }
  return "";
}

std::string check_map_floor(double map, int num_classes) {
  const double floor = 1.0 / static_cast<double>(num_classes);
  if (map > floor) return "";
  return "mAP " + std::to_string(map) + " not above the class-blind floor " +
         std::to_string(floor);
}

std::string check_map_bar(double map, double reference_map, double bar) {
  const double d = map - reference_map;
  if (d <= bar && d >= -bar) return "";
  return "mAP " + std::to_string(map) + " is " + std::to_string(d) +
         " from the fp32 reference " + std::to_string(reference_map) +
         ", beyond the " + std::to_string(bar) + " bar";
}

double frames_map(const std::vector<FrameRecord>& frames,
                  const std::vector<ada::Snippet>& pool,
                  const ada::ClassCatalog& catalog,
                  const ada::ScalePolicy& policy) {
  std::vector<std::string> names;
  for (const ada::ClassSignature& c : catalog.all()) names.push_back(c.name);
  ada::MapEvaluator evaluator(std::move(names));
  const int ref_h = policy.render_h(600), ref_w = policy.render_w(600);
  for (const FrameRecord& f : frames) {
    const ada::Scene& scene =
        pool.at(static_cast<std::size_t>(f.snippet))
            .frames.at(static_cast<std::size_t>(f.frame));
    std::vector<ada::EvalDetection> ref = f.dets;
    for (ada::EvalDetection& d : ref)
      d.box = ada::rescale_box(d.box, f.image_h, f.image_w, ref_h, ref_w);
    evaluator.add_frame(ada::scene_ground_truth(scene, ref_h, ref_w), ref);
  }
  return evaluator.compute(/*iou_threshold=*/0.5f).map;
}

}  // namespace framebench
