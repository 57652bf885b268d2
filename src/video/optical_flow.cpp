#include "video/optical_flow.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ada {

Tensor to_grayscale(const Tensor& rgb) {
  assert(rgb.n() == 1 && rgb.c() == 3);
  Tensor gray(1, 1, rgb.h(), rgb.w());
  for (int i = 0; i < rgb.h(); ++i)
    for (int j = 0; j < rgb.w(); ++j)
      gray.at(0, 0, i, j) = 0.299f * rgb.at(0, 0, i, j) +
                            0.587f * rgb.at(0, 1, i, j) +
                            0.114f * rgb.at(0, 2, i, j);
  return gray;
}

namespace {

/// SAD between patch centered at (cy,cx) in cur and (cy+dy,cx+dx) in ref.
/// Border pixels clamp.
float patch_sad(const Tensor& ref, const Tensor& cur, int cy, int cx, int dy,
                int dx, int pr) {
  const int h = cur.h(), w = cur.w();
  float sad = 0.0f;
  for (int oy = -pr; oy <= pr; ++oy)
    for (int ox = -pr; ox <= pr; ++ox) {
      const int y1 = std::clamp(cy + oy, 0, h - 1);
      const int x1 = std::clamp(cx + ox, 0, w - 1);
      const int y2 = std::clamp(cy + dy + oy, 0, h - 1);
      const int x2 = std::clamp(cx + dx + ox, 0, w - 1);
      sad += std::fabs(cur.at(0, 0, y1, x1) - ref.at(0, 0, y2, x2));
    }
  return sad;
}

/// Parabolic refinement: given costs at offsets -1/0/+1, the sub-cell
/// minimum location in [-0.5, 0.5].  A (near-)zero center cost is a perfect
/// match — no refinement, otherwise asymmetric neighbors would pull the
/// vertex off an exact alignment.
float parabolic(float cm, float c0, float cp) {
  if (c0 <= 1e-6f) return 0.0f;
  const float denom = cm - 2.0f * c0 + cp;
  if (denom <= 1e-9f) return 0.0f;
  return std::clamp(0.5f * (cm - cp) / denom, -0.5f, 0.5f);
}

}  // namespace

void block_matching_flow(const Tensor& ref, const Tensor& cur,
                         const FlowConfig& cfg, Tensor* flow_y,
                         Tensor* flow_x) {
  assert(ref.h() == cur.h() && ref.w() == cur.w());
  const int h = cur.h(), w = cur.w();
  if (flow_y->h() != h || flow_y->w() != w) flow_y->resize(1, 1, h, w);
  if (flow_x->h() != h || flow_x->w() != w) flow_x->resize(1, 1, h, w);

  const int r = cfg.search_radius;
  const int pr = cfg.patch_radius;
  for (int i = 0; i < h; ++i)
    for (int j = 0; j < w; ++j) {
      float best = 1e30f;
      int bdy = 0, bdx = 0;
      for (int dy = -r; dy <= r; ++dy)
        for (int dx = -r; dx <= r; ++dx) {
          const float c = patch_sad(ref, cur, i, j, dy, dx, pr);
          // Small bias toward zero motion stabilizes flat regions.
          const float cost =
              c + 1e-3f * static_cast<float>(dy * dy + dx * dx);
          if (cost < best) {
            best = cost;
            bdy = dy;
            bdx = dx;
          }
        }
      // Sub-cell refinement along each axis (only in the search interior).
      float fy = static_cast<float>(bdy);
      float fx = static_cast<float>(bdx);
      if (bdy > -r && bdy < r)
        fy += parabolic(patch_sad(ref, cur, i, j, bdy - 1, bdx, pr),
                        patch_sad(ref, cur, i, j, bdy, bdx, pr),
                        patch_sad(ref, cur, i, j, bdy + 1, bdx, pr));
      if (bdx > -r && bdx < r)
        fx += parabolic(patch_sad(ref, cur, i, j, bdy, bdx - 1, pr),
                        patch_sad(ref, cur, i, j, bdy, bdx, pr),
                        patch_sad(ref, cur, i, j, bdy, bdx + 1, pr));
      flow_y->at(0, 0, i, j) = fy;
      flow_x->at(0, 0, i, j) = fx;
    }
}

namespace {

/// Bilinear sample with border clamp (matches bilinear_warp's convention).
float sample_clamped(const Tensor& t, float y, float x) {
  const int h = t.h(), w = t.w();
  const float cy = std::clamp(y, 0.0f, static_cast<float>(h - 1));
  const float cx = std::clamp(x, 0.0f, static_cast<float>(w - 1));
  const int y0 = static_cast<int>(cy), x0 = static_cast<int>(cx);
  const int y1 = std::min(y0 + 1, h - 1), x1 = std::min(x0 + 1, w - 1);
  const float fy = cy - static_cast<float>(y0);
  const float fx = cx - static_cast<float>(x0);
  return (1.0f - fy) * ((1.0f - fx) * t.at(0, 0, y0, x0) +
                        fx * t.at(0, 0, y0, x1)) +
         fy * ((1.0f - fx) * t.at(0, 0, y1, x0) + fx * t.at(0, 0, y1, x1));
}

}  // namespace

void compose_flow(const Tensor& acc_y, const Tensor& acc_x,
                  const Tensor& step_y, const Tensor& step_x, Tensor* out_y,
                  Tensor* out_x) {
  assert(acc_y.h() == step_y.h() && acc_y.w() == step_y.w());
  const int h = step_y.h(), w = step_y.w();
  if (out_y->h() != h || out_y->w() != w) out_y->resize(1, 1, h, w);
  if (out_x->h() != h || out_x->w() != w) out_x->resize(1, 1, h, w);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const float sy = step_y.at(0, 0, y, x);
      const float sx = step_x.at(0, 0, y, x);
      const float py = static_cast<float>(y) + sy;
      const float px = static_cast<float>(x) + sx;
      out_y->at(0, 0, y, x) = sy + sample_clamped(acc_y, py, px);
      out_x->at(0, 0, y, x) = sx + sample_clamped(acc_x, py, px);
    }
}

}  // namespace ada
