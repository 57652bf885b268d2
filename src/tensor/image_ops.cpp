#include "tensor/image_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ada {

namespace {

/// Clamped bilinear sample of channel plane (n=0, channel c) at float coords.
float sample(const Tensor& t, int c, float y, float x) {
  const int h = t.h(), w = t.w();
  y = std::clamp(y, 0.0f, static_cast<float>(h - 1));
  x = std::clamp(x, 0.0f, static_cast<float>(w - 1));
  int y0 = static_cast<int>(std::floor(y));
  int x0 = static_cast<int>(std::floor(x));
  int y1 = std::min(y0 + 1, h - 1);
  int x1 = std::min(x0 + 1, w - 1);
  float fy = y - static_cast<float>(y0);
  float fx = x - static_cast<float>(x0);
  float v00 = t.at(0, c, y0, x0), v01 = t.at(0, c, y0, x1);
  float v10 = t.at(0, c, y1, x0), v11 = t.at(0, c, y1, x1);
  return v00 * (1 - fy) * (1 - fx) + v01 * (1 - fy) * fx +
         v10 * fy * (1 - fx) + v11 * fy * fx;
}

}  // namespace

void bilinear_resize(const Tensor& src, int out_h, int out_w, Tensor* dst) {
  assert(src.n() == 1 && out_h > 0 && out_w > 0);
  if (dst->n() != 1 || dst->c() != src.c() || dst->h() != out_h ||
      dst->w() != out_w)
    dst->resize(1, src.c(), out_h, out_w);
  if (src.h() == out_h && src.w() == out_w) {
    std::copy(src.data(), src.data() + src.size(), dst->data());
    return;
  }
  const float sy = static_cast<float>(src.h()) / static_cast<float>(out_h);
  const float sx = static_cast<float>(src.w()) / static_cast<float>(out_w);
  for (int c = 0; c < src.c(); ++c)
    for (int i = 0; i < out_h; ++i) {
      float y = (static_cast<float>(i) + 0.5f) * sy - 0.5f;
      for (int j = 0; j < out_w; ++j) {
        float x = (static_cast<float>(j) + 0.5f) * sx - 0.5f;
        dst->at(0, c, i, j) = sample(src, c, y, x);
      }
    }
}

void flip_horizontal(const Tensor& src, Tensor* dst) {
  assert(src.n() == 1);
  if (!dst->same_shape(src)) dst->resize(1, src.c(), src.h(), src.w());
  const int w = src.w();
  for (int c = 0; c < src.c(); ++c)
    for (int i = 0; i < src.h(); ++i)
      for (int j = 0; j < w; ++j)
        dst->at(0, c, i, j) = src.at(0, c, i, w - 1 - j);
}

void bilinear_warp(const Tensor& src, const Tensor& flow_y,
                   const Tensor& flow_x, Tensor* dst) {
  assert(src.n() == 1);
  assert(flow_y.h() == src.h() && flow_y.w() == src.w());
  assert(flow_x.h() == src.h() && flow_x.w() == src.w());
  if (!dst->same_shape(src)) dst->resize(1, src.c(), src.h(), src.w());
  for (int c = 0; c < src.c(); ++c)
    for (int i = 0; i < src.h(); ++i)
      for (int j = 0; j < src.w(); ++j) {
        float y = static_cast<float>(i) + flow_y.at(0, 0, i, j);
        float x = static_cast<float>(j) + flow_x.at(0, 0, i, j);
        dst->at(0, c, i, j) = sample(src, c, y, x);
      }
}

}  // namespace ada
