#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/thread_pool.h"

namespace ada {

namespace {

// Below this many elements the parallel_for dispatch costs more than the
// loop; the pool runs smaller tensors inline.
constexpr std::int64_t kElementwiseGrain = 1 << 14;

}  // namespace

void axpy(float alpha, const Tensor& x, Tensor* y) {
  assert(x.same_shape(*y));
  const float* xs = x.data();
  float* ys = y->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   ys[i] += alpha * xs[i];
               });
}

void relu_forward(const Tensor& x, Tensor* y) {
  if (!x.same_shape(*y)) y->resize(x.n(), x.c(), x.h(), x.w());
  const float* xs = x.data();
  float* ys = y->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   ys[i] = xs[i] > 0.0f ? xs[i] : 0.0f;
               });
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor* dx) {
  assert(x.same_shape(dy) && x.same_shape(*dx));
  const float* xs = x.data();
  const float* ds = dy.data();
  float* out = dx->data();
  parallel_for(static_cast<std::int64_t>(x.size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i)
                   if (xs[i] > 0.0f) out[i] += ds[i];
               });
}

void scale(Tensor* x, float alpha) {
  float* xs = x->data();
  parallel_for(static_cast<std::int64_t>(x->size()), kElementwiseGrain,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) xs[i] *= alpha;
               });
}

void global_avg_pool_forward(const Tensor& x, Tensor* y) {
  if (y->n() != x.n() || y->c() != x.c() || y->h() != 1 || y->w() != 1)
    y->resize(x.n(), x.c(), 1, 1);
  const float inv = 1.0f / static_cast<float>(x.h() * x.w());
  for (int n = 0; n < x.n(); ++n)
    for (int c = 0; c < x.c(); ++c) {
      double s = 0.0;
      for (int h = 0; h < x.h(); ++h)
        for (int w = 0; w < x.w(); ++w) s += x.at(n, c, h, w);
      y->at(n, c, 0, 0) = static_cast<float>(s) * inv;
    }
}

void global_avg_pool_backward(const Tensor& x_shape_like, const Tensor& dy,
                              Tensor* dx) {
  assert(dx->same_shape(x_shape_like));
  assert(dy.n() == x_shape_like.n() && dy.c() == x_shape_like.c());
  const float inv =
      1.0f / static_cast<float>(x_shape_like.h() * x_shape_like.w());
  for (int n = 0; n < dx->n(); ++n)
    for (int c = 0; c < dx->c(); ++c) {
      float g = dy.at(n, c, 0, 0) * inv;
      for (int h = 0; h < dx->h(); ++h)
        for (int w = 0; w < dx->w(); ++w) dx->at(n, c, h, w) += g;
    }
}

void maxpool2_forward(const Tensor& x, Tensor* y, std::vector<int>* argmax) {
  const int oh = x.h() / 2;
  const int ow = x.w() / 2;
  if (y->n() != x.n() || y->c() != x.c() || y->h() != oh || y->w() != ow)
    y->resize(x.n(), x.c(), oh, ow);
  argmax->assign(y->size(), 0);
  std::size_t oidx = 0;
  for (int n = 0; n < x.n(); ++n)
    for (int c = 0; c < x.c(); ++c)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) {
          float best = -1e30f;
          int best_flat = 0;
          for (int di = 0; di < 2; ++di)
            for (int dj = 0; dj < 2; ++dj) {
              int hh = 2 * i + di, ww = 2 * j + dj;
              float v = x.at(n, c, hh, ww);
              if (v > best) {
                best = v;
                best_flat = ((n * x.c() + c) * x.h() + hh) * x.w() + ww;
              }
            }
          y->at(n, c, i, j) = best;
          (*argmax)[oidx++] = best_flat;
        }
}

void maxpool2_backward(const Tensor& dy, const std::vector<int>& argmax,
                       Tensor* dx) {
  assert(argmax.size() == dy.size());
  const float* g = dy.data();
  float* out = dx->data();
  for (std::size_t i = 0; i < dy.size(); ++i) out[argmax[i]] += g[i];
}

void softmax_rows(const Tensor& x, Tensor* y) {
  if (!x.same_shape(*y)) y->resize(x.n(), x.c(), x.h(), x.w());
  assert(x.h() == 1 && x.w() == 1);
  for (int n = 0; n < x.n(); ++n) {
    float mx = -1e30f;
    for (int c = 0; c < x.c(); ++c) mx = std::max(mx, x.at(n, c, 0, 0));
    double denom = 0.0;
    for (int c = 0; c < x.c(); ++c)
      denom += std::exp(static_cast<double>(x.at(n, c, 0, 0) - mx));
    for (int c = 0; c < x.c(); ++c)
      y->at(n, c, 0, 0) = static_cast<float>(
          std::exp(static_cast<double>(x.at(n, c, 0, 0) - mx)) / denom);
  }
}

}  // namespace ada
