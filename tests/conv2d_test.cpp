// Convolution correctness: hand-computed cases + numerical gradient checks.
#include "tensor/conv2d.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace ada {
namespace {

void fill_random(Tensor* t, Rng* rng, float scale = 1.0f) {
  for (std::size_t i = 0; i < t->size(); ++i) t->storage()[i] = rng->normal() * scale;
}

/// Direct (definition-based) convolution for cross-checking im2col.
void conv_reference(const ConvSpec& s, const Tensor& x, const Tensor& w,
                    const Tensor& b, Tensor* y) {
  const int oh = s.out_dim(x.h()), ow = s.out_dim(x.w());
  *y = Tensor(x.n(), s.out_channels, oh, ow);
  for (int n = 0; n < x.n(); ++n)
    for (int oc = 0; oc < s.out_channels; ++oc)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) {
          double acc = b.empty() ? 0.0 : b[static_cast<std::size_t>(oc)];
          for (int ic = 0; ic < s.in_channels; ++ic)
            for (int ki = 0; ki < s.kernel; ++ki)
              for (int kj = 0; kj < s.kernel; ++kj) {
                const int hi = i * s.stride - s.pad + ki * s.dilation;
                const int wj = j * s.stride - s.pad + kj * s.dilation;
                if (hi < 0 || hi >= x.h() || wj < 0 || wj >= x.w()) continue;
                acc += static_cast<double>(x.at(n, ic, hi, wj)) *
                       w.at(oc, ic, ki, kj);
              }
          y->at(n, oc, i, j) = static_cast<float>(acc);
        }
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  ConvSpec s{1, 1, 1, 1, 0};
  Tensor x = Tensor::chw(1, 3, 3);
  for (int i = 0; i < 9; ++i) x[static_cast<std::size_t>(i)] = static_cast<float>(i);
  Tensor w(1, 1, 1, 1);
  w[0] = 1.0f;
  Tensor b(1, 1, 1, 1);
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)]);
}

// A layer output re-sized at every scale change keeps the storage of the
// largest scale it has served, and the values match a fresh output.
TEST(Conv2d, OutputKeepsItsStorageAcrossScales) {
  ConvSpec s{3, 4, 3, 1, 1};
  Rng rng(5);
  Tensor w(4, 3, 3, 3), b(1, 4, 1, 1);
  fill_random(&w, &rng);
  fill_random(&b, &rng);
  Tensor big = Tensor::chw(3, 12, 16), small = Tensor::chw(3, 7, 9);
  fill_random(&big, &rng);
  fill_random(&small, &rng);
  Tensor y;
  conv2d_forward(s, big, w, b, &y);
  const float* storage = y.data();
  for (const Tensor* x : {&small, &big, &small}) {
    conv2d_forward(s, *x, w, b, &y);
    EXPECT_EQ(y.data(), storage);
    Tensor fresh;
    conv2d_forward(s, *x, w, b, &fresh);
    ASSERT_TRUE(y.same_shape(fresh));
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_EQ(y[i], fresh[i]);
  }
}

TEST(Conv2d, BiasIsAdded) {
  ConvSpec s{1, 2, 1, 1, 0};
  Tensor x = Tensor::chw(1, 2, 2);
  x.fill(1.0f);
  Tensor w(2, 1, 1, 1);
  w[0] = 0.0f;
  w[1] = 0.0f;
  Tensor b(1, 2, 1, 1);
  b[0] = 3.0f;
  b[1] = -1.0f;
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -1.0f);
}

TEST(Conv2d, MatchesReferenceImplementation) {
  Rng rng(5);
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      ConvSpec s{3, 4, kernel, stride, kernel / 2};
      Tensor x = Tensor::chw(3, 9, 11);
      fill_random(&x, &rng);
      Tensor w(4, 3, kernel, kernel);
      fill_random(&w, &rng);
      Tensor b(1, 4, 1, 1);
      fill_random(&b, &rng);
      Tensor y, y_ref;
      conv2d_forward(s, x, w, b, &y);
      conv_reference(s, x, w, b, &y_ref);
      ASSERT_TRUE(y.same_shape(y_ref)) << "kernel=" << kernel;
      for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y[i], y_ref[i], 1e-4f) << "kernel=" << kernel << " i=" << i;
    }
  }
}

TEST(Conv2d, OutDimFloorSemantics) {
  ConvSpec s{1, 1, 3, 2, 1};
  EXPECT_EQ(s.out_dim(7), 4);
  EXPECT_EQ(s.out_dim(8), 4);
  ConvSpec p{1, 1, 3, 1, 1};
  EXPECT_EQ(p.out_dim(10), 10);
}

TEST(Conv2d, MacsScaleWithArea) {
  ConvSpec s{3, 8, 3, 1, 1};
  const long long m1 = conv2d_macs(s, 10, 10);
  const long long m2 = conv2d_macs(s, 20, 20);
  EXPECT_EQ(m2, 4 * m1);
}

/// Numerical gradient check of the full backward pass.
TEST(Conv2d, GradientsMatchNumerical) {
  Rng rng(17);
  ConvSpec s{2, 3, 3, 1, 1};
  Tensor x = Tensor::chw(2, 5, 6);
  fill_random(&x, &rng, 0.5f);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng, 0.5f);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng, 0.5f);

  // Loss = sum(y * r) for a fixed random r => dy = r.
  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  Tensor r(y.n(), y.c(), y.h(), y.w());
  fill_random(&r, &rng, 1.0f);

  Tensor dx(x.n(), x.c(), x.h(), x.w());
  Tensor dw(w.n(), w.c(), w.h(), w.w());
  Tensor db(1, 3, 1, 1);
  conv2d_backward(s, x, w, r, &dx, &dw, &db);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor yy;
    conv2d_forward(s, xx, ww, bb, &yy);
    double acc = 0;
    for (std::size_t i = 0; i < yy.size(); ++i) acc += static_cast<double>(yy[i]) * r[i];
    return acc;
  };

  const float eps = 1e-3f;
  // Check a sample of coordinates of each gradient.
  for (std::size_t i = 0; i < x.size(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 5e-2) << "dx[" << i << "]";
  }
  for (std::size_t i = 0; i < w.size(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const double num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(dw[i], num, 5e-2) << "dw[" << i << "]";
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    const double num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(db[i], num, 5e-2) << "db[" << i << "]";
  }
}

TEST(Conv2d, BackwardAccumulates) {
  // Calling backward twice must double the weight gradient.
  Rng rng(23);
  ConvSpec s{1, 1, 3, 1, 1};
  Tensor x = Tensor::chw(1, 4, 4);
  fill_random(&x, &rng);
  Tensor w(1, 1, 3, 3);
  fill_random(&w, &rng);
  Tensor dy = Tensor::chw(1, 4, 4);
  fill_random(&dy, &rng);
  Tensor dw1(1, 1, 3, 3), dw2(1, 1, 3, 3);
  conv2d_backward(s, x, w, dy, nullptr, &dw1, nullptr);
  conv2d_backward(s, x, w, dy, nullptr, &dw2, nullptr);
  conv2d_backward(s, x, w, dy, nullptr, &dw2, nullptr);
  for (std::size_t i = 0; i < dw1.size(); ++i)
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-4f);
}

TEST(Conv2d, DilatedForwardMatchesReference) {
  // dilation=2, pad=2 keeps the spatial size for k=3 (effective kernel 5).
  Rng rng(23);
  ConvSpec s{2, 3, 3, 1, 2, 2};
  EXPECT_EQ(s.effective_kernel(), 5);
  Tensor x = Tensor::chw(2, 7, 9);
  fill_random(&x, &rng);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng);

  Tensor y, ref;
  conv2d_forward(s, x, w, b, &y);
  conv_reference(s, x, w, b, &ref);
  ASSERT_TRUE(y.same_shape(ref));
  EXPECT_EQ(y.h(), 7);
  EXPECT_EQ(y.w(), 9);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-4f);
}

/// Numerical gradient check of the dilated backward path (the detector's
/// conv4 runs with dilation 4; the plain checks above only cover dilation 1,
/// where the dilated indexing degenerates to the old code).
TEST(Conv2d, DilatedGradientsMatchNumerical) {
  Rng rng(29);
  ConvSpec s{2, 3, 3, 1, 2, 2};
  Tensor x = Tensor::chw(2, 6, 5);
  fill_random(&x, &rng, 0.5f);
  Tensor w(3, 2, 3, 3);
  fill_random(&w, &rng, 0.5f);
  Tensor b(1, 3, 1, 1);
  fill_random(&b, &rng, 0.5f);

  Tensor y;
  conv2d_forward(s, x, w, b, &y);
  Tensor r(y.n(), y.c(), y.h(), y.w());
  fill_random(&r, &rng, 1.0f);

  Tensor dx(x.n(), x.c(), x.h(), x.w());
  Tensor dw(w.n(), w.c(), w.h(), w.w());
  Tensor db(1, 3, 1, 1);
  conv2d_backward(s, x, w, r, &dx, &dw, &db);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor yy;
    conv2d_forward(s, xx, ww, bb, &yy);
    double acc = 0;
    for (std::size_t i = 0; i < yy.size(); ++i)
      acc += static_cast<double>(yy[i]) * r[i];
    return acc;
  };

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 5e-2) << "dx[" << i << "]";
  }
  for (std::size_t i = 0; i < w.size(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    const double num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(dw[i], num, 5e-2) << "dw[" << i << "]";
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    Tensor bp = b, bm = b;
    bp[i] += eps;
    bm[i] -= eps;
    const double num = (loss(x, w, bp) - loss(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(db[i], num, 5e-2) << "db[" << i << "]";
  }
}

}  // namespace
}  // namespace ada
