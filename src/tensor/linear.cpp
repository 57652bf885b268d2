#include "tensor/linear.h"

#include <algorithm>
#include <cassert>

#include "runtime/scratch.h"
#include "tensor/gemm.h"

namespace ada {

void linear_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    Tensor* y, GemmBackend backend) {
  assert(x.h() == 1 && x.w() == 1);
  const int in = x.c();
  const int out = w.n();
  assert(w.c() == in);
  if (y->n() != x.n() || y->c() != out || y->h() != 1 || y->w() != 1)
    y->resize(x.n(), out, 1, 1);
  // y = x * W^T + b: W is (out, in) row-major, read transposed via strides;
  // the bias varies along the output (column) axis of the product.
  GemmEpilogue epi;
  epi.col_bias = b.empty() ? nullptr : b.data();
  sgemm(x.n(), out, in, GemmMat{x.data(), in, 1}, GemmMat{w.data(), 1, in},
        y->data(), out, /*accumulate=*/false, epi, backend);
}

void linear_forward_int8(const Tensor& x, const QuantizedWeights& qw,
                         const Tensor& b, Tensor* y) {
  assert(x.h() == 1 && x.w() == 1);
  const int in = x.c();
  const int out = qw.rows;
  const int batch = x.n();
  assert(qw.cols == in);
  if (y->n() != batch || y->c() != out || y->h() != 1 || y->w() != 1)
    y->resize(batch, out, 1, 1);
  // y^T = Wq * x^T: x is (batch, in) row-major, so element (k, j) of the
  // K x N operand lives at x[j * in + k] — a stride view, no materialized
  // transpose.  The bias rides the GEMM row (output-channel) axis.
  const GemmMat xt{x.data(), 1, in};
  const float* bias = b.empty() ? nullptr : b.data();
  if (batch == 1) {
    // (out, 1) and (1, out) coincide in memory: write straight into y.
    qgemm(out, 1, in, qw, xt, y->data(), 1, bias, /*relu=*/false);
    return;
  }
  ScratchFrame frame(&scratch_arena());
  float* yt = frame.alloc(static_cast<std::size_t>(out) * batch);
  qgemm(out, batch, in, qw, xt, yt, batch, bias, /*relu=*/false);
  for (int n = 0; n < batch; ++n)
    for (int o = 0; o < out; ++o)
      y->at(n, o, 0, 0) = yt[static_cast<std::size_t>(o) * batch + n];
}

std::size_t linear_forward_workspace_floats(int n, int in, int out,
                                            KernelKind kernel) {
  const auto lines = [](std::size_t floats) {
    constexpr std::size_t kLine = 64 / sizeof(float);
    return (std::max<std::size_t>(floats, 1) + kLine - 1) / kLine * kLine;
  };
  switch (kernel) {
    case KernelKind::kInt8: {
      // Batched int8 stages the transposed product before scattering.
      std::size_t ws = qgemm_workspace_floats(out, n, in);
      if (n > 1) ws += lines(static_cast<std::size_t>(out) * n);
      return ws;
    }
    case KernelKind::kGemmReference:
      return 0;
    default:
      return sgemm_workspace_floats(n, out, in, GemmBackend::kPacked);
  }
}

void linear_backward(const Tensor& x, const Tensor& w, const Tensor& dy,
                     Tensor* dx, Tensor* dw, Tensor* db) {
  const int in = x.c();
  const int out = w.n();
  assert(dy.c() == out);
  for (int n = 0; n < x.n(); ++n)
    for (int o = 0; o < out; ++o) {
      const float g = dy.at(n, o, 0, 0);
      if (db != nullptr) (*db)[static_cast<std::size_t>(o)] += g;
      for (int i = 0; i < in; ++i) {
        if (dw != nullptr) dw->at(o, i, 0, 0) += g * x.at(n, i, 0, 0);
        if (dx != nullptr) dx->at(n, i, 0, 0) += g * w.at(o, i, 0, 0);
      }
    }
}

}  // namespace ada
