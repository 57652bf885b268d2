#include "tensor/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"

namespace ada {

namespace {

/// im2col: unpacks image `n`'s input patches into a (in_c*k*k) x (oh*ow)
/// block of a column matrix held in the caller's scratch buffer.  `cols`
/// points at the image's first column and `ld` is the full row length of the
/// matrix, so a batch lays its images side by side along the column axis
/// (image n occupies columns [n*oh*ow, (n+1)*oh*ow) of every row) and the
/// whole batch lowers onto a single GEMM.  Only pad-clipped edge cells are
/// zeroed — the interior is written exactly once (memcpy rows for stride 1),
/// instead of zero-filling the whole buffer and overwriting it.
void im2col(const Tensor& x, int n, const ConvSpec& s, int oh, int ow,
            float* cols, std::ptrdiff_t ld) {
  const int k = s.kernel;
  float* row = cols;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj, row += ld) {
        // Column index j reads input column j*stride + off.
        const int off = kj * s.dilation - s.pad;
        const int j_lo =
            off >= 0 ? 0 : (-off + s.stride - 1) / s.stride;
        const int j_hi =
            x.w() - 1 - off >= 0
                ? std::min(ow - 1, (x.w() - 1 - off) / s.stride)
                : -1;
        float* col = row;
        for (int i = 0; i < oh; ++i, col += ow) {
          const int hi = i * s.stride - s.pad + ki * s.dilation;
          if (hi < 0 || hi >= x.h() || j_lo > j_hi) {
            std::memset(col, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          if (j_lo > 0)
            std::memset(col, 0, static_cast<std::size_t>(j_lo) * sizeof(float));
          if (j_hi < ow - 1)
            std::memset(col + j_hi + 1, 0,
                        static_cast<std::size_t>(ow - 1 - j_hi) * sizeof(float));
          const float* src =
              x.data() +
              ((static_cast<std::size_t>(n) * x.c() + c) * x.h() + hi) *
                  x.w() +
              (j_lo * s.stride + off);
          if (s.stride == 1) {
            std::memcpy(col + j_lo, src,
                        static_cast<std::size_t>(j_hi - j_lo + 1) *
                            sizeof(float));
          } else {
            for (int j = j_lo; j <= j_hi; ++j)
              col[j] = src[static_cast<std::ptrdiff_t>(j - j_lo) * s.stride];
          }
        }
      }
}

/// col2im: scatters a column-matrix gradient back into dx (accumulating).
void col2im(const float* cols, int n, const ConvSpec& s, int oh, int ow,
            Tensor* dx) {
  const int k = s.kernel;
  const float* col = cols;
  for (int c = 0; c < s.in_channels; ++c)
    for (int ki = 0; ki < k; ++ki)
      for (int kj = 0; kj < k; ++kj) {
        for (int i = 0; i < oh; ++i) {
          int hi = i * s.stride - s.pad + ki * s.dilation;
          if (hi < 0 || hi >= dx->h()) {
            col += ow;
            continue;
          }
          for (int j = 0; j < ow; ++j) {
            int wj = j * s.stride - s.pad + kj * s.dilation;
            float v = *col++;
            if (wj >= 0 && wj < dx->w()) dx->at(n, c, hi, wj) += v;
          }
        }
      }
}

}  // namespace

void conv2d_forward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                    const Tensor& b, Tensor* y, bool fuse_relu,
                    GemmBackend backend) {
  assert(x.c() == spec.in_channels);
  assert(w.n() == spec.out_channels && w.c() == spec.in_channels &&
         w.h() == spec.kernel && w.w() == spec.kernel);
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(oh > 0 && ow > 0);
  if (y->n() != x.n() || y->c() != spec.out_channels || y->h() != oh ||
      y->w() != ow)
    y->resize(x.n(), spec.out_channels, oh, ow);

  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;
  const int batch = x.n();

  // y[oc, :] = W[oc, :] * cols (+ bias, + ReLU), with the bias/ReLU epilogue
  // fused into the tile write-out so the backbone never makes a separate
  // pass over the activation tensor.
  GemmEpilogue epi;
  epi.row_bias = b.empty() ? nullptr : b.data();
  epi.relu = fuse_relu;
  const GemmMat wmat{w.data(), patch, 1};

  ScratchFrame frame(&scratch_arena());
  if (batch == 1) {
    // Single image: GEMM writes straight into y (already NCHW-contiguous).
    float* cols = frame.alloc(static_cast<std::size_t>(patch) * cells);
    im2col(x, 0, spec, oh, ow, cols, cells);
    sgemm(spec.out_channels, cells, patch, wmat, GemmMat{cols, cells, 1},
          y->data(), cells, /*accumulate=*/false, epi, backend);
    return;
  }

  // Batch: the images' column blocks sit side by side along the GEMM N axis
  // (one sgemm for the whole batch — larger M·N·K shapes are exactly where
  // the packed backend earns its arithmetic intensity), then the oc-major
  // product rows are scattered back to NCHW.  Each C element keeps the same
  // ascending-k accumulation chain as the single-image GEMM, so batched
  // outputs are bit-identical to per-image forwards.
  const std::size_t total = static_cast<std::size_t>(batch) * cells;
  float* cols = frame.alloc(static_cast<std::size_t>(patch) * total);
  parallel_for(batch, 1, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n)
      im2col(x, static_cast<int>(n), spec, oh, ow,
             cols + static_cast<std::size_t>(n) * cells,
             static_cast<std::ptrdiff_t>(total));
  });
  float* ybuf = frame.alloc(static_cast<std::size_t>(spec.out_channels) * total);
  sgemm(spec.out_channels, static_cast<int>(total), patch, wmat,
        GemmMat{cols, static_cast<std::ptrdiff_t>(total), 1}, ybuf,
        static_cast<int>(total), /*accumulate=*/false, epi, backend);
  // ybuf row oc holds [img0 cells | img1 cells | ...]; y wants image-major.
  parallel_for(static_cast<std::int64_t>(batch) * spec.out_channels, 1,
               [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const std::int64_t n = r / spec.out_channels;
      const std::int64_t oc = r % spec.out_channels;
      std::memcpy(y->data() + static_cast<std::size_t>(r) * cells,
                  ybuf + static_cast<std::size_t>(oc) * total +
                      static_cast<std::size_t>(n) * cells,
                  static_cast<std::size_t>(cells) * sizeof(float));
    }
  });
}

void conv2d_forward_int8(const ConvSpec& spec, const Tensor& x,
                         const QuantizedWeights& qw, const Tensor& b,
                         Tensor* y, bool fuse_relu) {
  assert(x.c() == spec.in_channels);
  assert(qw.rows == spec.out_channels &&
         qw.cols == spec.in_channels * spec.kernel * spec.kernel);
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(oh > 0 && ow > 0);
  if (y->n() != x.n() || y->c() != spec.out_channels || y->h() != oh ||
      y->w() != ow)
    y->resize(x.n(), spec.out_channels, oh, ow);

  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;
  const int batch = x.n();
  const float* bias = b.empty() ? nullptr : b.data();

  // Same lowering as the fp32 path: im2col into float columns (padding
  // zeros quantize exactly onto the zero point), then one qgemm whose
  // packing quantizes the columns to u8 and whose epilogue dequantizes the
  // int32 accumulators straight into y with bias + optional ReLU fused.
  ScratchFrame frame(&scratch_arena());
  if (batch == 1) {
    float* cols = frame.alloc(static_cast<std::size_t>(patch) * cells);
    im2col(x, 0, spec, oh, ow, cols, cells);
    qgemm(spec.out_channels, cells, patch, qw, GemmMat{cols, cells, 1},
          y->data(), cells, bias, fuse_relu);
    return;
  }

  // Batch: images side by side along the GEMM N axis, then the oc-major
  // product scattered back to NCHW — identical structure to the fp32
  // batched path.
  const std::size_t total = static_cast<std::size_t>(batch) * cells;
  float* cols = frame.alloc(static_cast<std::size_t>(patch) * total);
  parallel_for(batch, 1, [&](std::int64_t nb, std::int64_t ne) {
    for (std::int64_t n = nb; n < ne; ++n)
      im2col(x, static_cast<int>(n), spec, oh, ow,
             cols + static_cast<std::size_t>(n) * cells,
             static_cast<std::ptrdiff_t>(total));
  });
  float* ybuf =
      frame.alloc(static_cast<std::size_t>(spec.out_channels) * total);
  qgemm(spec.out_channels, static_cast<int>(total), patch, qw,
        GemmMat{cols, static_cast<std::ptrdiff_t>(total), 1}, ybuf,
        static_cast<int>(total), bias, fuse_relu);
  parallel_for(static_cast<std::int64_t>(batch) * spec.out_channels, 1,
               [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const std::int64_t n = r / spec.out_channels;
      const std::int64_t oc = r % spec.out_channels;
      std::memcpy(y->data() + static_cast<std::size_t>(r) * cells,
                  ybuf + static_cast<std::size_t>(oc) * total +
                      static_cast<std::size_t>(n) * cells,
                  static_cast<std::size_t>(cells) * sizeof(float));
    }
  });
}

void conv2d_backward(const ConvSpec& spec, const Tensor& x, const Tensor& w,
                     const Tensor& dy, Tensor* dx, Tensor* dw, Tensor* db) {
  const int oh = spec.out_dim(x.h());
  const int ow = spec.out_dim(x.w());
  assert(dy.c() == spec.out_channels && dy.h() == oh && dy.w() == ow);
  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const int cells = oh * ow;

  ScratchFrame frame(&scratch_arena());
  float* cols =
      dw != nullptr
          ? frame.alloc(static_cast<std::size_t>(patch) * cells)
          : nullptr;
  float* dcols =
      dx != nullptr
          ? frame.alloc(static_cast<std::size_t>(patch) * cells)
          : nullptr;

  for (int n = 0; n < x.n(); ++n) {
    const float* dyn =
        dy.data() + static_cast<std::size_t>(n) * spec.out_channels * cells;

    if (dw != nullptr) {
      // dW[oc, p] += dy[oc, :] * cols[p, :]^T — GEMM with B read transposed
      // (stride trick; packing materializes the panels).
      im2col(x, n, spec, oh, ow, cols, cells);
      sgemm(spec.out_channels, patch, cells, GemmMat{dyn, cells, 1},
            GemmMat{cols, 1, cells}, dw->data(), patch,
            /*accumulate=*/true);
    }
    if (db != nullptr) {
      // Per-channel double accumulator, cells ascending — each channel owns
      // its db entry, so the parallel split over channels is bit-identical
      // to the serial loop.
      parallel_for(spec.out_channels, 1,
                   [&](std::int64_t ob, std::int64_t oe) {
        for (std::int64_t oc = ob; oc < oe; ++oc) {
          const float* grow = dyn + static_cast<std::size_t>(oc) * cells;
          double acc = 0.0;
          for (int cell = 0; cell < cells; ++cell) acc += grow[cell];
          (*db)[static_cast<std::size_t>(oc)] += static_cast<float>(acc);
        }
      });
    }
    if (dx != nullptr) {
      // dcols = W^T * dy (A read transposed via strides); then col2im.
      sgemm(patch, cells, spec.out_channels, GemmMat{w.data(), 1, patch},
            GemmMat{dyn, cells, 1}, dcols, cells, /*accumulate=*/false);
      col2im(dcols, n, spec, oh, ow, dx);
    }
  }
}

long long conv2d_macs(const ConvSpec& spec, int in_h, int in_w) {
  long long oh = spec.out_dim(in_h);
  long long ow = spec.out_dim(in_w);
  return oh * ow * spec.out_channels * spec.in_channels * spec.kernel *
         spec.kernel;
}

std::size_t conv2d_forward_workspace_floats(const ConvSpec& spec, int n,
                                            int in_h, int in_w,
                                            KernelKind kernel) {
  // Mirrors the ScratchFrame allocations of conv2d_forward /
  // conv2d_forward_int8 above, with the arena's cache-line rounding.
  const auto lines = [](std::size_t floats) {
    constexpr std::size_t kLine = 64 / sizeof(float);
    return (std::max<std::size_t>(floats, 1) + kLine - 1) / kLine * kLine;
  };
  const int patch = spec.in_channels * spec.kernel * spec.kernel;
  const std::size_t cells = static_cast<std::size_t>(spec.out_dim(in_h)) *
                            static_cast<std::size_t>(spec.out_dim(in_w));
  const std::size_t total = static_cast<std::size_t>(std::max(n, 1)) * cells;
  std::size_t ws = lines(static_cast<std::size_t>(patch) * total);
  if (n > 1)  // batched path stages the oc-major product before scattering
    ws += lines(static_cast<std::size_t>(spec.out_channels) * total);
  const int N = static_cast<int>(total);
  switch (kernel) {
    case KernelKind::kInt8:
      ws += qgemm_workspace_floats(spec.out_channels, N, patch);
      break;
    case KernelKind::kGemmReference:
      ws += sgemm_workspace_floats(spec.out_channels, N, patch,
                                   GemmBackend::kReference);
      break;
    default:
      ws += sgemm_workspace_floats(spec.out_channels, N, patch,
                                   GemmBackend::kPacked);
      break;
  }
  return ws;
}

}  // namespace ada
