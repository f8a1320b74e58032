#include "kernels/conv.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"

namespace easyscale::kernels {

namespace {

/// Minimum per-chunk inner-loop work for the parallel splits below; purely
/// size-derived, so chunking never depends on timing.
constexpr std::int64_t kMinChunkWork = 16384;

std::int64_t work_grain(std::int64_t per_item_work) {
  return std::max<std::int64_t>(1,
                                kMinChunkWork / std::max<std::int64_t>(1, per_item_work));
}

void check_dims(const Conv2dDims& d) {
  ES_CHECK(d.groups > 0 && d.in_channels % d.groups == 0 &&
               d.out_channels % d.groups == 0,
           "conv2d: channels not divisible by groups");
  ES_CHECK(d.out_h() > 0 && d.out_w() > 0, "conv2d: empty output");
}

/// Output positions [lo, hi) of one kernel offset `k` along one axis whose
/// input index o * stride + k - pad lies inside [0, in).
struct ValidRange {
  std::int64_t lo;
  std::int64_t hi;
};

ValidRange valid_range(std::int64_t out, std::int64_t in, std::int64_t stride,
                       std::int64_t k, std::int64_t pad) {
  // Smallest o with o * stride >= a (0 when a <= 0).
  const auto ceil_div = [stride](std::int64_t a) {
    return a <= 0 ? std::int64_t{0} : (a + stride - 1) / stride;
  };
  const std::int64_t lo = std::min(out, ceil_div(pad - k));
  return {lo, std::max(lo, std::min(out, ceil_div(in + pad - k)))};
}

/// One kernel tap (kh, kw) with its valid output rows and columns.  The
/// ranges depend on the tap alone, so im2col and col2im walk taps in the
/// outer loops and channels innermost.
struct Tap {
  std::int64_t kh;
  std::int64_t kw;
  ValidRange ys;
  ValidRange xs;
};

/// Runs fn(tap, c) for every tap in (kh, kw) order and, per tap, every
/// channel c of [c0, c1).  Each channel still sees its taps in (kh, kw)
/// order.
template <typename Fn>
void for_each_tap(const Conv2dDims& d, std::int64_t c0, std::int64_t c1,
                  Fn&& fn) {
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  Tap tap{};
  for (tap.kh = 0; tap.kh < d.kernel_h; ++tap.kh) {
    tap.ys = valid_range(oh, d.in_h, d.stride, tap.kh, d.pad);
    for (tap.kw = 0; tap.kw < d.kernel_w; ++tap.kw) {
      tap.xs = valid_range(ow, d.in_w, d.stride, tap.kw, d.pad);
      for (std::int64_t c = c0; c < c1; ++c) fn(tap, c);
    }
  }
}

/// One im2col tap of channel plane `plane` into its cols row `dst`
/// ([oh, ow]).  Stride-1 convs whose output rows are as wide as their
/// input rows (ow == in_w, "same" padding) map output (y, x) to input
/// (y + kh - pad, x + kw - pad), so over the flattened plane the whole tap
/// is dst[i] = plane[i + shift]: the valid rows are one contiguous run,
/// clamped to the plane.  Other geometries copy each valid row's valid run
/// (contiguous for stride 1, strided otherwise).  The boundary columns are
/// zeroed last, which also overwrites the cells the shifted run wrapped in
/// from neighbouring input rows, so every cell ends up holding exactly its
/// input value or zero.
void im2col_tap(const Conv2dDims& d, std::int64_t oh, std::int64_t ow,
                const Tap& t, const float* plane, float* dst) {
  std::fill(dst, dst + t.ys.lo * ow, 0.0f);
  std::fill(dst + t.ys.hi * ow, dst + oh * ow, 0.0f);
  if (d.stride == 1 && ow == d.in_w) {
    const std::int64_t shift = (t.kh - d.pad) * d.in_w + (t.kw - d.pad);
    const std::int64_t lo = std::max(t.ys.lo * ow, -shift);
    const std::int64_t hi = std::min(t.ys.hi * ow, d.in_h * d.in_w - shift);
    if (lo < hi) {
      std::memcpy(dst + lo, plane + lo + shift,
                  static_cast<std::size_t>(hi - lo) * sizeof(float));
    }
  } else {
    for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) {
      float* drow = dst + y * ow;
      const float* srow = plane + (y * d.stride + t.kh - d.pad) * d.in_w;
      if (d.stride == 1) {
        std::copy(srow + (t.xs.lo + t.kw - d.pad),
                  srow + (t.xs.hi + t.kw - d.pad), drow + t.xs.lo);
        continue;
      }
      for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) {
        drow[x] = srow[x * d.stride + t.kw - d.pad];
      }
    }
  }
  // The boundary columns are at most `pad` wide: zero them column by
  // column (a fill per row would cost a memset call per row).
  const auto zero_cols = [&](std::int64_t x0, std::int64_t x1) {
    for (std::int64_t x = x0; x < x1; ++x) {
      for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) dst[y * ow + x] = 0.0f;
    }
  };
  zero_cols(0, t.xs.lo);
  zero_cols(t.xs.hi, ow);
}

/// The vector backends' same-geometry bodies apply (see ConvSameArgs).
bool same_geometry(const Conv2dDims& d, ConvSameArgs& geo) {
  geo = {d.in_h, d.in_w, d.out_h(), d.kernel_h, d.kernel_w, d.pad};
  return d.stride == 1 && d.out_w() == d.in_w && geo.fits();
}

/// 1x1, stride 1, pad 0: the column matrix IS the group's input block, and
/// col2im is a plain per-element add.
bool pointwise(const Conv2dDims& d) {
  return d.kernel_h == 1 && d.kernel_w == 1 && d.stride == 1 && d.pad == 0;
}

}  // namespace

void im2col(const ExecContext& ctx, const Conv2dDims& d,
            std::span<const float> sample_input, std::int64_t group,
            std::span<float> cols) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t taps = d.kernel_h * d.kernel_w;
  ES_CHECK(static_cast<std::int64_t>(cols.size()) == cg * taps * oh * ow,
           "im2col: bad cols size");
  // Each input channel owns kernel_h*kernel_w disjoint rows of `cols`, so
  // the channel loop parallelizes owner-computes.  The copy never sums: it
  // is pure data movement and produces the same bytes on every
  // SimdBackend.
  const SimdOps& ops = ctx.simd_ops();
  ConvSameArgs geo{};
  const bool same = ops.im2col_same != nullptr && same_geometry(d, geo);
  const float* planes = sample_input.data() + group * cg * d.in_h * d.in_w;
  parallel_for(
      ctx, cg, work_grain(taps * oh * ow),
      [&](int /*chunk*/, std::int64_t c0, std::int64_t c1) {
        if (same) {
          ops.im2col_same(geo, planes, c0, c1, cols.data());
          return;
        }
        for_each_tap(d, c0, c1, [&](const Tap& t, std::int64_t c) {
          im2col_tap(d, oh, ow, t,
                     sample_input.data() + (group * cg + c) * d.in_h * d.in_w,
                     cols.data() + (c * taps + t.kh * d.kernel_w + t.kw) *
                                       oh * ow);
        });
      });
}

void col2im(const ExecContext& ctx, const Conv2dDims& d,
            std::span<const float> cols, std::int64_t group,
            std::span<float> sample_grad_input) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t taps = d.kernel_h * d.kernel_w;
  ES_CHECK(static_cast<std::int64_t>(cols.size()) == cg * taps * oh * ow,
           "col2im: bad cols size");
  // Channel c only accumulates into its own input-channel plane and sees
  // the taps in the sequential (kh, kw) order — owner-computes over
  // channels.  Within one tap distinct outputs (y, x) hit distinct input
  // elements, so every element receives its adds in tap order no matter
  // how a tap's rows are walked.  Same-geometry convs run the backend's
  // col2im_same, which keeps that per-element tap order; the other
  // geometries' adds stay inline (an indirect add_vec call per row cost
  // more than the adds on the small planes the workloads use).
  const SimdOps& ops = ctx.simd_ops();
  ConvSameArgs geo{};
  const bool same = ops.col2im_same != nullptr && same_geometry(d, geo);
  float* planes = sample_grad_input.data() + group * cg * d.in_h * d.in_w;
  parallel_for(
      ctx, cg, work_grain(taps * oh * ow),
      [&](int /*chunk*/, std::int64_t c0, std::int64_t c1) {
        if (same) {
          ops.col2im_same(geo, cols.data(), c0, c1, planes);
          return;
        }
        for_each_tap(d, c0, c1, [&](const Tap& t, std::int64_t c) {
          float* plane =
              sample_grad_input.data() + (group * cg + c) * d.in_h * d.in_w;
          const float* src =
              cols.data() + (c * taps + t.kh * d.kernel_w + t.kw) * oh * ow;
          for (std::int64_t y = t.ys.lo; y < t.ys.hi; ++y) {
            float* grow = plane + (y * d.stride + t.kh - d.pad) * d.in_w;
            const float* srow = src + y * ow;
            if (d.stride == 1) {
              for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) {
                grow[x + t.kw - d.pad] += srow[x];
              }
              continue;
            }
            for (std::int64_t x = t.xs.lo; x < t.xs.hi; ++x) {
              grow[x * d.stride + t.kw - d.pad] += srow[x];
            }
          }
        });
      });
}

namespace {

/// Group g's column matrix of one sample: the input block itself for a
/// pointwise conv, else im2col into `cols`.
std::span<const float> columns(const ExecContext& ctx, const Conv2dDims& d,
                               std::span<const float> in_n, std::int64_t g,
                               std::span<float> cols) {
  if (pointwise(d)) {
    return in_n.subspan(static_cast<std::size_t>(g) * cols.size(),
                        cols.size());
  }
  im2col(ctx, d, in_n, g, cols);
  return cols;
}

void forward_direct(const ExecContext& ctx, const Conv2dDims& d,
                    std::span<const float> input,
                    std::span<const float> weight, std::span<const float> bias,
                    std::span<float> out) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t fg = d.out_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t in_sample = d.in_channels * d.in_h * d.in_w;
  // Every (n, f) output plane is written by exactly one chunk, and each
  // output element keeps its single running accumulator — canonical order.
  // The vector path below assigns lanes to adjacent output columns x of the
  // row interior (where no bounds check can fire for stride 1), each lane
  // replaying the exact scalar c -> kh -> kw chain, so the stores are
  // bitwise-equal to the scalar loop; boundary columns and strided convs
  // stay on the scalar per-element body.
  const SimdOps& ops = ctx.simd_ops();
  parallel_for(
      ctx, d.batch * d.out_channels,
      work_grain(oh * ow * cg * d.kernel_h * d.kernel_w),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t n = p / d.out_channels;
          const std::int64_t f = p % d.out_channels;
          const float* in_n = input.data() + n * in_sample;
          const std::int64_t g = f / fg;
          const float* w_f = weight.data() + f * cg * d.kernel_h * d.kernel_w;
          const float b =
              bias.empty() ? 0.0f : bias[static_cast<std::size_t>(f)];
          for (std::int64_t y = 0; y < oh; ++y) {
            float* out_row =
                out.data() + ((n * d.out_channels + f) * oh + y) * ow;
            const auto scalar_at = [&](std::int64_t x) {
              float acc = 0.0f;  // single running accumulator: canonical order
              for (std::int64_t c = 0; c < cg; ++c) {
                const std::int64_t ic = g * cg + c;
                for (std::int64_t kh = 0; kh < d.kernel_h; ++kh) {
                  const std::int64_t iy = y * d.stride + kh - d.pad;
                  if (iy < 0 || iy >= d.in_h) continue;
                  for (std::int64_t kw = 0; kw < d.kernel_w; ++kw) {
                    const std::int64_t ix = x * d.stride + kw - d.pad;
                    if (ix < 0 || ix >= d.in_w) continue;
                    acc += in_n[(ic * d.in_h + iy) * d.in_w + ix] *
                           w_f[(c * d.kernel_h + kh) * d.kernel_w + kw];
                  }
                }
              }
              out_row[x] = acc + b;
            };
            if (ops.conv_row == nullptr || d.stride != 1) {
              for (std::int64_t x = 0; x < ow; ++x) scalar_at(x);
              continue;
            }
            // Interior columns: ix = x - pad + kw stays in [0, in_w) for
            // every kw, so only the kh bounds check remains and it is
            // hoisted into [kh_lo, kh_hi).
            std::int64_t x_lo = std::min(ow, d.pad);
            std::int64_t x_hi = std::min(ow, d.in_w - d.kernel_w + d.pad + 1);
            if (x_hi < x_lo) x_hi = x_lo;
            for (std::int64_t x = 0; x < x_lo; ++x) scalar_at(x);
            if (x_lo < x_hi) {
              ConvRowArgs args;
              args.in_n = in_n;
              args.w_f = w_f;
              args.out_row = out_row;
              args.ic0 = g * cg;
              args.cg = cg;
              args.in_h = d.in_h;
              args.in_w = d.in_w;
              args.kernel_h = d.kernel_h;
              args.kernel_w = d.kernel_w;
              args.kh_lo = std::max<std::int64_t>(0, d.pad - y);
              args.kh_hi = std::min(d.kernel_h, d.in_h + d.pad - y);
              args.iy0 = y - d.pad;
              args.pad = d.pad;
              args.bias = b;
              args.x_lo = x_lo;
              args.x_hi = x_hi;
              ops.conv_row(args);
            }
            for (std::int64_t x = x_hi; x < ow; ++x) scalar_at(x);
          }
        }
      });
}

void forward_im2col(const ExecContext& ctx, const Conv2dDims& d,
                    std::span<const float> input,
                    std::span<const float> weight, std::span<const float> bias,
                    std::span<float> out) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t fg = d.out_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t kdim = cg * d.kernel_h * d.kernel_w;
  const std::int64_t in_sample = d.in_channels * d.in_h * d.in_w;
  std::span<float> cols = ctx.scratch.borrow(
      ScratchArena::kConvCols, static_cast<std::size_t>(kdim * oh * ow));
  for (std::int64_t n = 0; n < d.batch; ++n) {
    std::span<const float> in_n(input.data() + n * in_sample,
                                static_cast<std::size_t>(in_sample));
    for (std::int64_t g = 0; g < d.groups; ++g) {
      const std::span<const float> cols_g = columns(ctx, d, in_n, g, cols);
      std::span<float> out_g(
          out.data() + ((n * d.out_channels + g * fg) * oh * ow),
          static_cast<std::size_t>(fg * oh * ow));
      std::span<const float> w_g(weight.data() + g * fg * kdim,
                                 static_cast<std::size_t>(fg * kdim));
      gemm(ctx, fg, oh * ow, kdim, w_g, cols_g, out_g, false);
      if (!bias.empty()) {
        const SimdOps& ops = ctx.simd_ops();
        parallel_for(ctx, fg, work_grain(oh * ow),
                     [&](int /*chunk*/, std::int64_t f0, std::int64_t f1) {
                       for (std::int64_t f = f0; f < f1; ++f) {
                         const float b =
                             bias[static_cast<std::size_t>(g * fg + f)];
                         float* o = out_g.data() + f * oh * ow;
                         if (ops.add_scalar != nullptr) {
                           ops.add_scalar(o, b, oh * ow);
                           continue;
                         }
                         for (std::int64_t i = 0; i < oh * ow; ++i) o[i] += b;
                       }
                     });
      }
    }
  }
}

void backward_direct(const ExecContext& ctx, const Conv2dDims& d,
                     std::span<const float> input,
                     std::span<const float> weight,
                     std::span<const float> grad_out,
                     std::span<float> grad_input, std::span<float> grad_weight,
                     std::span<float> grad_bias) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t fg = d.out_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t in_sample = d.in_channels * d.in_h * d.in_w;
  // Two owner-computes passes.  Pass 1 owns the per-filter outputs
  // (grad_weight row f, grad_bias[f]); pass 2 owns the per-(sample, input
  // channel) grad_input planes.  Within each owned element the (n, y, x,
  // kh, kw) accumulation order is exactly the old single loop nest's.
  if (!grad_weight.empty() || !grad_bias.empty()) {
    parallel_for(
        ctx, d.out_channels,
        work_grain(d.batch * oh * ow * cg * d.kernel_h * d.kernel_w),
        [&](int /*chunk*/, std::int64_t f0, std::int64_t f1) {
          for (std::int64_t f = f0; f < f1; ++f) {
            const std::int64_t g = f / fg;
            float* gw_f = grad_weight.empty()
                              ? nullptr
                              : grad_weight.data() +
                                    f * cg * d.kernel_h * d.kernel_w;
            for (std::int64_t n = 0; n < d.batch; ++n) {
              const float* in_n = input.data() + n * in_sample;
              for (std::int64_t y = 0; y < oh; ++y) {
                for (std::int64_t x = 0; x < ow; ++x) {
                  const float go = grad_out[static_cast<std::size_t>(
                      ((n * d.out_channels + f) * oh + y) * ow + x)];
                  if (!grad_bias.empty()) {
                    grad_bias[static_cast<std::size_t>(f)] += go;
                  }
                  if (gw_f == nullptr) continue;
                  for (std::int64_t c = 0; c < cg; ++c) {
                    const std::int64_t ic = g * cg + c;
                    for (std::int64_t kh = 0; kh < d.kernel_h; ++kh) {
                      const std::int64_t iy = y * d.stride + kh - d.pad;
                      if (iy < 0 || iy >= d.in_h) continue;
                      for (std::int64_t kw = 0; kw < d.kernel_w; ++kw) {
                        const std::int64_t ix = x * d.stride + kw - d.pad;
                        if (ix < 0 || ix >= d.in_w) continue;
                        const std::int64_t wi =
                            (c * d.kernel_h + kh) * d.kernel_w + kw;
                        const std::int64_t ii =
                            (ic * d.in_h + iy) * d.in_w + ix;
                        gw_f[wi] += go * in_n[ii];
                      }
                    }
                  }
                }
              }
            }
          }
        });
  }
  if (!grad_input.empty()) {
    parallel_for(
        ctx, d.batch * d.in_channels,
        work_grain(fg * oh * ow * d.kernel_h * d.kernel_w),
        [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
          for (std::int64_t p = p0; p < p1; ++p) {
            const std::int64_t n = p / d.in_channels;
            const std::int64_t ic = p % d.in_channels;
            const std::int64_t g = ic / cg;
            const std::int64_t c = ic % cg;
            float* gin_n = grad_input.data() + n * in_sample;
            for (std::int64_t f = g * fg; f < (g + 1) * fg; ++f) {
              const float* w_f =
                  weight.data() + f * cg * d.kernel_h * d.kernel_w;
              for (std::int64_t y = 0; y < oh; ++y) {
                for (std::int64_t x = 0; x < ow; ++x) {
                  const float go = grad_out[static_cast<std::size_t>(
                      ((n * d.out_channels + f) * oh + y) * ow + x)];
                  for (std::int64_t kh = 0; kh < d.kernel_h; ++kh) {
                    const std::int64_t iy = y * d.stride + kh - d.pad;
                    if (iy < 0 || iy >= d.in_h) continue;
                    for (std::int64_t kw = 0; kw < d.kernel_w; ++kw) {
                      const std::int64_t ix = x * d.stride + kw - d.pad;
                      if (ix < 0 || ix >= d.in_w) continue;
                      const std::int64_t wi =
                          (c * d.kernel_h + kh) * d.kernel_w + kw;
                      const std::int64_t ii = (ic * d.in_h + iy) * d.in_w + ix;
                      gin_n[ii] += go * w_f[wi];
                    }
                  }
                }
              }
            }
          }
        });
  }
}

void backward_im2col(const ExecContext& ctx, const Conv2dDims& d,
                     std::span<const float> input,
                     std::span<const float> weight,
                     std::span<const float> grad_out,
                     std::span<float> grad_input, std::span<float> grad_weight,
                     std::span<float> grad_bias) {
  const std::int64_t cg = d.in_channels / d.groups;
  const std::int64_t fg = d.out_channels / d.groups;
  const std::int64_t oh = d.out_h(), ow = d.out_w();
  const std::int64_t kdim = cg * d.kernel_h * d.kernel_w;
  const std::int64_t in_sample = d.in_channels * d.in_h * d.in_w;
  // A pointwise conv reads its columns straight from the input and
  // accumulates dX straight into grad_input: the GEMM's prev + total there
  // is col2im's 0 + v (or prev + v) on the same value, so the bits hold.
  const bool pw = pointwise(d);
  std::span<float> cols = ctx.scratch.borrow(
      ScratchArena::kConvCols, static_cast<std::size_t>(kdim * oh * ow));
  std::span<float> cols_grad = ctx.scratch.borrow(
      ScratchArena::kConvColsGrad, static_cast<std::size_t>(kdim * oh * ow));
  // W^T per group, transposed once per call rather than once per sample:
  // wt_g[kdim, fg] = W_g[fg, kdim]^T, the operand gemm_tn would build.
  std::span<float> wt;
  if (!grad_input.empty()) {
    wt = ctx.scratch.borrow(ScratchArena::kGemmTranspose,
                            static_cast<std::size_t>(d.groups * fg * kdim));
    const auto block = static_cast<std::size_t>(fg * kdim);
    for (std::int64_t g = 0; g < d.groups; ++g) {
      const auto at = static_cast<std::size_t>(g) * block;
      transpose(ctx, fg, kdim, weight.subspan(at, block),
                wt.subspan(at, block));
    }
  }
  for (std::int64_t n = 0; n < d.batch; ++n) {
    std::span<const float> in_n(input.data() + n * in_sample,
                                static_cast<std::size_t>(in_sample));
    for (std::int64_t g = 0; g < d.groups; ++g) {
      const std::span<const float> cols_g = columns(ctx, d, in_n, g, cols);
      std::span<const float> go_g(
          grad_out.data() + ((n * d.out_channels + g * fg) * oh * ow),
          static_cast<std::size_t>(fg * oh * ow));
      if (!grad_weight.empty()) {
        std::span<float> gw_g(grad_weight.data() + g * fg * kdim,
                              static_cast<std::size_t>(fg * kdim));
        // dW[fg, kdim] += dOut[fg, ohow] * cols^T[ohow, kdim]
        gemm_nt(ctx, fg, kdim, oh * ow, go_g, cols_g, gw_g, true);
      }
      if (!grad_input.empty()) {
        std::span<const float> wt_g(wt.data() + g * kdim * fg,
                                    static_cast<std::size_t>(kdim * fg));
        std::span<float> gin_n(grad_input.data() + n * in_sample,
                               static_cast<std::size_t>(in_sample));
        if (pw) {
          // dX_g[kdim, ohow] += W^T[kdim, fg] * dOut[fg, ohow]
          gemm(ctx, kdim, oh * ow, fg, wt_g, go_g,
               gin_n.subspan(static_cast<std::size_t>(g * kdim * oh * ow),
                             static_cast<std::size_t>(kdim * oh * ow)),
               true);
          continue;
        }
        // dcols[kdim, ohow] = W^T[kdim, fg] * dOut[fg, ohow]
        gemm(ctx, kdim, oh * ow, fg, wt_g, go_g, cols_grad, false);
        col2im(ctx, d, cols_grad, g, gin_n);
      }
    }
  }
  if (!grad_bias.empty()) {
    // Each filter's bias gradient is independent.  Within a filter, one
    // segmented reduction sums up to kReduceChains samples' planes at a
    // time, each with the tree one reduce_sum call gives it, and the plane
    // sums are added in ascending n.
    const std::int64_t plane = oh * ow, sample = d.out_channels * plane;
    parallel_for(
        ctx, d.out_channels, work_grain(d.batch * plane),
        [&](int /*chunk*/, std::int64_t f0, std::int64_t f1) {
          float sums[kReduceChains];
          for (std::int64_t f = f0; f < f1; ++f) {
            float& gb = grad_bias[static_cast<std::size_t>(f)];
            for (std::int64_t n0 = 0; n0 < d.batch; n0 += kReduceChains) {
              const std::int64_t nb =
                  std::min<std::int64_t>(kReduceChains, d.batch - n0);
              const auto at =
                  static_cast<std::size_t>(n0 * sample + f * plane);
              reduce_sum_segments(ctx, grad_out.subspan(at), sample, plane,
                                  {sums, static_cast<std::size_t>(nb)});
              for (std::int64_t k = 0; k < nb; ++k) gb += sums[k];
            }
          }
        });
  }
}

}  // namespace

void conv2d_forward(const ExecContext& ctx, const Conv2dDims& d,
                    std::span<const float> input, std::span<const float> weight,
                    std::span<const float> bias, std::span<float> out) {
  check_dims(d);
  if (select_conv_variant(ctx) == ConvVariant::kDirectCanonical) {
    forward_direct(ctx, d, input, weight, bias, out);
  } else {
    forward_im2col(ctx, d, input, weight, bias, out);
  }
  ctx.notify_post_op(KernelFamily::kConv, out.data(),
                     static_cast<std::int64_t>(out.size()));
}

void conv2d_backward(const ExecContext& ctx, const Conv2dDims& d,
                     std::span<const float> input,
                     std::span<const float> weight,
                     std::span<const float> grad_out,
                     std::span<float> grad_input, std::span<float> grad_weight,
                     std::span<float> grad_bias) {
  check_dims(d);
  if (select_conv_variant(ctx) == ConvVariant::kDirectCanonical) {
    backward_direct(ctx, d, input, weight, grad_out, grad_input, grad_weight,
                    grad_bias);
  } else {
    backward_im2col(ctx, d, input, weight, grad_out, grad_input, grad_weight,
                    grad_bias);
  }
  ctx.notify_post_op(KernelFamily::kConv, grad_input.data(),
                     static_cast<std::int64_t>(grad_input.size()));
  ctx.notify_post_op(KernelFamily::kConv, grad_weight.data(),
                     static_cast<std::int64_t>(grad_weight.size()));
  ctx.notify_post_op(KernelFamily::kConv, grad_bias.data(),
                     static_cast<std::int64_t>(grad_bias.size()));
}

}  // namespace easyscale::kernels
