#include "nn/pooling.hpp"

#include <algorithm>

#include "kernels/reduce.hpp"

namespace easyscale::nn {

Tensor MaxPool2d::forward(StepContext& ctx, const Tensor& x) {
  ES_CHECK(x.shape().rank() == 4, "MaxPool2d expects NCHW");
  const std::int64_t n = x.shape().dim(0), c = x.shape().dim(1),
                     h = x.shape().dim(2), w = x.shape().dim(3);
  const std::int64_t oh = (h - kernel_) / stride_ + 1;
  const std::int64_t ow = (w - kernel_) / stride_ + 1;
  ES_CHECK(oh > 0 && ow > 0, "MaxPool2d: output would be empty");
  cached_in_shape_ = x.shape();
  Tensor out(Shape{n, c, oh, ow});
  cached_argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  // One (sample, channel) plane per index — all writes plane-local.
  kernels::parallel_for(
      ctx.ex(), n * c,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, oh * ow)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t s = p / c;
          const std::int64_t ch = p % c;
          const float* plane = x.raw() + (s * c + ch) * h * w;
          std::int64_t oi = p * oh * ow;
          for (std::int64_t y = 0; y < oh; ++y) {
            for (std::int64_t xx = 0; xx < ow; ++xx, ++oi) {
              float best = plane[(y * stride_) * w + xx * stride_];
              std::int64_t best_idx = (y * stride_) * w + xx * stride_;
              for (std::int64_t ky = 0; ky < kernel_; ++ky) {
                for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                  const std::int64_t idx =
                      (y * stride_ + ky) * w + (xx * stride_ + kx);
                  if (plane[idx] > best) {
                    best = plane[idx];
                    best_idx = idx;
                  }
                }
              }
              out.at(oi) = best;
              cached_argmax_[static_cast<std::size_t>(oi)] =
                  (s * c + ch) * h * w + best_idx;
            }
          }
        }
      });
  return out;
}

Tensor MaxPool2d::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(cached_in_shape_);
  const std::int64_t n = cached_in_shape_.dim(0), c = cached_in_shape_.dim(1);
  const std::int64_t plane_out = grad_out.numel() / (n * c);
  // Argmax indices stay inside their own (sample, channel) plane, so the
  // scatter partitions cleanly by plane; per-plane order is i-ascending as
  // in the sequential loop.
  kernels::parallel_for(
      ctx.ex(), n * c,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, plane_out)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        for (std::int64_t i = p0 * plane_out; i < p1 * plane_out; ++i) {
          grad_in.at(cached_argmax_[static_cast<std::size_t>(i)]) +=
              grad_out.at(i);
        }
      });
  return grad_in;
}

Tensor GlobalAvgPool::forward(StepContext& ctx, const Tensor& x) {
  ES_CHECK(x.shape().rank() == 4, "GlobalAvgPool expects NCHW");
  const std::int64_t n = x.shape().dim(0), c = x.shape().dim(1),
                     hw = x.shape().dim(2) * x.shape().dim(3);
  cached_in_shape_ = x.shape();
  Tensor out(Shape{n, c});
  kernels::parallel_for(
      ctx.ex(), n * c,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, hw)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        // One segmented reduction over the chunk's planes, then the means.
        const std::span<const float> planes(
            x.raw() + p0 * hw, static_cast<std::size_t>((p1 - p0) * hw));
        const std::span<float> sums(out.raw() + p0,
                                    static_cast<std::size_t>(p1 - p0));
        kernels::reduce_sum_segments(ctx.ex(), planes, hw, hw, sums);
        for (float& v : sums) v /= static_cast<float>(hw);
      });
  return out;
}

Tensor GlobalAvgPool::backward(StepContext& ctx, const Tensor& grad_out) {
  const std::int64_t n = cached_in_shape_.dim(0), c = cached_in_shape_.dim(1),
                     hw = cached_in_shape_.dim(2) * cached_in_shape_.dim(3);
  Tensor grad_in(cached_in_shape_);
  kernels::parallel_for(
      ctx.ex(), n * c,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, hw)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          const float g = grad_out.at(p) / static_cast<float>(hw);
          float* plane = grad_in.raw() + p * hw;
          for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
        }
      });
  return grad_in;
}

Tensor Flatten::forward(StepContext& /*ctx*/, const Tensor& x) {
  cached_in_shape_ = x.shape();
  const std::int64_t n = x.shape().dim(0);
  return x.reshaped(Shape{n, x.numel() / n});
}

Tensor Flatten::backward(StepContext& /*ctx*/, const Tensor& grad_out) {
  return grad_out.reshaped(cached_in_shape_);
}

}  // namespace easyscale::nn
