#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/reduce.hpp"

namespace easyscale::nn {

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels, float eps,
                         float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(name + ".weight", Shape{channels}),
      beta_(name + ".bias", Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  running_var_.fill(1.0f);
}

void BatchNorm2d::register_parameters(ParameterStore& store) {
  store.register_parameter(&gamma_);
  store.register_parameter(&beta_);
}

void BatchNorm2d::collect_buffers(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

void BatchNorm2d::init_weights(rng::Philox& /*init*/) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
  running_mean_.zero();
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(StepContext& ctx, const Tensor& x) {
  ES_CHECK(x.shape().rank() == 4 && x.shape().dim(1) == channels_,
           "BatchNorm2d: bad input shape " << x.shape().to_string());
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t h = x.shape().dim(2);
  const std::int64_t w = x.shape().dim(3);
  const std::int64_t per_channel = n * h * w;
  cached_shape_ = x.shape();
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor(Shape{channels_});
  Tensor out(x.shape());

  // Channels are fully independent (statistics, running buffers and output
  // planes are all per-channel), so the channel loop is owner-computes.
  // Gather buffers are chunk-local; chunks never share mutable state.
  // Within a chunk, channels go in groups whose statistics one segmented
  // reduction computes with their leaf chains interleaved; a group holds
  // at most max(per_channel, kSegmentGroupFloats) floats, so its values
  // and squares fit the two per-channel buffers of the largest channel
  // reduce_segment_group lets go alone.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  const std::int64_t hw = h * w;
  kernels::parallel_for(
      ctx.ex(), channels_,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, per_channel)),
      [&](int /*chunk*/, std::int64_t c0, std::int64_t c1) {
        const std::int64_t group = std::min(
            c1 - c0, kernels::reduce_segment_group(ctx.ex(), per_channel));
        // One buffer per chunk: the group's values, then their squares.
        std::vector<float> scratch(
            ctx.training ? static_cast<std::size_t>(2 * group * per_channel)
                         : 0);
        float* gathered = scratch.data();
        float* sq = gathered + group * per_channel;
        float mean[kernels::kReduceChains], var[kernels::kReduceChains];
        for (std::int64_t cg = c0; cg < c1; cg += group) {
          const std::int64_t gn = std::min(group, c1 - cg);
          if (ctx.training) {
            // Gather channel cg + k's values in (n, h, w) order at
            // k * per_channel; the reduce kernel decides the summation
            // association (device-native tree vs canonical).
            std::size_t gi = 0;
            for (std::int64_t k = 0; k < gn; ++k) {
              for (std::int64_t s = 0; s < n; ++s) {
                const float* base = x.raw() + ((s * channels_ + cg + k) * hw);
                for (std::int64_t i = 0; i < hw; ++i) gathered[gi++] = base[i];
              }
            }
            const std::span<const float> g_all(gathered, gi);
            const std::span<const float> sq_all(sq, gi);
            const auto stats = static_cast<std::size_t>(gn);
            kernels::reduce_sum_segments(ctx.ex(), g_all, per_channel,
                                         per_channel, {mean, stats});
            for (std::int64_t k = 0; k < gn; ++k) {
              mean[k] /= static_cast<float>(per_channel);
              const float mu = mean[k];
              const float* gk = gathered + k * per_channel;
              float* sk = sq + k * per_channel;
              for (std::int64_t i = 0; i < per_channel; ++i) {
                const float d = gk[i] - mu;
                sk[i] = d * d;
              }
            }
            kernels::reduce_sum_segments(ctx.ex(), sq_all, per_channel,
                                         per_channel, {var, stats});
          }
          for (std::int64_t k = 0; k < gn; ++k) {
            const std::int64_t c = cg + k;
            float mu, sigma2;
            if (ctx.training) {
              mu = mean[k];
              sigma2 = var[k] / static_cast<float>(per_channel);
              // Running stats use the unbiased variance, matching torch.
              const float unbiased =
                  per_channel > 1
                      ? sigma2 * static_cast<float>(per_channel) /
                            static_cast<float>(per_channel - 1)
                      : sigma2;
              running_mean_.at(c) =
                  (1.0f - momentum_) * running_mean_.at(c) + momentum_ * mu;
              running_var_.at(c) = (1.0f - momentum_) * running_var_.at(c) +
                                   momentum_ * unbiased;
            } else {
              mu = running_mean_.at(c);
              sigma2 = running_var_.at(c);
            }
            const float inv_std = 1.0f / std::sqrt(sigma2 + eps_);
            cached_inv_std_.at(c) = inv_std;
            const float g = gamma_.value.at(c);
            const float b = beta_.value.at(c);
            // Pure per-index map; norm_affine_scalar is lanewise-identical
            // to the scalar loop below.
            for (std::int64_t s = 0; s < n; ++s) {
              const float* src = x.raw() + ((s * channels_ + c) * hw);
              float* xh = cached_xhat_.raw() + ((s * channels_ + c) * hw);
              float* dst = out.raw() + ((s * channels_ + c) * hw);
              if (ops.norm_affine_scalar != nullptr) {
                ops.norm_affine_scalar(src, g, b, mu, inv_std, xh, dst, hw);
                continue;
              }
              for (std::int64_t i = 0; i < hw; ++i) {
                xh[i] = (src[i] - mu) * inv_std;
                dst[i] = g * xh[i] + b;
              }
            }
          }
        }
      });
  return out;
}

Tensor BatchNorm2d::backward(StepContext& ctx, const Tensor& grad_out) {
  const std::int64_t n = cached_shape_.dim(0);
  const std::int64_t h = cached_shape_.dim(2);
  const std::int64_t w = cached_shape_.dim(3);
  const std::int64_t per_channel = n * h * w;
  Tensor grad_in(cached_shape_);

  const std::int64_t hw = h * w;
  kernels::parallel_for(
      ctx.ex(), channels_,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, per_channel)),
      [&](int /*chunk*/, std::int64_t c0, std::int64_t c1) {
        // Channel groups as in forward.
        const std::int64_t group = std::min(
            c1 - c0, kernels::reduce_segment_group(ctx.ex(), per_channel));
        // One buffer per chunk: the group's dy, then dy * x_hat.
        std::vector<float> scratch(
            static_cast<std::size_t>(2 * group * per_channel));
        float* dy = scratch.data();
        float* dyxh = dy + group * per_channel;
        float sum_dy[kernels::kReduceChains], sum_dyxh[kernels::kReduceChains];
        for (std::int64_t cg = c0; cg < c1; cg += group) {
          const std::int64_t gn = std::min(group, c1 - cg);
          std::size_t gi = 0;
          for (std::int64_t k = 0; k < gn; ++k) {
            for (std::int64_t s = 0; s < n; ++s) {
              const std::int64_t at = (s * channels_ + cg + k) * hw;
              const float* gsrc = grad_out.raw() + at;
              const float* xh = cached_xhat_.raw() + at;
              for (std::int64_t i = 0; i < hw; ++i, ++gi) {
                dy[gi] = gsrc[i];
                dyxh[gi] = gsrc[i] * xh[i];
              }
            }
          }
          const auto stats = static_cast<std::size_t>(gn);
          kernels::reduce_sum_segments(ctx.ex(), {dy, gi}, per_channel,
                                       per_channel, {sum_dy, stats});
          kernels::reduce_sum_segments(ctx.ex(), {dyxh, gi}, per_channel,
                                       per_channel, {sum_dyxh, stats});
          for (std::int64_t k = 0; k < gn; ++k) {
            const std::int64_t c = cg + k;
            gamma_.grad.at(c) += sum_dyxh[k];
            beta_.grad.at(c) += sum_dy[k];
            const float g = gamma_.value.at(c);
            const float inv_std = cached_inv_std_.at(c);
            const float m = static_cast<float>(per_channel);
            const float sdy = sum_dy[k], sdyxh = sum_dyxh[k];
            for (std::int64_t s = 0; s < n; ++s) {
              const std::int64_t at = (s * channels_ + c) * hw;
              const float* gsrc = grad_out.raw() + at;
              const float* xh = cached_xhat_.raw() + at;
              float* gdst = grad_in.raw() + at;
              for (std::int64_t i = 0; i < hw; ++i) {
                gdst[i] =
                    g * inv_std * (gsrc[i] - sdy / m - xh[i] * sdyxh / m);
              }
            }
          }
        }
      });
  ctx.mark_ready(gamma_.id);
  ctx.mark_ready(beta_.id);
  return grad_in;
}

}  // namespace easyscale::nn
