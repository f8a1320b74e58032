#include "nn/layernorm.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/reduce.hpp"

namespace easyscale::nn {

LayerNorm::LayerNorm(std::string name, std::int64_t dim, float eps)
    : dim_(dim),
      eps_(eps),
      gamma_(name + ".weight", Shape{dim}),
      beta_(name + ".bias", Shape{dim}) {}

void LayerNorm::register_parameters(ParameterStore& store) {
  store.register_parameter(&gamma_);
  store.register_parameter(&beta_);
}

void LayerNorm::init_weights(rng::Philox& /*init*/) {
  gamma_.value.fill(1.0f);
  beta_.value.zero();
}

Tensor LayerNorm::forward(StepContext& ctx, const Tensor& x) {
  const std::int64_t rows = x.numel() / dim_;
  ES_CHECK(rows * dim_ == x.numel(), "LayerNorm: bad size");
  cached_shape_ = x.shape();
  cached_xhat_ = Tensor(x.shape());
  cached_inv_std_ = Tensor(Shape{rows});
  Tensor out(x.shape());
  // Rows normalize independently — owner-computes over rows.  The
  // normalize-and-affine loop is a pure per-index map, so the vector body
  // (norm_affine_vec) is bitwise-equal to the scalar loop; the mean and
  // variance reductions keep their scalar accumulation order everywhere.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), rows,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, dim_)),
      [&](int /*chunk*/, std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          std::span<const float> row(x.raw() + r * dim_,
                                     static_cast<std::size_t>(dim_));
          const float mean =
              kernels::reduce_sum(ctx.ex(), row) / static_cast<float>(dim_);
          float var = 0.0f;
          for (std::int64_t i = 0; i < dim_; ++i) {
            const float d = row[static_cast<std::size_t>(i)] - mean;
            var += d * d;
          }
          var /= static_cast<float>(dim_);
          const float inv_std = 1.0f / std::sqrt(var + eps_);
          cached_inv_std_.at(r) = inv_std;
          if (ops.norm_affine_vec != nullptr) {
            ops.norm_affine_vec(row.data(), gamma_.value.raw(),
                                beta_.value.raw(), mean, inv_std,
                                cached_xhat_.raw() + r * dim_,
                                out.raw() + r * dim_, dim_);
            continue;
          }
          for (std::int64_t i = 0; i < dim_; ++i) {
            const float xh =
                (row[static_cast<std::size_t>(i)] - mean) * inv_std;
            cached_xhat_.at(r * dim_ + i) = xh;
            out.at(r * dim_ + i) = gamma_.value.at(i) * xh + beta_.value.at(i);
          }
        }
      });
  return out;
}

Tensor LayerNorm::backward(StepContext& ctx, const Tensor& grad_out) {
  ES_CHECK(cached_xhat_.defined() && grad_out.shape() == cached_shape_,
           "LayerNorm backward: grad shape != forward shape");
  const std::int64_t rows = grad_out.numel() / dim_;
  Tensor grad_in(cached_shape_);
  const float* gy = grad_out.raw();
  const float* xhat = cached_xhat_.raw();
  const float* gamma = gamma_.value.raw();
  // Two owner-computes passes: grad_in rows are independent; gamma/beta
  // gradients accumulate per column in ascending-row order, exactly as the
  // single sequential loop did.
  kernels::parallel_for(
      ctx.ex(), rows,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, dim_)),
      [&](int /*chunk*/, std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const float* g_r = gy + r * dim_;
          const float* xh_r = xhat + r * dim_;
          float* gin_r = grad_in.raw() + r * dim_;
          float sum_dy = 0.0f, sum_dyxh = 0.0f;
          for (std::int64_t i = 0; i < dim_; ++i) {
            const float dy = g_r[i] * gamma[i];
            sum_dy += dy;
            sum_dyxh += dy * xh_r[i];
          }
          const float inv_std = cached_inv_std_.raw()[r];
          const float m = static_cast<float>(dim_);
          // (xh * sum_dyxh) / m, not xh * (sum_dyxh / m): hoisting the
          // division would change bits.
          for (std::int64_t i = 0; i < dim_; ++i) {
            const float dy = g_r[i] * gamma[i];
            gin_r[i] = inv_std * (dy - sum_dy / m - xh_r[i] * sum_dyxh / m);
          }
        }
      });
  // Rows outer, the chunk's columns inner: contiguous loads, and each
  // column still sums its rows in ascending order.
  kernels::parallel_for(
      ctx.ex(), dim_,
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, rows)),
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        float* ggamma = gamma_.grad.raw();
        float* gbeta = beta_.grad.raw();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* g_r = gy + r * dim_;
          const float* xh_r = xhat + r * dim_;
          for (std::int64_t i = i0; i < i1; ++i) {
            ggamma[i] += g_r[i] * xh_r[i];
            gbeta[i] += g_r[i];
          }
        }
      });
  ctx.mark_ready(gamma_.id);
  ctx.mark_ready(beta_.id);
  return grad_in;
}

}  // namespace easyscale::nn
