#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/ops.hpp"

namespace easyscale::nn {

MultiheadSelfAttention::MultiheadSelfAttention(std::string name,
                                               std::int64_t dim,
                                               std::int64_t heads)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      wq_(name + ".q", dim, dim),
      wk_(name + ".k", dim, dim),
      wv_(name + ".v", dim, dim),
      wo_(name + ".o", dim, dim) {
  ES_CHECK(dim % heads == 0, "attention dim not divisible by heads");
}

void MultiheadSelfAttention::register_parameters(ParameterStore& store) {
  wq_.register_parameters(store);
  wk_.register_parameters(store);
  wv_.register_parameters(store);
  wo_.register_parameters(store);
}

void MultiheadSelfAttention::init_weights(rng::Philox& init) {
  wq_.init_weights(init);
  wk_.init_weights(init);
  wv_.init_weights(init);
  wo_.init_weights(init);
}

namespace {

/// c[j] = sum_kk a[kk] * b[kk * ldb + j] for j in [0, n): per output the
/// sequential chain acc = 0; acc += a * b, which is exactly the lanes of
/// the kSequential gemm_panel (its final 0 + acc fold is the identity on a
/// chain that starts at +0).  The panel's `n` argument is only B's row
/// stride, so a head slice of a [T, D] matrix passes ldb = D.
void dot_row(const kernels::SimdOps& ops, const float* a, const float* b,
             std::int64_t k, std::int64_t ldb, std::int64_t n, float* c) {
  if (ops.gemm_panel != nullptr) {
    ops.gemm_panel(kernels::GemmVariant::kSequential, a, b, k, ldb, 0, n, c,
                   false);
    return;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (std::int64_t kk = 0; kk < k; ++kk) acc += a[kk] * b[kk * ldb + j];
    c[j] = acc;
  }
}

/// dst[d * t + j] = src[j * ld + d]: one head's [t, hd] slice (row stride
/// ld) as a dense [hd, t] buffer, so per-row products over j stream.
void transpose_head(const kernels::SimdOps& ops, const float* src,
                    std::int64_t t, std::int64_t hd, std::int64_t ld,
                    float* dst) {
  if (ops.transpose != nullptr) {
    ops.transpose(src, t, hd, ld, dst, t);
    return;
  }
  for (std::int64_t j = 0; j < t; ++j) {
    for (std::int64_t d = 0; d < hd; ++d) dst[d * t + j] = src[j * ld + d];
  }
}

}  // namespace

Tensor MultiheadSelfAttention::forward(StepContext& ctx, const Tensor& x) {
  ES_CHECK(x.shape().rank() == 3 && x.shape().dim(2) == dim_,
           "attention expects [N, T, D]");
  const std::int64_t n = x.shape().dim(0), t = x.shape().dim(1);
  cached_in_shape_ = x.shape();
  const Tensor flat = x.reshaped(Shape{n * t, dim_});
  cached_q_ = wq_.forward(ctx, flat);
  cached_k_ = wk_.forward(ctx, flat);
  cached_v_ = wv_.forward(ctx, flat);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  cached_probs_ = Tensor(Shape{n, heads_, t, t});
  Tensor ctx_out(Shape{n * t, dim_});
  // Each (sample, head) pair writes only its own probs plane and its own
  // head-offset column slice of ctx_out — owner-computes over n*heads.
  // Scores and context are sequential-chain row products (dot_row); exp,
  // the row max and the softmax denominator stay scalar in j order.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  const std::int64_t hd = head_dim_;
  kernels::parallel_for(
      ctx.ex(), n * heads_,
      std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, t * t * hd)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        std::vector<float> k_t(static_cast<std::size_t>(hd * t));
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t s = p / heads_;
          const std::int64_t h = p % heads_;
          const std::int64_t base = s * t * dim_ + h * hd;
          const float* q = cached_q_.raw() + base;
          const float* v = cached_v_.raw() + base;
          float* probs = cached_probs_.raw() + ((s * heads_ + h) * t * t);
          transpose_head(ops, cached_k_.raw() + base, t, hd, dim_, k_t.data());
          for (std::int64_t i = 0; i < t; ++i) {
            float* prow = probs + i * t;
            dot_row(ops, q + i * dim_, k_t.data(), hd, t, t, prow);
            float row_max = -1e30f;
            for (std::int64_t j = 0; j < t; ++j) {
              prow[j] *= inv_sqrt;
              row_max = std::max(row_max, prow[j]);
            }
            float denom = 0.0f;
            for (std::int64_t j = 0; j < t; ++j) {
              prow[j] = std::exp(prow[j] - row_max);
              denom += prow[j];
            }
            if (ops.div_scalar != nullptr) {
              ops.div_scalar(prow, denom, t);
            } else {
              for (std::int64_t j = 0; j < t; ++j) prow[j] /= denom;
            }
            dot_row(ops, prow, v, t, dim_, hd,
                    ctx_out.raw() + base + i * dim_);
          }
        }
      });
  Tensor out = wo_.forward(ctx, ctx_out);
  return out.reshaped(Shape{n, t, dim_});
}

Tensor MultiheadSelfAttention::backward(StepContext& ctx,
                                        const Tensor& grad_out) {
  const std::int64_t n = cached_in_shape_.dim(0), t = cached_in_shape_.dim(1);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const Tensor g_flat = grad_out.reshaped(Shape{n * t, dim_});
  const Tensor d_ctx = wo_.backward(ctx, g_flat);

  Tensor dq(Shape{n * t, dim_}), dk(Shape{n * t, dim_}), dv(Shape{n * t, dim_});
  // dq/dk/dv writes for a (sample, head) pair stay inside that pair's
  // head-offset column slice — owner-computes over n*heads with chunk-local
  // buffers.  dq_i is written once, by one row product over ds_i.  dv_j =
  // sum_i p_ij dc_i and dk_j = sum_i ds_ij q_i are each one row product
  // over i against the transposed P and dS: the chain 0 + term_0 + term_1
  // + ... in ascending i, exactly the scalar loop that adds p_ij dc_i into
  // a zeroed dv_j row by row.  The softmax-backward dot stays scalar.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  const std::int64_t hd = head_dim_;
  kernels::parallel_for(
      ctx.ex(), n * heads_,
      std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, t * t * hd)),
      [&](int /*chunk*/, std::int64_t p0, std::int64_t p1) {
        std::vector<float> v_t(static_cast<std::size_t>(hd * t));
        std::vector<float> dprobs(static_cast<std::size_t>(t));
        std::vector<float> ds(static_cast<std::size_t>(t * t));
        std::vector<float> panel_t(static_cast<std::size_t>(t * t));
        for (std::int64_t p = p0; p < p1; ++p) {
          const std::int64_t s = p / heads_;
          const std::int64_t h = p % heads_;
          const std::int64_t base = s * t * dim_ + h * hd;
          const float* q = cached_q_.raw() + base;
          const float* k = cached_k_.raw() + base;
          const float* dc = d_ctx.raw() + base;
          float* dq_h = dq.raw() + base;
          float* dk_h = dk.raw() + base;
          float* dv_h = dv.raw() + base;
          const float* probs = cached_probs_.raw() + ((s * heads_ + h) * t * t);
          transpose_head(ops, cached_v_.raw() + base, t, hd, dim_, v_t.data());
          for (std::int64_t i = 0; i < t; ++i) {
            const float* prow = probs + i * t;
            float* ds_i = ds.data() + i * t;
            // dprobs_ij = <d_ctx_i, v_j>
            dot_row(ops, dc + i * dim_, v_t.data(), hd, t, t, dprobs.data());
            // softmax backward
            float dot = 0.0f;
            for (std::int64_t j = 0; j < t; ++j) {
              dot += prow[j] * dprobs[static_cast<std::size_t>(j)];
            }
            for (std::int64_t j = 0; j < t; ++j) {
              ds_i[j] = prow[j] * (dprobs[static_cast<std::size_t>(j)] - dot) *
                        inv_sqrt;
            }
            // dq_i = sum_j ds_ij k_j
            dot_row(ops, ds_i, k, t, dim_, hd, dq_h + i * dim_);
          }
          // dv_j = sum_i p_ij dc_i; dk_j = sum_i ds_ij q_i
          transpose_head(ops, probs, t, t, t, panel_t.data());
          for (std::int64_t j = 0; j < t; ++j) {
            dot_row(ops, panel_t.data() + j * t, dc, t, dim_, hd,
                    dv_h + j * dim_);
          }
          transpose_head(ops, ds.data(), t, t, t, panel_t.data());
          for (std::int64_t j = 0; j < t; ++j) {
            dot_row(ops, panel_t.data() + j * t, q, t, dim_, hd,
                    dk_h + j * dim_);
          }
        }
      });
  // Backward through the projections; all three saw the same input.
  Tensor dx = wv_.backward(ctx, dv);
  tensor::add_(ctx.ex(), dx, wk_.backward(ctx, dk));
  tensor::add_(ctx.ex(), dx, wq_.backward(ctx, dq));
  return dx.reshaped(cached_in_shape_);
}

}  // namespace easyscale::nn
