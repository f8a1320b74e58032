#include "models/neumf.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace easyscale::models {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// out[i] = [a[i], b[i]] row by row, for [n, d] a and b and [n, 2d] out.
void concat_rows(const Tensor& a, const Tensor& b, Tensor& out) {
  const std::int64_t n = a.shape().dim(0), d = a.shape().dim(1);
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = out.raw() + i * 2 * d;
    std::copy_n(a.raw() + i * d, d, row);
    std::copy_n(b.raw() + i * d, d, row + d);
  }
}

/// The inverse of concat_rows: [n, 2d] in into [n, d] a and b.
void split_rows(const Tensor& in, Tensor& a, Tensor& b) {
  const std::int64_t n = a.shape().dim(0), d = a.shape().dim(1);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = in.raw() + i * 2 * d;
    std::copy_n(row, d, a.raw() + i * d);
    std::copy_n(row + d, d, b.raw() + i * d);
  }
}

}  // namespace

NeuMF::NeuMF(std::int64_t num_users, std::int64_t num_items, std::int64_t dim)
    : dim_(dim),
      gmf_user_("gmf.user", num_users, dim),
      gmf_item_("gmf.item", num_items, dim),
      mlp_user_("mlp.user", num_users, dim),
      mlp_item_("mlp.item", num_items, dim),
      mlp_fc_("mlp.fc", 2 * dim, dim),
      out_fc_("out", 2 * dim, 1) {
  gmf_user_.register_parameters(params_);
  gmf_item_.register_parameters(params_);
  mlp_user_.register_parameters(params_);
  mlp_item_.register_parameters(params_);
  mlp_fc_.register_parameters(params_);
  out_fc_.register_parameters(params_);
}

void NeuMF::init(std::uint64_t seed) {
  rng::Philox gen(rng::derive_stream_key(seed, 0, 41));
  gmf_user_.init_weights(gen);
  gmf_item_.init_weights(gen);
  mlp_user_.init_weights(gen);
  mlp_item_.init_weights(gen);
  mlp_fc_.init_weights(gen);
  out_fc_.init_weights(gen);
}

tensor::Tensor NeuMF::forward(autograd::StepContext& ctx,
                              const data::Batch& batch, ForwardCache& cache) {
  ES_CHECK(batch.ids.shape().rank() == 2 && batch.ids.shape().dim(1) == 2,
           "NeuMF expects (user, item) id pairs");
  const std::int64_t n = batch.ids.shape().dim(0);
  cache.users = tensor::LongTensor(Shape{n});
  cache.items = tensor::LongTensor(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    cache.users.at(i) = batch.ids.at(i * 2);
    cache.items.at(i) = batch.ids.at(i * 2 + 1);
  }
  cache.gmf_u = gmf_user_.forward(ctx, cache.users);
  cache.gmf_i = gmf_item_.forward(ctx, cache.items);
  cache.mlp_u = mlp_user_.forward(ctx, cache.users);
  cache.mlp_i = mlp_item_.forward(ctx, cache.items);
  // GMF: elementwise product.
  cache.gmf_vec = tensor::Tensor(Shape{n, dim_});
  tensor::mul(ctx.ex(), cache.gmf_u, cache.gmf_i, cache.gmf_vec);
  // MLP: concat -> fc -> relu.
  cache.mlp_hidden_in = tensor::Tensor(Shape{n, 2 * dim_});
  concat_rows(cache.mlp_u, cache.mlp_i, cache.mlp_hidden_in);
  Tensor hidden = mlp_fc_.forward(ctx, cache.mlp_hidden_in);
  hidden = mlp_act_.forward(ctx, hidden);
  // Fuse: concat(gmf, mlp) -> out.
  Tensor fused(Shape{n, 2 * dim_});
  concat_rows(cache.gmf_vec, hidden, fused);
  return out_fc_.forward(ctx, fused).reshaped(Shape{n});
}

float NeuMF::train_step(autograd::StepContext& ctx, const data::Batch& batch) {
  Tensor logits = forward(ctx, batch, cache_);
  const std::int64_t n = logits.numel();
  Tensor targets = batch.target.reshaped(Shape{n});
  const float loss = loss_.forward(ctx, logits, targets);
  // Backward through the fused head.
  Tensor g_out = loss_.backward().reshaped(Shape{n, 1});
  Tensor g_fused = out_fc_.backward(ctx, g_out);
  Tensor g_gmf(Shape{n, dim_}), g_hidden(Shape{n, dim_});
  split_rows(g_fused, g_gmf, g_hidden);
  // MLP branch.
  Tensor g_h = mlp_act_.backward(ctx, g_hidden);
  Tensor g_concat = mlp_fc_.backward(ctx, g_h);
  Tensor g_mlp_u(Shape{n, dim_}), g_mlp_i(Shape{n, dim_});
  split_rows(g_concat, g_mlp_u, g_mlp_i);
  mlp_user_.backward(ctx, cache_.users, g_mlp_u);
  mlp_item_.backward(ctx, cache_.items, g_mlp_i);
  // GMF branch: d(u*i)/du = i, /di = u.
  Tensor g_gmf_u(Shape{n, dim_}), g_gmf_i(Shape{n, dim_});
  tensor::mul(ctx.ex(), g_gmf, cache_.gmf_i, g_gmf_u);
  tensor::mul(ctx.ex(), g_gmf, cache_.gmf_u, g_gmf_i);
  gmf_user_.backward(ctx, cache_.users, g_gmf_u);
  gmf_item_.backward(ctx, cache_.items, g_gmf_i);
  return loss;
}

std::vector<std::int64_t> NeuMF::predict(autograd::StepContext& ctx,
                                         const data::Batch& batch) {
  const bool was_training = ctx.training;
  ctx.training = false;
  ForwardCache scratch;
  Tensor logits = forward(ctx, batch, scratch);
  ctx.training = was_training;
  std::vector<std::int64_t> out(static_cast<std::size_t>(logits.numel()));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    out[static_cast<std::size_t>(i)] = logits.at(i) > 0.0f ? 1 : 0;
  }
  return out;
}

}  // namespace easyscale::models
