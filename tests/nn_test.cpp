// Gradient checks (central finite differences) and behavioural tests for
// every layer in nn/.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "kernels/reduce.hpp"
#include "models/blocks.hpp"
#include "tensor/ops.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/embedding.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/losses.hpp"
#include "nn/pooling.hpp"
#include "rng/sampling.hpp"

namespace easyscale::nn {
namespace {

struct GradCheckEnv {
  kernels::ExecContext exec;
  rng::StreamSet streams;
  autograd::StepContext ctx;

  GradCheckEnv() {
    exec.policy = kernels::KernelPolicy::kHardwareAgnostic;  // stable order
    streams.seed_all(55, 0);
    ctx.exec = &exec;
    ctx.rng = &streams;
    ctx.training = true;
  }
};

Tensor random_tensor(rng::Philox& gen, Shape shape, float stddev = 1.0f) {
  Tensor t(std::move(shape));
  rng::fill_normal(gen, t.data(), 0.0f, stddev);
  return t;
}

/// Scalar projection loss: L = sum(out * probe).
float probe_loss(const Tensor& out, const Tensor& probe) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    acc += out.at(i) * probe.at(i);
  }
  return acc;
}

/// Checks d(probe_loss)/d(input) of `layer` against finite differences.
/// RNG-consuming layers must reset their stream per evaluation via
/// `reset_rng`.
void gradcheck_input(Layer& layer, GradCheckEnv& env, Tensor x,
                     const std::function<void()>& reset_rng = [] {},
                     float tol = 5e-2f) {
  rng::Philox probe_gen(77);
  reset_rng();
  Tensor out = layer.forward(env.ctx, x);
  const Tensor probe = random_tensor(probe_gen, out.shape());
  const Tensor analytic = layer.backward(env.ctx, probe);
  const float eps = 1e-2f;
  std::int64_t checked = 0;
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 24);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    Tensor xp = x, xm = x;
    xp.at(i) += eps;
    xm.at(i) -= eps;
    reset_rng();
    const float lp = probe_loss(layer.forward(env.ctx, xp), probe);
    reset_rng();
    const float lm = probe_loss(layer.forward(env.ctx, xm), probe);
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(analytic.at(i), numeric,
                tol * (1.0f + std::abs(numeric)))
        << "input grad mismatch at " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

/// Checks parameter gradients of `layer` against finite differences.
void gradcheck_params(Layer& layer, GradCheckEnv& env, const Tensor& x,
                      const std::function<void()>& reset_rng = [] {},
                      float tol = 5e-2f) {
  autograd::ParameterStore store;
  layer.register_parameters(store);
  rng::Philox probe_gen(78);
  reset_rng();
  Tensor out = layer.forward(env.ctx, x);
  const Tensor probe = random_tensor(probe_gen, out.shape());
  store.zero_grads();
  (void)layer.backward(env.ctx, probe);
  const float eps = 1e-2f;
  for (auto* p : store.all()) {
    const std::int64_t stride = std::max<std::int64_t>(1, p->numel() / 12);
    for (std::int64_t i = 0; i < p->numel(); i += stride) {
      const float orig = p->value.at(i);
      p->value.at(i) = orig + eps;
      reset_rng();
      const float lp = probe_loss(layer.forward(env.ctx, x), probe);
      p->value.at(i) = orig - eps;
      reset_rng();
      const float lm = probe_loss(layer.forward(env.ctx, x), probe);
      p->value.at(i) = orig;
      const float numeric = (lp - lm) / (2.0f * eps);
      EXPECT_NEAR(p->grad.at(i), numeric, tol * (1.0f + std::abs(numeric)))
          << "param " << p->name << " grad mismatch at " << i;
    }
  }
}

TEST(Linear, GradCheck) {
  GradCheckEnv env;
  rng::Philox gen(1);
  Linear layer("fc", 6, 4);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{3, 6});
  gradcheck_input(layer, env, x);
  gradcheck_params(layer, env, x);
}

TEST(Conv2d, GradCheck) {
  GradCheckEnv env;
  rng::Philox gen(2);
  Conv2d layer("conv", 2, 3, 3, 1, 1);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{2, 2, 5, 5});
  gradcheck_input(layer, env, x);
  gradcheck_params(layer, env, x);
}

TEST(Conv2d, GroupedGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(3);
  Conv2d layer("dw", 4, 4, 3, 1, 1, /*groups=*/4, /*bias=*/false);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{1, 4, 4, 4});
  gradcheck_input(layer, env, x);
  gradcheck_params(layer, env, x);
}

TEST(BatchNorm2d, GradCheck) {
  GradCheckEnv env;
  rng::Philox gen(4);
  BatchNorm2d layer("bn", 3);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{4, 3, 3, 3});
  // Training-mode BatchNorm normalizes with batch statistics; running
  // buffers drift across probe evaluations but do not enter the forward.
  gradcheck_input(layer, env, x, [] {}, 8e-2f);
}

TEST(BatchNorm2d, RunningStatsTrackBatches) {
  GradCheckEnv env;
  rng::Philox gen(5);
  BatchNorm2d layer("bn", 2);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{8, 2, 4, 4});
  (void)layer.forward(env.ctx, x);
  // Running mean moved toward the batch mean (momentum 0.1).
  EXPECT_NE(layer.running_mean().at(0), 0.0f);
  EXPECT_NE(layer.running_var().at(0), 1.0f);
  // Eval mode uses the running stats, so output differs from train mode.
  env.ctx.training = false;
  const Tensor eval_out = layer.forward(env.ctx, x);
  env.ctx.training = true;
  const Tensor train_out = layer.forward(env.ctx, x);
  EXPECT_GT(tensor::max_abs_diff(eval_out, train_out), 0.0f);
}

TEST(BatchNorm2d, BuffersExposedForESTContext) {
  BatchNorm2d layer("bn", 2);
  std::vector<Tensor*> buffers;
  layer.collect_buffers(buffers);
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0]->numel(), 2);
}

TEST(Activations, ReLUGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(6);
  ReLU layer;
  // Push inputs away from the kink at 0 so finite differences are valid.
  Tensor x = random_tensor(gen, Shape{5, 7});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.at(i) += x.at(i) >= 0.0f ? 0.1f : -0.1f;
  }
  gradcheck_input(layer, env, x);
}

TEST(Activations, GELUGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(7);
  GELU layer;
  gradcheck_input(layer, env, random_tensor(gen, Shape{4, 6}));
}

TEST(Activations, SigmoidGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(8);
  Sigmoid layer;
  gradcheck_input(layer, env, random_tensor(gen, Shape{4, 6}));
}

TEST(Pooling, MaxPoolGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(9);
  MaxPool2d layer(2);
  gradcheck_input(layer, env, random_tensor(gen, Shape{2, 2, 4, 4}));
}

TEST(Pooling, GlobalAvgPoolGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(10);
  GlobalAvgPool layer;
  gradcheck_input(layer, env, random_tensor(gen, Shape{2, 3, 4, 4}));
}

TEST(Pooling, FlattenRoundTrip) {
  GradCheckEnv env;
  rng::Philox gen(11);
  Flatten layer;
  const Tensor x = random_tensor(gen, Shape{2, 3, 2, 2});
  const Tensor out = layer.forward(env.ctx, x);
  EXPECT_EQ(out.shape(), (Shape{2, 12}));
  const Tensor back = layer.backward(env.ctx, out);
  EXPECT_EQ(back.shape(), x.shape());
  EXPECT_EQ(tensor::max_abs_diff(back, x), 0.0f);
}

TEST(Dropout, GradCheckWithFixedStream) {
  GradCheckEnv env;
  rng::Philox gen(12);
  Dropout layer(0.4f);
  const auto snapshot = env.streams.state();
  gradcheck_input(layer, env, random_tensor(gen, Shape{6, 6}),
                  [&] { env.streams.set_state(snapshot); });
}

TEST(Dropout, EvalModePassthrough) {
  GradCheckEnv env;
  env.ctx.training = false;
  rng::Philox gen(13);
  Dropout layer(0.5f);
  const Tensor x = random_tensor(gen, Shape{4, 4});
  const Tensor out = layer.forward(env.ctx, x);
  EXPECT_EQ(tensor::max_abs_diff(out, x), 0.0f);
}

TEST(Dropout, MaskDrawsFromTorchStream) {
  GradCheckEnv env;
  rng::Philox gen(14);
  Dropout layer(0.5f);
  const Tensor x = random_tensor(gen, Shape{64});
  const auto snapshot = env.streams.state();
  const Tensor a = layer.forward(env.ctx, x);
  env.streams.set_state(snapshot);
  const Tensor b = layer.forward(env.ctx, x);
  EXPECT_EQ(tensor::max_abs_diff(a, b), 0.0f);  // same stream => same mask
  const Tensor c = layer.forward(env.ctx, x);   // stream advanced
  EXPECT_GT(tensor::max_abs_diff(a, c), 0.0f);
}

TEST(LayerNorm, GradCheck) {
  GradCheckEnv env;
  rng::Philox gen(15);
  LayerNorm layer("ln", 8);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{4, 8});
  gradcheck_input(layer, env, x);
  gradcheck_params(layer, env, x);
}

// The backward's association is part of the training bits: (xh *
// sum_dyxh) / m must not become xh * (sum_dyxh / m), which is only
// bit-equal when m is a power of two (every model dim is), so this pins
// the expression at dims 6 and 24 against the reference loop.
TEST(LayerNorm, BackwardMatchesReferenceLoopBitwise) {
  for (const std::int64_t dim : {6, 24}) {
    GradCheckEnv env;
    rng::Philox gen(static_cast<std::uint64_t>(40 + dim));
    LayerNorm layer("ln", dim);
    layer.init_weights(gen);  // gamma 1, beta 0: the forward's out IS xhat
    autograd::ParameterStore store;
    layer.register_parameters(store);
    store.zero_grads();
    const std::int64_t rows = 5;
    const Tensor x = random_tensor(gen, Shape{rows, dim});
    const Tensor gy = random_tensor(gen, Shape{rows, dim});
    const Tensor xhat = layer.forward(env.ctx, x);
    Tensor& gamma = store.all()[0]->value;
    rng::fill_normal(gen, gamma.data(), 1.0f, 0.5f);
    const Tensor gin = layer.backward(env.ctx, gy);

    const float m = static_cast<float>(dim);
    std::vector<float> want(static_cast<std::size_t>(rows * dim));
    std::vector<float> want_gamma(static_cast<std::size_t>(dim), 0.0f);
    std::vector<float> want_beta(static_cast<std::size_t>(dim), 0.0f);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::span<const float> row(x.raw() + r * dim,
                                 static_cast<std::size_t>(dim));
      const float mean = kernels::reduce_sum(env.exec, row) / m;
      float var = 0.0f;
      for (const float v : row) var += (v - mean) * (v - mean);
      const float inv_std = 1.0f / std::sqrt(var / m + 1e-5f);
      float sum_dy = 0.0f, sum_dyxh = 0.0f;
      for (std::int64_t i = 0; i < dim; ++i) {
        const float dy = gy.at(r * dim + i) * gamma.at(i);
        sum_dy += dy;
        sum_dyxh += dy * xhat.at(r * dim + i);
      }
      for (std::int64_t i = 0; i < dim; ++i) {
        const float dy = gy.at(r * dim + i) * gamma.at(i);
        const float xh = xhat.at(r * dim + i);
        want[static_cast<std::size_t>(r * dim + i)] =
            inv_std * (dy - sum_dy / m - xh * sum_dyxh / m);
        want_gamma[static_cast<std::size_t>(i)] += gy.at(r * dim + i) * xh;
        want_beta[static_cast<std::size_t>(i)] += gy.at(r * dim + i);
      }
    }
    const auto bits = [](const Tensor& t) {
      return std::vector<float>(t.raw(), t.raw() + t.numel());
    };
    EXPECT_EQ(bits(gin), want) << "dim " << dim;
    EXPECT_EQ(bits(store.all()[0]->grad), want_gamma) << "dim " << dim;
    EXPECT_EQ(bits(store.all()[1]->grad), want_beta) << "dim " << dim;
  }
}

TEST(Attention, GradCheck) {
  GradCheckEnv env;
  rng::Philox gen(16);
  MultiheadSelfAttention layer("attn", 8, 2);
  layer.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{2, 4, 8}, 0.5f);
  gradcheck_input(layer, env, x, [] {}, 8e-2f);
  gradcheck_params(layer, env, x, [] {}, 8e-2f);
}

TEST(Embedding, ForwardGathersRows) {
  GradCheckEnv env;
  rng::Philox gen(17);
  Embedding emb("emb", 10, 4);
  emb.init_weights(gen);
  LongTensor ids(Shape{3}, {7, 0, 7});
  const Tensor out = emb.forward(env.ctx, ids);
  for (std::int64_t d = 0; d < 4; ++d) {
    EXPECT_EQ(out.at(d), emb.weight().value.at(7 * 4 + d));
    EXPECT_EQ(out.at(2 * 4 + d), out.at(d));
  }
}

TEST(Embedding, BackwardAccumulatesCollisions) {
  GradCheckEnv env;
  Embedding emb("emb", 4, 2);
  LongTensor ids(Shape{3}, {1, 1, 2});
  Tensor grad(Shape{3, 2}, {1, 2, 10, 20, 5, 6});
  autograd::ParameterStore store;
  emb.register_parameters(store);
  store.zero_grads();
  emb.backward(env.ctx, ids, grad);
  EXPECT_FLOAT_EQ(emb.weight().grad.at(1 * 2 + 0), 11.0f);
  EXPECT_FLOAT_EQ(emb.weight().grad.at(1 * 2 + 1), 22.0f);
  EXPECT_FLOAT_EQ(emb.weight().grad.at(2 * 2 + 0), 5.0f);
}

TEST(Embedding, OutOfRangeThrows) {
  GradCheckEnv env;
  Embedding emb("emb", 4, 2);
  LongTensor ids(Shape{1}, {4});
  EXPECT_THROW(emb.forward(env.ctx, ids), Error);
}

TEST(Losses, CrossEntropyGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(18);
  SoftmaxCrossEntropy loss;
  Tensor logits = random_tensor(gen, Shape{5, 4});
  LongTensor labels(Shape{5}, {0, 3, 1, 2, 2});
  (void)loss.forward(env.ctx, logits, labels);
  const Tensor analytic = loss.backward();
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp.at(i) += eps;
    lm.at(i) -= eps;
    SoftmaxCrossEntropy probe;
    const float fp = probe.forward(env.ctx, lp, labels);
    const float fm = probe.forward(env.ctx, lm, labels);
    EXPECT_NEAR(analytic.at(i), (fp - fm) / (2.0f * eps), 2e-3f);
  }
}

TEST(Losses, CrossEntropyOfUniformLogitsIsLogC) {
  GradCheckEnv env;
  SoftmaxCrossEntropy loss;
  Tensor logits(Shape{2, 10});
  LongTensor labels(Shape{2}, {3, 7});
  EXPECT_NEAR(loss.forward(env.ctx, logits, labels), std::log(10.0f), 1e-5f);
}

TEST(Losses, BCEGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(19);
  BCEWithLogits loss;
  Tensor logits = random_tensor(gen, Shape{8});
  Tensor targets(Shape{8});
  for (std::int64_t i = 0; i < 8; ++i) targets.at(i) = (i % 2) ? 1.0f : 0.0f;
  (void)loss.forward(env.ctx, logits, targets);
  const Tensor analytic = loss.backward();
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < 8; ++i) {
    Tensor lp = logits, lm = logits;
    lp.at(i) += eps;
    lm.at(i) -= eps;
    BCEWithLogits probe;
    const float fp = probe.forward(env.ctx, lp, targets);
    const float fm = probe.forward(env.ctx, lm, targets);
    EXPECT_NEAR(analytic.at(i), (fp - fm) / (2.0f * eps), 2e-3f);
  }
}

TEST(Losses, MSEGradIsScaledDiff) {
  GradCheckEnv env;
  MSELoss loss;
  Tensor pred(Shape{2}, {1.0f, 3.0f});
  Tensor target(Shape{2}, {0.0f, 5.0f});
  EXPECT_FLOAT_EQ(loss.forward(env.ctx, pred, target), (1.0f + 4.0f) / 2.0f);
  const Tensor g = loss.backward();
  EXPECT_FLOAT_EQ(g.at(0), 1.0f);
  EXPECT_FLOAT_EQ(g.at(1), -2.0f);
}

TEST(Blocks, ResidualBlockGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(20);
  models::ResidualBlock block("res", 2, 4, 2);
  block.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{2, 2, 4, 4}, 0.5f);
  gradcheck_input(block, env, x, [] {}, 1.2e-1f);
}

TEST(Blocks, ChannelShuffleIsPermutation) {
  GradCheckEnv env;
  rng::Philox gen(21);
  models::ChannelShuffle shuffle(2);
  const Tensor x = random_tensor(gen, Shape{1, 4, 2, 2});
  const Tensor out = shuffle.forward(env.ctx, x);
  // Forward then backward must be the identity (orthogonal permutation).
  const Tensor back = shuffle.backward(env.ctx, out);
  EXPECT_EQ(tensor::max_abs_diff(back, x), 0.0f);
  // Channel 1 of the output is input channel 2 (groups=2, per=2).
  EXPECT_EQ(out.at(1 * 4 + 0), x.at(2 * 4 + 0));
}

TEST(Blocks, TransformerBlockGradCheck) {
  GradCheckEnv env;
  rng::Philox gen(22);
  models::TransformerBlock block("tf", 8, 2, 16, 0.0f);
  block.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{2, 3, 8}, 0.5f);
  gradcheck_input(block, env, x, [] {}, 1e-1f);
}

TEST(Sequential, ComposesForwardAndBackward) {
  GradCheckEnv env;
  rng::Philox gen(23);
  Sequential seq;
  seq.emplace<Linear>("a", 6, 5);
  seq.emplace<ReLU>();
  seq.emplace<Linear>("b", 5, 3);
  seq.init_weights(gen);
  const Tensor x = random_tensor(gen, Shape{4, 6});
  gradcheck_input(seq, env, x);
  autograd::ParameterStore store;
  seq.register_parameters(store);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(seq.uses_vendor_tuned_kernels());
  seq.emplace<Conv2d>("c", 1, 1, 1);
  EXPECT_TRUE(seq.uses_vendor_tuned_kernels());
}

}  // namespace
}  // namespace easyscale::nn
