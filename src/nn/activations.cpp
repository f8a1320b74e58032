#include "nn/activations.hpp"

#include <cmath>

#include "kernels/exec_context.hpp"

namespace easyscale::nn {

namespace {
/// Elementwise activations are pure per-index maps — owner-computes with no
/// accumulation at all, so any split is bitwise-safe.
constexpr std::int64_t kActGrain = 4096;
/// tanh/exp-heavy maps amortize dispatch sooner.
constexpr std::int64_t kTranscendentalGrain = 1024;
}  // namespace

Tensor ReLU::forward(StepContext& ctx, const Tensor& x) {
  cached_input_ = x;
  Tensor out(x.shape());
  // Lanewise select — no accumulation, so the vector body is bitwise-equal
  // to the scalar ternary per element.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(ctx.ex(), x.numel(), kActGrain,
                        [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                          if (ops.relu_fwd != nullptr) {
                            ops.relu_fwd(x.raw() + i0, out.raw() + i0,
                                         i1 - i0);
                            return;
                          }
                          for (std::int64_t i = i0; i < i1; ++i) {
                            out.at(i) = x.at(i) > 0.0f ? x.at(i) : 0.0f;
                          }
                        });
  return out;
}

Tensor ReLU::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kActGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.relu_bwd != nullptr) {
          ops.relu_bwd(cached_input_.raw() + i0, grad_out.raw() + i0,
                       grad_in.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          grad_in.at(i) = cached_input_.at(i) > 0.0f ? grad_out.at(i) : 0.0f;
        }
      });
  return grad_in;
}

Tensor GELU::forward(StepContext& ctx, const Tensor& x) {
  cached_input_ = x;
  cached_tanh_ = Tensor(x.shape());
  Tensor out(x.shape());
  // tanh stays scalar libm; the backward reuses the cached t bit-for-bit
  // instead of recomputing it.
  kernels::parallel_for(
      ctx.ex(), x.numel(), kTranscendentalGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        const float* xp = x.raw();
        float* tp = cached_tanh_.raw();
        float* op = out.raw();
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = xp[i];
          const float t = std::tanh(kernels::kGeluC *
                                    (v + kernels::kGeluA * v * v * v));
          tp[i] = t;
          op[i] = 0.5f * v * (1.0f + t);
        }
      });
  return out;
}

Tensor GELU::backward(StepContext& ctx, const Tensor& grad_out) {
  ES_CHECK(cached_tanh_.defined() && grad_out.shape() == cached_tanh_.shape(),
           "GELU backward: grad shape != forward shape");
  Tensor grad_in(grad_out.shape());
  // Pure per-index map; gelu_bwd keeps the scalar association per lane.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kActGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        gelu_backward_body(ops, cached_input_.raw() + i0,
                           cached_tanh_.raw() + i0, grad_out.raw() + i0,
                           grad_in.raw() + i0, i1 - i0);
      });
  return grad_in;
}

void gelu_backward_body(const kernels::SimdOps& ops, const float* x,
                        const float* t, const float* g, float* gin,
                        std::int64_t n) {
  if (ops.gelu_bwd != nullptr) {
    ops.gelu_bwd(x, t, g, gin, n);
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float du = kernels::kGeluC * (1.0f + 3.0f * kernels::kGeluA * v * v);
    const float d = 0.5f * (1.0f + t[i]) + 0.5f * v * (1.0f - t[i] * t[i]) * du;
    gin[i] = g[i] * d;
  }
}

Tensor Sigmoid::forward(StepContext& ctx, const Tensor& x) {
  Tensor out(x.shape());
  kernels::parallel_for(ctx.ex(), x.numel(), kTranscendentalGrain,
                        [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            out.at(i) = 1.0f / (1.0f + std::exp(-x.at(i)));
                          }
                        });
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(StepContext& ctx, const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  // Pure per-index map (g * s) * (1 - s); the vector body keeps the same
  // left-to-right multiply order per lane.
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(
      ctx.ex(), grad_out.numel(), kActGrain,
      [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
        if (ops.sigmoid_bwd != nullptr) {
          ops.sigmoid_bwd(cached_output_.raw() + i0, grad_out.raw() + i0,
                          grad_in.raw() + i0, i1 - i0);
          return;
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float s = cached_output_.at(i);
          grad_in.at(i) = grad_out.at(i) * s * (1.0f - s);
        }
      });
  return grad_in;
}

}  // namespace easyscale::nn
