#include "nn/dropout.hpp"

#include "kernels/exec_context.hpp"

namespace easyscale::nn {

namespace {
/// out[i] = a[i] * b[i]: a pure per-index map, so owner-computes over any
/// split and the vector body are bitwise-equal to the scalar loop.
void mul_elementwise(StepContext& ctx, const float* a, const float* b,
                     float* out, std::int64_t n) {
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  kernels::parallel_for(ctx.ex(), n, 4096,
                        [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                          if (ops.mul_vec != nullptr) {
                            ops.mul_vec(a + i0, b + i0, out + i0, i1 - i0);
                            return;
                          }
                          for (std::int64_t i = i0; i < i1; ++i) {
                            out[i] = a[i] * b[i];
                          }
                        });
}
}  // namespace

Tensor Dropout::forward(StepContext& ctx, const Tensor& x) {
  if (!ctx.training || p_ == 0.0f) {
    cached_mask_ = Tensor();
    return x;
  }
  const float scale = 1.0f / (1.0f - p_);
  const std::int64_t n = x.numel();
  cached_mask_ = Tensor(x.shape());
  Tensor out(x.shape());
  // Deliberately sequential: element i consumes the i-th draw from the
  // shared RNG stream, so the draw order IS the mask.  Splitting the draws
  // would permute them across threads and change training trajectories.
  // The vector body draws the same stream, lanes being block counters.
  float* mask = cached_mask_.raw();
  rng::Philox& gen = ctx.torch_rng();
  const kernels::SimdOps& ops = ctx.ex().simd_ops();
  if (ops.dropout_mask != nullptr) {
    rng::PhiloxState st = gen.state();
    ops.dropout_mask(st, p_, scale, mask, n);
    gen.set_state(st);
  } else {
    gen.fill_floats(mask, n);
    for (std::int64_t i = 0; i < n; ++i) {
      mask[i] = mask[i] >= p_ ? scale : 0.0f;
    }
  }
  mul_elementwise(ctx, x.raw(), mask, out.raw(), n);
  return out;
}

Tensor Dropout::backward(StepContext& ctx, const Tensor& grad_out) {
  if (!cached_mask_.defined()) return grad_out;
  ES_CHECK(grad_out.shape() == cached_mask_.shape(),
           "Dropout backward: grad shape != forward shape");
  Tensor grad_in(grad_out.shape());
  mul_elementwise(ctx, grad_out.raw(), cached_mask_.raw(), grad_in.raw(),
                  grad_out.numel());
  return grad_in;
}

}  // namespace easyscale::nn
