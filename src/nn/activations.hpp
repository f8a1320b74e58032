// Stateless pointwise activations (caches only the forward mask / input).
#pragma once

#include "nn/layer.hpp"

namespace easyscale::nn {

class ReLU : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

/// GELU backward over n elements from the forward's cached t = tanh(u):
/// `ops`' gelu_bwd body when it has one, else the scalar loop (bitwise
/// equal; kernels::SimdOps::gelu_bwd documents the expression).
void gelu_backward_body(const kernels::SimdOps& ops, const float* x,
                        const float* t, const float* g, float* gin,
                        std::int64_t n);

/// tanh-approximated GELU (the approximation used by BERT).
class GELU : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "GELU"; }

 private:
  Tensor cached_input_;
  Tensor cached_tanh_;  // t = tanh(u) per element, reused by backward
};

class Sigmoid : public Layer {
 public:
  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  [[nodiscard]] const char* kind() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace easyscale::nn
