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
