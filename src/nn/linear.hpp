// Fully-connected layer: y = x W^T + b, x:[N, in], W:[out, in], b:[out].
#pragma once

#include "nn/layer.hpp"

namespace easyscale::nn {

class Linear : public Layer {
 public:
  Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
         bool bias = true);

  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  void register_parameters(ParameterStore& store) override;
  void init_weights(rng::Philox& init) override;
  [[nodiscard]] bool uses_vendor_tuned_kernels() const override {
    // GEMM has a deterministic hardware-agnostic variant with negligible
    // overhead, so Linear never blocks D2 eligibility.
    return false;
  }
  [[nodiscard]] const char* kind() const override { return "Linear"; }

  [[nodiscard]] Parameter& weight() { return weight_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

}  // namespace easyscale::nn
