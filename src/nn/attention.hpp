// Multi-head self-attention over [N, T, D] inputs (BERT / Electra / Swin
// mini models).  Attention lowers entirely to GEMM + softmax, both of which
// have cheap hardware-agnostic variants — which is why the paper's
// attention-based workloads show ~0 D2 overhead (Fig 12).
#pragma once

#include "nn/linear.hpp"

namespace easyscale::nn {

class MultiheadSelfAttention : public Layer {
 public:
  MultiheadSelfAttention(std::string name, std::int64_t dim,
                         std::int64_t heads);

  Tensor forward(StepContext& ctx, const Tensor& x) override;
  Tensor backward(StepContext& ctx, const Tensor& grad_out) override;
  void register_parameters(ParameterStore& store) override;
  void init_weights(rng::Philox& init) override;
  [[nodiscard]] const char* kind() const override {
    return "MultiheadSelfAttention";
  }
  /// Softmax probabilities of the last forward, [N, heads, T, T].
  [[nodiscard]] const Tensor& probs() const { return cached_probs_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Linear wq_, wk_, wv_, wo_;
  // Forward caches.
  Tensor cached_q_, cached_k_, cached_v_;  // [N*T, D]
  Tensor cached_probs_;                    // [N, heads, T, T]
  Shape cached_in_shape_;
};

}  // namespace easyscale::nn
