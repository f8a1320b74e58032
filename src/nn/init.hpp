// Deterministic weight initializers.  All replicas initialize from the same
// stream (PyTorch DDP broadcasts rank-0 weights; we reproduce the effect by
// seeding init independently of rank).
#pragma once

#include "rng/philox.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::nn {

/// Kaiming-uniform for layers with `fan_in` inputs.
void kaiming_uniform(rng::Philox& gen, tensor::Tensor& w, std::int64_t fan_in);

/// N(0, stddev) init (embeddings).
void normal_init(rng::Philox& gen, tensor::Tensor& w, float stddev);

}  // namespace easyscale::nn
