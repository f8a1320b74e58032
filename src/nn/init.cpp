#include "nn/init.hpp"

#include <cmath>

#include "rng/sampling.hpp"

namespace easyscale::nn {

void kaiming_uniform(rng::Philox& gen, tensor::Tensor& w, std::int64_t fan_in) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  rng::fill_uniform(gen, w.data(), -bound, bound);
}

void normal_init(rng::Philox& gen, tensor::Tensor& w, float stddev) {
  rng::fill_normal(gen, w.data(), 0.0f, stddev);
}

}  // namespace easyscale::nn
