#include "optim/sgd.hpp"

#include <cmath>

#include "kernels/simd.hpp"

namespace easyscale::optim {

SGD::SGD(autograd::ParameterStore& params, Options opts)
    : params_(&params), opts_(opts) {
  momentum_.reserve(params.size());
  for (const auto* p : params.all()) {
    momentum_.emplace_back(p->value.shape());
  }
}

void SGD::step() { step_slices(full_slices(*params_)); }

void SGD::step_slices(const std::vector<ParamSlice>& slices) {
  const kernels::SgdArgs args{.lr = opts_.lr,
                              .momentum = opts_.momentum,
                              .weight_decay = opts_.weight_decay};
  // Elementwise over distinct elements, as in Adam::step_slices: the vector
  // body replays the scalar loop below per lane, on the process-wide
  // backend.
  const kernels::SimdOps& ops = kernels::simd_ops(kernels::SimdBackend::kAuto);
  const auto& all = params_->all();
  for (const ParamSlice& s : slices) {
    ES_CHECK(s.param < all.size(), "SGD slice param out of range");
    autograd::Parameter& p = *all[s.param];
    ES_CHECK(s.begin >= 0 && s.end <= p.numel() && s.begin <= s.end,
             "SGD slice bounds out of range");
    const float* grad = p.grad.raw() + s.begin;
    float* m = momentum_[s.param].raw() + s.begin;
    float* value = p.value.raw() + s.begin;
    const std::int64_t n = s.end - s.begin;
    if (ops.sgd_update != nullptr) {
      ops.sgd_update(args, grad, m, value, n);
      continue;
    }
    for (std::int64_t j = 0; j < n; ++j) {
      float g = grad[j];
      if (args.weight_decay != 0.0f) g += args.weight_decay * value[j];
      if (args.momentum != 0.0f) {
        m[j] = args.momentum * m[j] + g;
        g = m[j];
      }
      value[j] -= args.lr * g;
    }
  }
}

std::vector<tensor::Tensor*> SGD::state_tensors() {
  std::vector<tensor::Tensor*> out;
  out.reserve(momentum_.size());
  for (auto& m : momentum_) out.push_back(&m);
  return out;
}

void SGD::save(ByteWriter& w) const {
  w.write(opts_.lr);
  w.write(opts_.momentum);
  w.write(opts_.weight_decay);
  w.write<std::uint64_t>(momentum_.size());
  for (const auto& m : momentum_) m.save(w);
}

void SGD::load(ByteReader& r) {
  opts_.lr = r.read<float>();
  opts_.momentum = r.read<float>();
  opts_.weight_decay = r.read<float>();
  const auto n = r.read<std::uint64_t>();
  ES_CHECK(n == momentum_.size(), "optimizer state count mismatch");
  for (auto& m : momentum_) m = tensor::Tensor::load(r);
}

void StepLR::set_epoch(std::int64_t epoch) {
  last_epoch_ = epoch;
  const auto decays = epoch / step_size_;
  opt_->set_lr(base_lr_ *
               std::pow(gamma_, static_cast<float>(decays)));
}

void StepLR::save(ByteWriter& w) const {
  w.write(base_lr_);
  w.write(step_size_);
  w.write(gamma_);
  w.write(last_epoch_);
}

void StepLR::load(ByteReader& r) {
  base_lr_ = r.read<float>();
  step_size_ = r.read<std::int64_t>();
  gamma_ = r.read<float>();
  last_epoch_ = r.read<std::int64_t>();
  set_epoch(last_epoch_);
}

}  // namespace easyscale::optim
