#include "optim/adam.hpp"

#include <cmath>

#include "kernels/simd.hpp"

namespace easyscale::optim {

Adam::Adam(autograd::ParameterStore& params, Options opts)
    : params_(&params), opts_(opts) {
  m_.reserve(params.size());
  v_.reserve(params.size());
  for (const auto* p : params.all()) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() { step_slices(full_slices(*params_)); }

void Adam::step_slices(const std::vector<ParamSlice>& slices) {
  ++step_count_;
  const kernels::AdamArgs args{
      .beta1 = opts_.beta1,
      .beta2 = opts_.beta2,
      .lr = opts_.lr,
      .eps = opts_.eps,
      .weight_decay = opts_.weight_decay,
      .bc1 = 1.0f - std::pow(opts_.beta1, static_cast<float>(step_count_)),
      .bc2 = 1.0f - std::pow(opts_.beta2, static_cast<float>(step_count_))};
  // Elementwise over distinct elements, so the vector body replays the
  // scalar expression per lane (sqrt and divide are IEEE-exact).  No
  // ExecContext reaches the optimizer, so it follows the process-wide
  // backend (EASYSCALE_SIMD, else detection).
  const kernels::SimdOps& ops = kernels::simd_ops(kernels::SimdBackend::kAuto);
  const auto& all = params_->all();
  for (const ParamSlice& s : slices) {
    ES_CHECK(s.param < all.size(), "Adam slice param out of range");
    autograd::Parameter& p = *all[s.param];
    ES_CHECK(s.begin >= 0 && s.end <= p.numel() && s.begin <= s.end,
             "Adam slice bounds out of range");
    const float* grad = p.grad.raw() + s.begin;
    float* m = m_[s.param].raw() + s.begin;
    float* v = v_[s.param].raw() + s.begin;
    float* value = p.value.raw() + s.begin;
    const std::int64_t n = s.end - s.begin;
    if (ops.adam_update != nullptr) {
      ops.adam_update(args, grad, m, v, value, n);
      continue;
    }
    for (std::int64_t j = 0; j < n; ++j) {
      const float g = grad[j];
      m[j] = args.beta1 * m[j] + (1.0f - args.beta1) * g;
      v[j] = args.beta2 * v[j] + (1.0f - args.beta2) * g * g;
      const float mhat = m[j] / args.bc1;
      const float vhat = v[j] / args.bc2;
      float update = args.lr * mhat / (std::sqrt(vhat) + args.eps);
      if (args.weight_decay != 0.0f) {
        update += args.lr * args.weight_decay * value[j];
      }
      value[j] -= update;
    }
  }
}

std::vector<tensor::Tensor*> Adam::state_tensors() {
  std::vector<tensor::Tensor*> out;
  out.reserve(m_.size() + v_.size());
  for (auto& t : m_) out.push_back(&t);
  for (auto& t : v_) out.push_back(&t);
  return out;
}

void Adam::save(ByteWriter& w) const {
  w.write(opts_.lr);
  w.write(opts_.beta1);
  w.write(opts_.beta2);
  w.write(opts_.eps);
  w.write(opts_.weight_decay);
  w.write(step_count_);
  w.write<std::uint64_t>(m_.size());
  for (const auto& t : m_) t.save(w);
  for (const auto& t : v_) t.save(w);
}

void Adam::load(ByteReader& r) {
  opts_.lr = r.read<float>();
  opts_.beta1 = r.read<float>();
  opts_.beta2 = r.read<float>();
  opts_.eps = r.read<float>();
  opts_.weight_decay = r.read<float>();
  step_count_ = r.read<std::int64_t>();
  const auto n = r.read<std::uint64_t>();
  ES_CHECK(n == m_.size(), "Adam state count mismatch");
  for (auto& t : m_) t = tensor::Tensor::load(r);
  for (auto& t : v_) t = tensor::Tensor::load(r);
}

}  // namespace easyscale::optim
