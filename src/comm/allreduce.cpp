#include "comm/allreduce.hpp"

#include "comm/ring.hpp"
#include "common/error.hpp"

namespace easyscale::comm {

GradientSet GradientSet::zeros_like(const autograd::ParameterStore& params) {
  GradientSet set;
  set.grads.reserve(params.size());
  for (const auto* p : params.all()) {
    set.grads.emplace_back(p->grad.shape());
  }
  return set;
}

GradientSet GradientSet::from_store(const autograd::ParameterStore& params) {
  GradientSet set;
  set.grads.reserve(params.size());
  for (const auto* p : params.all()) set.grads.push_back(p->grad);
  return set;
}

void GradientSet::to_store(autograd::ParameterStore& params) const {
  ES_CHECK(grads.size() == params.size(), "gradient set size mismatch");
  for (std::size_t i = 0; i < grads.size(); ++i) {
    params.all()[i]->grad = grads[i];
  }
}

void GradientSet::zero() {
  for (auto& g : grads) g.zero();
}

void GradientSet::save(ByteWriter& w) const {
  w.write<std::uint64_t>(grads.size());
  for (const auto& g : grads) g.save(w);
}

GradientSet GradientSet::load(ByteReader& r) {
  GradientSet set;
  const auto n = r.read<std::uint64_t>();
  set.grads.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    set.grads.push_back(tensor::Tensor::load(r));
  }
  return set;
}

std::int64_t gradient_bytes(const GradientSet& set) {
  std::int64_t bytes = 0;
  for (const auto& g : set.grads) {
    bytes += g.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  return bytes;
}

void validate_allreduce_inputs(const BucketLayout& layout,
                               const std::vector<GradientSet*>& parts) {
  ES_CHECK(!parts.empty(), "allreduce over zero participants");
  for (std::size_t r = 0; r < parts.size(); ++r) {
    ES_CHECK(parts[r] != nullptr, "allreduce part " << r << " is null");
    ES_CHECK(parts[r]->grads.size() == parts[0]->grads.size(),
             "allreduce part " << r << " has " << parts[r]->grads.size()
                               << " gradients, part 0 has "
                               << parts[0]->grads.size());
  }
  const auto num_grads = static_cast<std::int64_t>(parts[0]->grads.size());
  std::vector<bool> seen(parts[0]->grads.size(), false);
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    for (int id : layout.buckets[b]) {
      ES_CHECK(id >= 0 && id < num_grads,
               "bucket " << b << " references gradient " << id
                         << " outside [0, " << num_grads << ")");
      ES_CHECK(!seen[static_cast<std::size_t>(id)],
               "gradient " << id << " appears in two buckets");
      seen[static_cast<std::size_t>(id)] = true;
      for (std::size_t r = 1; r < parts.size(); ++r) {
        ES_CHECK(parts[r]->grads[static_cast<std::size_t>(id)].numel() ==
                     parts[0]->grads[static_cast<std::size_t>(id)].numel(),
                 "gradient " << id << " shape disagrees between part 0 and "
                             << "part " << r
                             << " (bucket layout cannot apply)");
      }
    }
  }
}

std::int64_t bucket_numel(const BucketLayout& layout, std::size_t b,
                          const GradientSet& part) {
  std::int64_t n = 0;
  for (int id : layout.buckets[b]) {
    n += part.grads[static_cast<std::size_t>(id)].numel();
  }
  return n;
}

std::vector<float> bucket_average(const BucketLayout& layout, std::size_t b,
                                  const std::vector<GradientSet*>& parts) {
  ES_CHECK(b < layout.buckets.size(), "bucket index out of range");
  const auto& bucket = layout.buckets[b];
  const float inv_world = 1.0f / static_cast<float>(parts.size());
  const std::int64_t flat_len = bucket_numel(layout, b, *parts[0]);
  // Flatten every participant's bucket (pure data movement).
  std::vector<std::vector<float>> flats(parts.size());
  for (std::size_t r = 0; r < parts.size(); ++r) {
    flats[r].resize(static_cast<std::size_t>(flat_len));
    std::int64_t off = 0;
    for (int id : bucket) {
      const auto& g = parts[r]->grads[static_cast<std::size_t>(id)];
      std::copy(g.data().begin(), g.data().end(), flats[r].begin() + off);
      off += g.numel();
    }
  }
  std::vector<std::span<const float>> views;
  views.reserve(parts.size());
  for (const auto& f : flats) views.emplace_back(f);
  std::vector<float> reduced(static_cast<std::size_t>(flat_len));
  ring_allreduce_sum(views, reduced);
  for (auto& v : reduced) v *= inv_world;
  return reduced;
}

void allreduce_average_bucket(const BucketLayout& layout, std::size_t b,
                              const std::vector<GradientSet*>& parts) {
  const std::vector<float> reduced = bucket_average(layout, b, parts);
  // Scatter the averaged bucket back into every participant.
  for (auto* part : parts) {
    std::int64_t off = 0;
    for (int id : layout.buckets[b]) {
      auto& g = part->grads[static_cast<std::size_t>(id)];
      std::copy(reduced.begin() + off, reduced.begin() + off + g.numel(),
                g.data().begin());
      off += g.numel();
    }
  }
}

void allreduce_average(const BucketLayout& layout,
                       std::vector<GradientSet*>& parts) {
  validate_allreduce_inputs(layout, parts);
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    allreduce_average_bucket(layout, b, parts);
  }
}

}  // namespace easyscale::comm
