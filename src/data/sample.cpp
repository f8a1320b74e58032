#include "data/sample.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace easyscale::data {

Batch start_batch(const Sample& first, std::int64_t n) {
  Batch b;
  b.size = n;
  if (first.x.defined()) {
    // [n, sample dims...]; one spare slot lets Shape name an oversize rank.
    const auto sample_dims = first.x.shape().dims();
    std::array<std::int64_t, tensor::Shape::kMaxRank + 1> dims{};
    dims[0] = n;
    std::copy(sample_dims.begin(), sample_dims.end(), dims.begin() + 1);
    b.x = tensor::Tensor(tensor::Shape(
        std::span<const std::int64_t>(dims.data(), sample_dims.size() + 1)));
  }
  if (!first.ids.empty()) {
    b.ids = tensor::LongTensor(
        tensor::Shape{n, static_cast<std::int64_t>(first.ids.size())});
  }
  b.y = tensor::LongTensor(tensor::Shape{n});
  if (!first.target.empty()) {
    b.target = tensor::Tensor(
        tensor::Shape{n, static_cast<std::int64_t>(first.target.size())});
  }
  return b;
}

void put_row(Batch& b, std::int64_t i, const Sample& s) {
  if (b.x.defined()) {
    const std::int64_t per = b.x.numel() / b.size;
    ES_CHECK(s.x.numel() == per, "ragged sample features");
    const auto src = s.x.data();
    std::copy(src.begin(), src.end(), b.x.raw() + i * per);
  }
  if (b.ids.shape().rank() > 0) {
    const std::int64_t k = b.ids.shape().dim(1);
    ES_CHECK(static_cast<std::int64_t>(s.ids.size()) == k, "ragged ids");
    std::copy(s.ids.begin(), s.ids.end(), b.ids.data().data() + i * k);
  }
  b.y.at(i) = s.label;
  if (b.target.defined()) {
    const std::int64_t m = b.target.shape().dim(1);
    ES_CHECK(static_cast<std::int64_t>(s.target.size()) == m,
             "ragged targets");
    std::copy(s.target.begin(), s.target.end(), b.target.raw() + i * m);
  }
}

Batch collate(const std::vector<Sample>& samples) {
  ES_CHECK(!samples.empty(), "collate of empty sample list");
  const std::int64_t n = static_cast<std::int64_t>(samples.size());
  Batch b = start_batch(samples[0], n);
  for (std::int64_t i = 0; i < n; ++i) {
    put_row(b, i, samples[static_cast<std::size_t>(i)]);
  }
  return b;
}

}  // namespace easyscale::data
