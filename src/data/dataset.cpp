#include "data/dataset.hpp"

#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::data {

namespace {

/// Per-index generator: counter-based so get(index) is O(1) and stateless.
rng::Philox index_gen(std::uint64_t seed, std::int64_t index) {
  return rng::Philox(
      rng::derive_stream_key(seed, static_cast<std::uint64_t>(index), 17));
}

/// Give `x` the shape `shape`, keeping its buffer when the shape already
/// matches.  The contents are then stale: every caller overwrites them.
void shape_features(tensor::Tensor& x, const tensor::Shape& shape) {
  if (x.shape() != shape) x = tensor::Tensor(shape);
}

}  // namespace

SyntheticImageDataset::SyntheticImageDataset(std::int64_t n,
                                             std::int64_t num_classes,
                                             std::int64_t channels,
                                             std::int64_t height,
                                             std::int64_t width,
                                             std::uint64_t seed,
                                             std::uint64_t sample_salt)
    : n_(n),
      num_classes_(num_classes),
      channels_(channels),
      height_(height),
      width_(width),
      seed_(seed),
      sample_salt_(sample_salt),
      prototypes_(tensor::Shape{num_classes, channels, height, width}) {
  rng::Philox gen(rng::derive_stream_key(seed, 0, 23));
  rng::fill_normal(gen, prototypes_.data(), 0.0f, 1.0f);
}

void SyntheticImageDataset::fill(std::int64_t index, Sample& s) const {
  ES_CHECK(index >= 0 && index < n_, "image index out of range");
  s.label = index % num_classes_;
  shape_features(s.x, tensor::Shape{channels_, height_, width_});
  s.ids.clear();
  s.target.clear();
  rng::Philox gen =
      index_gen(seed_ + 0x5A17ull * sample_salt_, index);
  rng::fill_normal(gen, s.x.data(), 0.0f, 0.8f);
  const std::int64_t numel = s.x.numel();
  const float* proto = prototypes_.raw() + s.label * numel;
  float* x = s.x.raw();
  for (std::int64_t i = 0; i < numel; ++i) x[i] += proto[i];
}

SyntheticDetectionDataset::SyntheticDetectionDataset(std::int64_t n,
                                                     std::int64_t height,
                                                     std::int64_t width,
                                                     std::uint64_t seed)
    : n_(n), height_(height), width_(width), seed_(seed) {}

void SyntheticDetectionDataset::fill(std::int64_t index, Sample& s) const {
  ES_CHECK(index >= 0 && index < n_, "detection index out of range");
  rng::Philox gen = index_gen(seed_, index);
  shape_features(s.x, tensor::Shape{3, height_, width_});
  s.ids.clear();
  rng::fill_normal(gen, s.x.data(), 0.0f, 0.3f);
  // Object: a bright square of side `ext` at (cy, cx).
  const std::int64_t ext = 2 + static_cast<std::int64_t>(gen.next_below(3));
  const std::int64_t cy =
      static_cast<std::int64_t>(gen.next_below(
          static_cast<std::uint64_t>(height_ - ext)));
  const std::int64_t cx = static_cast<std::int64_t>(
      gen.next_below(static_cast<std::uint64_t>(width_ - ext)));
  for (std::int64_t c = 0; c < 3; ++c) {
    for (std::int64_t y = cy; y < cy + ext; ++y) {
      for (std::int64_t x = cx; x < cx + ext; ++x) {
        s.x.at((c * height_ + y) * width_ + x) += 2.5f;
      }
    }
  }
  s.label = 0;
  s.target.assign(
      {static_cast<float>(cx + ext / 2) / static_cast<float>(width_),
       static_cast<float>(cy + ext / 2) / static_cast<float>(height_),
       static_cast<float>(ext) / static_cast<float>(width_), 1.0f});
}

SyntheticRecDataset::SyntheticRecDataset(std::int64_t n, std::int64_t num_users,
                                         std::int64_t num_items,
                                         std::uint64_t seed)
    : n_(n), num_users_(num_users), num_items_(num_items), seed_(seed) {}

void SyntheticRecDataset::fill(std::int64_t index, Sample& s) const {
  ES_CHECK(index >= 0 && index < n_, "rec index out of range");
  rng::Philox gen = index_gen(seed_, index);
  const auto user = static_cast<std::int64_t>(
      gen.next_below(static_cast<std::uint64_t>(num_users_)));
  // Positive pairs follow a latent block structure (user mod 8 likes items
  // mod 8); negatives are uniform — learnable signal for NeuMF.
  const bool positive = (index % 2) == 0;
  std::int64_t item;
  if (positive) {
    const std::int64_t block = user % 8;
    item = block + 8 * static_cast<std::int64_t>(gen.next_below(
                           static_cast<std::uint64_t>(num_items_ / 8)));
  } else {
    item = static_cast<std::int64_t>(
        gen.next_below(static_cast<std::uint64_t>(num_items_)));
  }
  s.x = tensor::Tensor();
  s.ids.assign({user, item});
  s.label = positive ? 1 : 0;
  s.target.assign(1, positive ? 1.0f : 0.0f);
}

SyntheticQADataset::SyntheticQADataset(std::int64_t n, std::int64_t vocab,
                                       std::int64_t seq_len, std::uint64_t seed)
    : n_(n), vocab_(vocab), seq_len_(seq_len), seed_(seed) {}

void SyntheticQADataset::fill(std::int64_t index, Sample& s) const {
  ES_CHECK(index >= 0 && index < n_, "qa index out of range");
  rng::Philox gen = index_gen(seed_, index);
  s.x = tensor::Tensor();
  s.target.clear();
  s.ids.resize(static_cast<std::size_t>(seq_len_));
  rng::fill_randint(gen, s.ids, vocab_ - 1);
  // Answer span: position of a sentinel token (vocab-1) we plant.
  const auto start = static_cast<std::int64_t>(
      gen.next_below(static_cast<std::uint64_t>(seq_len_)));
  s.ids[static_cast<std::size_t>(start)] = vocab_ - 1;
  s.label = start;
}

}  // namespace easyscale::data
