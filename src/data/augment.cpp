#include "data/augment.hpp"

#include <utility>

namespace easyscale::data {

namespace {

/// Pad by cfg.crop_pad with zeros, then crop back to the original size at
/// (dy, dx); flip horizontally when `flip`.  Writes every element of
/// `spare`, then swaps it with the sample's features.
void crop_flip(const AugmentConfig& cfg, Sample& s, std::int64_t dy,
               std::int64_t dx, bool flip, tensor::Tensor& spare) {
  const tensor::Shape& shape = s.x.shape();
  const std::int64_t c = shape.dim(0), h = shape.dim(1), w = shape.dim(2);
  if (spare.shape() != shape) spare = tensor::Tensor(shape);
  const float* in = s.x.raw();
  float* out = spare.raw();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y = 0; y < h; ++y) {
      const std::int64_t sy = y + dy - cfg.crop_pad;
      for (std::int64_t x = 0; x < w; ++x) {
        const std::int64_t fx = flip ? (w - 1 - x) : x;
        const std::int64_t sx = fx + dx - cfg.crop_pad;
        float v = 0.0f;
        if (sy >= 0 && sy < h && sx >= 0 && sx < w) {
          v = in[(ch * h + sy) * w + sx];
        }
        out[(ch * h + y) * w + x] = v;
      }
    }
  }
  std::swap(s.x, spare);
}

}  // namespace

void augment_image(const AugmentConfig& cfg, rng::StreamSet& streams,
                   Sample& sample, tensor::Tensor& spare) {
  if (!cfg.enabled || !sample.x.defined() || sample.x.shape().rank() != 3) {
    return;
  }
  auto& py = streams.stream(rng::StreamKind::kPython);
  auto& np = streams.stream(rng::StreamKind::kNumpy);
  const bool flip = (py.next_u32() & 1u) != 0;
  const auto range = static_cast<std::uint32_t>(2 * cfg.crop_pad + 1);
  const std::int64_t dy = static_cast<std::int64_t>(np.next_u32() % range);
  const std::int64_t dx = static_cast<std::int64_t>(np.next_u32() % range);
  crop_flip(cfg, sample, dy, dx, flip, spare);
}

void advance_augment_streams(const AugmentConfig& cfg, rng::StreamSet& streams,
                             std::int64_t num_samples) {
  if (!cfg.enabled) return;
  auto& py = streams.stream(rng::StreamKind::kPython);
  auto& np = streams.stream(rng::StreamKind::kNumpy);
  for (std::int64_t i = 0; i < num_samples; ++i) {
    for (std::int64_t d = 0; d < kPythonDrawsPerSample; ++d) py.next_u32();
    for (std::int64_t d = 0; d < kNumpyDrawsPerSample; ++d) np.next_u32();
  }
}

}  // namespace easyscale::data
