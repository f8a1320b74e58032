// Image augmentation with *fixed draw counts*.
//
// Each sample consumes exactly one python-stream word (horizontal flip) and
// two numpy-stream words (crop offsets).  The fixed count is what lets the
// data-loading producer advance an EST's data-RNG stream past a batch it
// has enqueued but that a shared data worker has not processed yet — the
// mechanism behind the Fig-7 queuing buffer.
#pragma once

#include "data/sample.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::data {

struct AugmentConfig {
  bool enabled = true;
  std::int64_t crop_pad = 1;  // random crop after padding by this many pixels
};

/// Words drawn from each stream per augmented sample.
constexpr std::int64_t kPythonDrawsPerSample = 1;
constexpr std::int64_t kNumpyDrawsPerSample = 2;

/// Augment one image sample in place, drawing from `streams`.  The crop
/// writes into `spare` and swaps it with the sample's features, so one
/// spare passed for every sample of a batch keeps every buffer in use.
void augment_image(const AugmentConfig& cfg, rng::StreamSet& streams,
                   Sample& sample, tensor::Tensor& spare);

/// Advance `streams` exactly as augmenting `num_samples` samples would.
void advance_augment_streams(const AugmentConfig& cfg, rng::StreamSet& streams,
                             std::int64_t num_samples);

}  // namespace easyscale::data
