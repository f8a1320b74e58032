// Sample / Batch containers shared by all workloads.
//
// A Batch is deliberately generic: image models use `x` + `label`; the
// recommendation model uses `ids` (user, item interleaved) + `target`;
// QA models use `ids` (token sequences) + `label` (answer span start);
// the detection model uses `x` + `target` (per-cell regression targets).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace easyscale::data {

struct Sample {
  tensor::Tensor x;                  // float features (may be undefined)
  std::vector<std::int64_t> ids;     // integer features (may be empty)
  std::int64_t label = 0;            // class / span-start label
  std::vector<float> target;         // float regression / BCE targets
};

struct Batch {
  tensor::Tensor x;        // [N, ...]
  tensor::LongTensor ids;  // [N, K]
  tensor::LongTensor y;    // [N]
  tensor::Tensor target;   // [N, M]
  std::int64_t size = 0;

  void save(ByteWriter& w) const {
    x.save(w);
    ids.save(w);
    y.save(w);
    target.save(w);
    w.write(size);
  }
  static Batch load(ByteReader& r) {
    Batch b;
    b.x = tensor::Tensor::load(r);
    b.ids = tensor::LongTensor::load(r);
    b.y = tensor::LongTensor::load(r);
    b.target = tensor::Tensor::load(r);
    b.size = r.read<std::int64_t>();
    return b;
  }
};

/// An n-row batch shaped like `first`, rows unfilled: a field `first`
/// leaves empty stays undefined in the batch.
[[nodiscard]] Batch start_batch(const Sample& first, std::int64_t n);

/// Copy `s` into row `i` of a batch sized by start_batch; throws when `s`
/// is shaped unlike the first sample.
void put_row(Batch& b, std::int64_t i, const Sample& s);

/// Stack samples into a batch (row-major concatenation; order preserved).
[[nodiscard]] Batch collate(const std::vector<Sample>& samples);

}  // namespace easyscale::data
