// Synthetic datasets standing in for the paper's open datasets (Table 1).
//
// Every dataset is a pure function of (seed, index): the raw sample for a
// given index is always the same bits, on any machine, with no files on
// disk.  Randomized *augmentation* is applied later by the data workers
// from checkpointable RNG streams — mirroring the real split between
// dataset and transform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/sample.hpp"
#include "rng/philox.hpp"

namespace easyscale::data {

class Dataset {
 public:
  virtual ~Dataset() = default;
  [[nodiscard]] virtual std::int64_t size() const = 0;
  /// Overwrite every field of `sample` with sample `index`, reusing the
  /// sample's buffers: whatever `sample` held before, it ends up equal to
  /// get(index).
  virtual void fill(std::int64_t index, Sample& sample) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Sample `index` in fresh buffers.
  [[nodiscard]] Sample get(std::int64_t index) const {
    Sample s;
    fill(index, s);
    return s;
  }
};

/// CIFAR-like classification images: per-class Gaussian prototypes plus
/// per-sample noise.  Class separation is tuned so small models actually
/// learn (accuracy curves in Figs 2-4 need signal, not pure noise).
class SyntheticImageDataset : public Dataset {
 public:
  /// `sample_salt` varies the per-sample noise stream while keeping the
  /// class prototypes fixed — train/test splits share prototypes (so the
  /// task is learnable) but never share samples.
  SyntheticImageDataset(std::int64_t n, std::int64_t num_classes,
                        std::int64_t channels, std::int64_t height,
                        std::int64_t width, std::uint64_t seed,
                        std::uint64_t sample_salt = 0);

  [[nodiscard]] std::int64_t size() const override { return n_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override { return "synthetic-cifar"; }
  [[nodiscard]] std::int64_t num_classes() const { return num_classes_; }
  [[nodiscard]] std::int64_t channels() const { return channels_; }
  [[nodiscard]] std::int64_t height() const { return height_; }
  [[nodiscard]] std::int64_t width() const { return width_; }

 private:
  std::int64_t n_, num_classes_, channels_, height_, width_;
  std::uint64_t seed_;
  std::uint64_t sample_salt_;
  tensor::Tensor prototypes_;  // [num_classes, C, H, W]
};

/// Detection dataset (PASCAL stand-in): one bright object per image; the
/// target is (cx, cy, extent, class) for a YOLO-style single-cell head.
class SyntheticDetectionDataset : public Dataset {
 public:
  SyntheticDetectionDataset(std::int64_t n, std::int64_t height,
                            std::int64_t width, std::uint64_t seed);
  [[nodiscard]] std::int64_t size() const override { return n_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override { return "synthetic-voc"; }

 private:
  std::int64_t n_, height_, width_;
  std::uint64_t seed_;
};

/// Implicit-feedback interactions (MovieLens stand-in) for NeuMF: ids are
/// (user, item); label 1 for observed pairs, 0 for sampled negatives.
class SyntheticRecDataset : public Dataset {
 public:
  SyntheticRecDataset(std::int64_t n, std::int64_t num_users,
                      std::int64_t num_items, std::uint64_t seed);
  [[nodiscard]] std::int64_t size() const override { return n_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override { return "synthetic-ml"; }
  [[nodiscard]] std::int64_t num_users() const { return num_users_; }
  [[nodiscard]] std::int64_t num_items() const { return num_items_; }

 private:
  std::int64_t n_, num_users_, num_items_;
  std::uint64_t seed_;
};

/// Token sequences with an answer span (SQuAD stand-in) for BERT/Electra:
/// ids are seq_len tokens; label is the span-start position.
class SyntheticQADataset : public Dataset {
 public:
  SyntheticQADataset(std::int64_t n, std::int64_t vocab, std::int64_t seq_len,
                     std::uint64_t seed);
  [[nodiscard]] std::int64_t size() const override { return n_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override { return "synthetic-squad"; }
  [[nodiscard]] std::int64_t vocab() const { return vocab_; }
  [[nodiscard]] std::int64_t seq_len() const { return seq_len_; }

 private:
  std::int64_t n_, vocab_, seq_len_;
  std::uint64_t seed_;
};

}  // namespace easyscale::data
