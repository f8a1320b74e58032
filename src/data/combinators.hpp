// Dataset combinators: contiguous subsets and concatenation.  Used to carve
// train/validation splits out of one synthetic dataset and to mix datasets
// in examples; both preserve the pure-function-of-index property that the
// determinism machinery relies on.
#pragma once

#include <memory>
#include <vector>

#include "data/dataset.hpp"

namespace easyscale::data {

/// A contiguous [offset, offset+size) window into another dataset.
class SubsetDataset : public Dataset {
 public:
  SubsetDataset(const Dataset& base, std::int64_t offset, std::int64_t size);

  [[nodiscard]] std::int64_t size() const override { return size_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override {
    return base_->name() + "[subset]";
  }

 private:
  const Dataset* base_;
  std::int64_t offset_;
  std::int64_t size_;
};

/// Concatenation of datasets (indices run through them in order).
class ConcatDataset : public Dataset {
 public:
  explicit ConcatDataset(std::vector<const Dataset*> parts);

  [[nodiscard]] std::int64_t size() const override { return total_; }
  void fill(std::int64_t index, Sample& sample) const override;
  [[nodiscard]] std::string name() const override { return "concat"; }

 private:
  std::vector<const Dataset*> parts_;
  std::vector<std::int64_t> offsets_;  // cumulative start of each part
  std::int64_t total_ = 0;
};

}  // namespace easyscale::data
