#include "data/combinators.hpp"

#include "common/error.hpp"

namespace easyscale::data {

SubsetDataset::SubsetDataset(const Dataset& base, std::int64_t offset,
                             std::int64_t size)
    : base_(&base), offset_(offset), size_(size) {
  ES_CHECK(offset >= 0 && size > 0 && offset + size <= base.size(),
           "subset [" << offset << ", " << offset + size
                      << ") out of range for dataset of size " << base.size());
}

void SubsetDataset::fill(std::int64_t index, Sample& sample) const {
  ES_CHECK(index >= 0 && index < size_, "subset index out of range");
  base_->fill(offset_ + index, sample);
}

ConcatDataset::ConcatDataset(std::vector<const Dataset*> parts)
    : parts_(std::move(parts)) {
  ES_CHECK(!parts_.empty(), "concat of zero datasets");
  for (const auto* p : parts_) {
    ES_CHECK(p != nullptr, "null dataset in concat");
    offsets_.push_back(total_);
    total_ += p->size();
  }
}

void ConcatDataset::fill(std::int64_t index, Sample& sample) const {
  ES_CHECK(index >= 0 && index < total_, "concat index out of range");
  // Find the owning part (few parts: linear scan).
  std::size_t part = parts_.size() - 1;
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    if (index < offsets_[i]) {
      part = i - 1;
      break;
    }
  }
  parts_[part]->fill(index - offsets_[part], sample);
}

}  // namespace easyscale::data
