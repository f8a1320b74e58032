// Dense row-major shapes.  All tensors in the engine are contiguous; views
// are avoided on purpose: a single canonical memory layout removes a whole
// class of accidental FP-order differences.
//
// The dims live inline (a fixed-capacity array plus a rank), so building a
// tensor costs one heap allocation, for its data, and none for its shape.
// The engine's largest rank is 4 (NCHW); a larger rank is an error.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace easyscale::tensor {

class Shape {
 public:
  static constexpr std::size_t kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    assign(std::span<const std::int64_t>(dims.begin(), dims.size()));
  }
  explicit Shape(std::span<const std::int64_t> dims) { assign(dims); }

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::int64_t dim(std::size_t i) const {
    ES_CHECK(i < rank_, "dim index " << i << " out of rank " << rank());
    return dims_[i];
  }
  [[nodiscard]] std::span<const std::int64_t> dims() const {
    return std::span<const std::int64_t>(dims_.data(), rank_);
  }

  /// Total number of elements.
  [[nodiscard]] std::int64_t numel() const {
    std::int64_t n = 1;
    for (auto d : dims()) n *= d;
    return n;
  }

  [[nodiscard]] std::string to_string() const;

  /// u64 rank, then the dims: the bytes ByteWriter::write_vector writes.
  void save(ByteWriter& w) const { w.write_span(dims()); }
  /// Reads what save() wrote; the rank is checked before any dim is read.
  static Shape load(ByteReader& r);

  // Unused trailing dims stay zero, so member-wise equality is shape
  // equality.
  friend bool operator==(const Shape&, const Shape&) = default;

 private:
  static void check_rank(std::uint64_t rank) {
    ES_CHECK(rank <= kMaxRank, "shape rank " << rank
                                             << " exceeds the maximum rank "
                                             << kMaxRank);
  }

  void assign(std::span<const std::int64_t> dims) {
    check_rank(dims.size());
    // Also prove the element count fits in int64 so numel() can never
    // overflow — shapes arrive from untrusted checkpoint bytes.
    std::int64_t n = 1;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const std::int64_t d = dims[i];
      ES_CHECK(d >= 0, "negative dimension in shape");
      if (d == 0) {
        n = 0;
      } else {
        ES_CHECK(n <= std::numeric_limits<std::int64_t>::max() / d,
                 "shape element count overflows int64");
        n *= d;
      }
      dims_[i] = d;
    }
    rank_ = dims.size();
  }

  std::array<std::int64_t, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

}  // namespace easyscale::tensor
