#include "tensor/shape.hpp"

#include <sstream>

namespace easyscale::tensor {

std::string Shape::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) out << ", ";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

Shape Shape::load(ByteReader& r) {
  const auto rank = r.read<std::uint64_t>();
  check_rank(rank);
  std::array<std::int64_t, kMaxRank> dims{};
  for (std::size_t i = 0; i < rank; ++i) dims[i] = r.read<std::int64_t>();
  return Shape(std::span<const std::int64_t>(dims.data(), rank));
}

}  // namespace easyscale::tensor
