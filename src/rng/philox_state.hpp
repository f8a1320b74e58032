// The serializable state of the Philox4x32-10 generator (rng/philox.hpp).
//
// Kept apart from the generator so that the SIMD backends' Dropout body,
// which advances a state in place, includes no serialization code: with
// the generator's header (and so the byte streams) included, GCC inlined
// the AVX-512 GEMM row bodies differently from the code without it.
#pragma once

#include <array>
#include <cstdint>

namespace easyscale {
class ByteWriter;
class ByteReader;
}  // namespace easyscale

namespace easyscale::rng {

/// Serializable Philox state.  `buffer` caches the most recent 4-word block
/// so single-value draws do not waste generated words; `buffer_pos == 4`
/// means the buffer is empty.
struct PhiloxState {
  std::uint64_t key = 0;
  std::uint64_t counter = 0;
  std::array<std::uint32_t, 4> buffer = {0, 0, 0, 0};
  std::uint32_t buffer_pos = 4;
  /// Spare normal value for Box-Muller pairs (valid when has_spare_normal).
  double spare_normal = 0.0;
  std::uint32_t has_spare_normal = 0;

  void save(ByteWriter& w) const;
  static PhiloxState load(ByteReader& r);

  friend bool operator==(const PhiloxState&, const PhiloxState&) = default;
};

}  // namespace easyscale::rng
