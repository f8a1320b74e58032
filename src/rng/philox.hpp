// Philox4x32-10 counter-based random number generator.
//
// Counter-based RNGs are the standard choice for reproducible parallel
// training (cuRAND and PyTorch's CUDA generators use Philox).  The state is
// tiny (key + counter + a small output buffer) which is exactly why the
// paper's EST contexts stay small: recording an RNG state costs a few
// dozen bytes rather than re-recording consumed randomness.
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "rng/philox_state.hpp"

namespace easyscale::rng {

/// The generator itself.  Deterministic across platforms: only integer
/// arithmetic and IEEE-754 double→float conversions.
class Philox {
 public:
  Philox() = default;
  explicit Philox(std::uint64_t seed) { reseed(seed); }

  /// Reset to the beginning of the stream identified by `seed`.
  void reseed(std::uint64_t seed);

  /// Next raw 32-bit word.
  std::uint32_t next_u32();

  /// Next raw 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform float in [0, 1).
  float next_float();

  /// out[0..n) = n successive next_float() draws, leaving the same state
  /// those n calls would.
  void fill_floats(float* out, std::int64_t n);

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t next_below(std::uint64_t bound);

  /// next_below's rejection test for a draw v with r = v % bound.
  static constexpr bool next_below_accepts(std::uint64_t v, std::uint64_t r,
                                           std::uint64_t bound) {
    return v - r <= ~std::uint64_t{0} - bound;
  }

  /// Standard normal via Box-Muller (deterministic pairing).
  double next_normal();

  [[nodiscard]] const PhiloxState& state() const { return state_; }
  void set_state(const PhiloxState& s) { state_ = s; }

 private:
  void refill();

  PhiloxState state_;
};

}  // namespace easyscale::rng
