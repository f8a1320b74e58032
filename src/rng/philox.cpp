#include "rng/philox.hpp"

#include <cmath>

#include "rng/philox_round.hpp"

namespace easyscale::rng {

void PhiloxState::save(ByteWriter& w) const {
  w.write(key);
  w.write(counter);
  for (auto v : buffer) w.write(v);
  w.write(buffer_pos);
  w.write(spare_normal);
  w.write(has_spare_normal);
}

PhiloxState PhiloxState::load(ByteReader& r) {
  PhiloxState s;
  s.key = r.read<std::uint64_t>();
  s.counter = r.read<std::uint64_t>();
  for (auto& v : s.buffer) v = r.read<std::uint32_t>();
  s.buffer_pos = r.read<std::uint32_t>();
  s.spare_normal = r.read<double>();
  s.has_spare_normal = r.read<std::uint32_t>();
  return s;
}

void Philox::reseed(std::uint64_t seed) {
  state_ = PhiloxState{};
  state_.key = seed;
}

void Philox::refill() {
  std::uint32_t ctr[1][4] = {{static_cast<std::uint32_t>(state_.counter),
                              static_cast<std::uint32_t>(state_.counter >> 32),
                              0, 0}};
  philox_blocks<ScalarPhiloxOps, 1>(
      ctr, static_cast<std::uint32_t>(state_.key),
      static_cast<std::uint32_t>(state_.key >> 32));
  state_.buffer = {ctr[0][0], ctr[0][1], ctr[0][2], ctr[0][3]};
  state_.buffer_pos = 0;
  ++state_.counter;
}

std::uint32_t Philox::next_u32() {
  if (state_.buffer_pos >= 4) refill();
  return state_.buffer[state_.buffer_pos++];
}

std::uint64_t Philox::next_u64() {
  const std::uint64_t lo = next_u32();
  const std::uint64_t hi = next_u32();
  return (hi << 32) | lo;
}

double Philox::next_double() {
  // 53-bit mantissa from one 64-bit draw.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Philox::next_float() { return philox_unit_float(next_u32()); }

void Philox::fill_floats(float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (state_.buffer_pos >= 4) refill();
    out[i] = philox_unit_float(state_.buffer[state_.buffer_pos++]);
  }
}

std::uint64_t Philox::next_below(std::uint64_t bound) {
  ES_CHECK(bound > 0, "next_below bound must be positive");
  // Rejection sampling for an unbiased draw; deterministic given the stream.
  // A draw is kept iff its whole block of `bound` values [v - r, v - r +
  // bound) fits below UINT64_MAX: exactly the draws below
  // UINT64_MAX - UINT64_MAX % bound, with one modulo per draw.
  for (;;) {
    const std::uint64_t v = next_u64();
    const std::uint64_t r = v % bound;
    if (next_below_accepts(v, r, bound)) return r;
  }
}

double Philox::next_normal() {
  if (state_.has_spare_normal) {
    state_.has_spare_normal = 0;
    return state_.spare_normal;
  }
  // Box-Muller: draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  state_.spare_normal = radius * std::sin(theta);
  state_.has_spare_normal = 1;
  return radius * std::cos(theta);
}

}  // namespace easyscale::rng
