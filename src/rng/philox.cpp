#include "rng/philox.hpp"

#include <cmath>

namespace easyscale::rng {

namespace {

constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;

inline void philox_round(std::array<std::uint32_t, 4>& ctr, std::uint32_t k0,
                         std::uint32_t k1) {
  const std::uint64_t p0 = static_cast<std::uint64_t>(kPhiloxM0) * ctr[0];
  const std::uint64_t p1 = static_cast<std::uint64_t>(kPhiloxM1) * ctr[2];
  const std::uint32_t hi0 = static_cast<std::uint32_t>(p0 >> 32);
  const std::uint32_t lo0 = static_cast<std::uint32_t>(p0);
  const std::uint32_t hi1 = static_cast<std::uint32_t>(p1 >> 32);
  const std::uint32_t lo1 = static_cast<std::uint32_t>(p1);
  ctr = {hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0};
}

/// 24 high bits of one word -> uniform float in [0, 1).
inline float unit_float(std::uint32_t word) {
  return static_cast<float>(word >> 8) * 0x1.0p-24f;
}

}  // namespace

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
  std::array<std::uint32_t, 4> ctr = {
      static_cast<std::uint32_t>(state_.counter),
      static_cast<std::uint32_t>(state_.counter >> 32), 0, 0};
  std::uint32_t k0 = static_cast<std::uint32_t>(state_.key);
  std::uint32_t k1 = static_cast<std::uint32_t>(state_.key >> 32);
  for (int round = 0; round < 10; ++round) {
    philox_round(ctr, k0, k1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  state_.buffer = ctr;
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

float Philox::next_float() { return unit_float(next_u32()); }

void Philox::fill_floats(float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (state_.buffer_pos >= 4) refill();
    out[i] = unit_float(state_.buffer[state_.buffer_pos++]);
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
