// The Philox4x32-10 bijection, defined once over an abstract 32-bit word.
//
// Philox::refill instantiates it with plain uint32_t words (one block per
// call); the SIMD backends' dropout_mask body instantiates it with vector
// registers, each lane one block counter, and several independent batches
// interleaved round by round.  Every instantiation runs the same integer
// operations per lane, so a vector lane's block is bitwise the block
// refill() produces for that counter.
//
// Ops provides:
//   using Word;
//   splat(uint32_t) -> Word                 // the value in every lane
//   mulhilo(uint32_t m, Word x, Word& hi, Word& lo)  // 64-bit m * x halves
//   xor3(Word, Word, Word) -> Word
#pragma once

#include <cstdint>

namespace easyscale::rng {

inline constexpr std::uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr std::uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kPhiloxW0 = 0x9E3779B9u;
inline constexpr std::uint32_t kPhiloxW1 = 0xBB67AE85u;
inline constexpr int kPhiloxRounds = 10;

/// One round on the counter words ctr[0..3] under round key (k0, k1).
template <typename Ops>
inline void philox_round(typename Ops::Word (&ctr)[4],
                         typename Ops::Word k0, typename Ops::Word k1) {
  typename Ops::Word hi0, lo0, hi1, lo1;
  Ops::mulhilo(kPhiloxM0, ctr[0], hi0, lo0);
  Ops::mulhilo(kPhiloxM1, ctr[2], hi1, lo1);
  ctr[0] = Ops::xor3(hi1, ctr[1], k0);
  ctr[1] = lo1;
  ctr[2] = Ops::xor3(hi0, ctr[3], k1);
  ctr[3] = lo0;
}

/// All ten rounds of B independent counters under key (k0, k1), interleaved
/// round by round so the B multiply chains overlap.  ctr[b] enters as the
/// counter block and leaves as the output block.
template <typename Ops, int B>
inline void philox_blocks(typename Ops::Word (&ctr)[B][4], std::uint32_t k0,
                          std::uint32_t k1) {
  for (int round = 0; round < kPhiloxRounds; ++round) {
    const typename Ops::Word kw0 = Ops::splat(k0);
    const typename Ops::Word kw1 = Ops::splat(k1);
    for (int b = 0; b < B; ++b) philox_round<Ops>(ctr[b], kw0, kw1);
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
}

/// Scalar words: one block at a time (Philox::refill).
struct ScalarPhiloxOps {
  using Word = std::uint32_t;
  static Word splat(std::uint32_t v) { return v; }
  static void mulhilo(std::uint32_t m, Word x, Word& hi, Word& lo) {
    const std::uint64_t p = static_cast<std::uint64_t>(m) * x;
    hi = static_cast<Word>(p >> 32);
    lo = static_cast<Word>(p);
  }
  static Word xor3(Word a, Word b, Word c) { return a ^ b ^ c; }
};

/// 24 high bits of one word -> uniform float in [0, 1) (next_float's map).
inline float philox_unit_float(std::uint32_t word) {
  return static_cast<float>(word >> 8) * 0x1.0p-24f;
}

}  // namespace easyscale::rng
