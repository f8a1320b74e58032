// AVX2 backend: 8-lane vectors.  Compiled with -mavx2 -ffp-contract=off
// (src/CMakeLists.txt) when the compiler supports the flag; otherwise only
// the null stub below is built.  No other translation unit may inline this
// code — it is reached exclusively through the SimdOps function-pointer
// table, so a non-AVX2 machine never executes an AVX2 instruction.
#include "kernels/simd.hpp"

#if defined(ES_SIMD_COMPILE_AVX2)

#include <immintrin.h>

#include "kernels/simd_impl.hpp"

namespace easyscale::kernels {
namespace {

// Lane masks for m in [0, 8]: the first m lanes of kMaskTable + 8 - m are
// all-ones.  maskload zeroes unselected lanes; maskstore leaves them
// untouched in memory.
alignas(32) constexpr std::int32_t kMaskTable[16] = {-1, -1, -1, -1,
                                                     -1, -1, -1, -1,
                                                     0,  0,  0,  0,
                                                     0,  0,  0,  0};

// Lane indices 0..7 twice: an 8-entry window starting at 8 - up maps lane
// l to l - up (mod 8), the lane move of maskload_up.
alignas(32) constexpr std::int32_t kLaneRot[16] = {0, 1, 2, 3, 4, 5, 6, 7,
                                                   0, 1, 2, 3, 4, 5, 6, 7};

struct VecAvx2 {
  using Reg = __m256;
  static constexpr int kLanes = 8;

  static Reg zero() { return _mm256_setzero_ps(); }
  static Reg broadcast(float x) { return _mm256_set1_ps(x); }
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static __m256i mask(int m) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskTable + 8 - m));
  }
  static Reg maskload(const float* p, int m) {
    return _mm256_maskload_ps(p, mask(m));
  }
  static void maskstore(float* p, int m, Reg v) {
    _mm256_maskstore_ps(p, mask(m), v);
  }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_ps(a, b); }
  static Reg sqrt(Reg a) { return _mm256_sqrt_ps(a); }
  /// x > 0 ? v : +0.0f — the AND with the ordered-compare mask yields
  /// exactly +0.0f on the false lanes, matching `x > 0.0f ? v : 0.0f`.
  static Reg keep_gt_zero(Reg x, Reg v) {
    return _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ),
                         v);
  }
  /// All-ones in the lanes whose bit is set in `bits`.
  static __m256i bits_mask(unsigned bits) {
    const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    return _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane),
        lane);
  }
  static Reg maskload_bits(const float* p, unsigned bits) {
    return _mm256_maskload_ps(p, bits_mask(bits));
  }
  static Reg maskload_up(const float* p, unsigned bits, int up) {
    const Reg v = _mm256_maskload_ps(p, bits_mask(bits >> up));
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLaneRot + 8 - up));
    return _mm256_and_ps(_mm256_permutevar8x32_ps(v, idx),
                         _mm256_castsi256_ps(bits_mask(bits)));
  }
  static Reg mask_add(Reg acc, unsigned bits, Reg x) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, x),
                            _mm256_castsi256_ps(bits_mask(bits)));
  }
  static Reg keep_ge(Reg x, Reg p, Reg v) {
    return _mm256_and_ps(_mm256_cmp_ps(x, p, _CMP_GE_OQ), v);
  }

  /// Two interleaved 8-block batches fill 8 of the 16 registers.
  static constexpr int kPhiloxBatches = 2;

  struct Words {
    using Word = __m256i;
    static Word splat(std::uint32_t v) {
      return _mm256_set1_epi32(static_cast<int>(v));
    }
    static Word lanes() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }
    static Word add(Word a, Word b) { return _mm256_add_epi32(a, b); }
    static Word load(const std::uint32_t* p) {
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void store(std::uint32_t* p, Word w) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), w);
    }
    /// mul_epu32 multiplies the even lanes; the odd lanes go through it
    /// shifted down, and blends put each product's halves back in place.
    static void mulhilo(std::uint32_t m, Word x, Word& hi, Word& lo) {
      const Word mv = splat(m);
      const Word even = _mm256_mul_epu32(x, mv);
      const Word odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), mv);
      hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
      lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
    }
    static Word xor3(Word a, Word b, Word c) {
      return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
    }
    /// Lane l's block into words 4l .. 4l + 3: 32- and 64-bit interleaves
    /// leave block 4h + j in 128-bit half h of register j, then half swaps
    /// gather blocks 2m, 2m + 1 into w[m].
    static void interleave4(Word (&w)[4]) {
      const Word t0 = _mm256_unpacklo_epi32(w[0], w[1]);
      const Word t1 = _mm256_unpackhi_epi32(w[0], w[1]);
      const Word t2 = _mm256_unpacklo_epi32(w[2], w[3]);
      const Word t3 = _mm256_unpackhi_epi32(w[2], w[3]);
      const Word b0 = _mm256_unpacklo_epi64(t0, t2);
      const Word b1 = _mm256_unpackhi_epi64(t0, t2);
      const Word b2 = _mm256_unpacklo_epi64(t1, t3);
      const Word b3 = _mm256_unpackhi_epi64(t1, t3);
      w[0] = _mm256_permute2x128_si256(b0, b1, 0x20);
      w[1] = _mm256_permute2x128_si256(b2, b3, 0x20);
      w[2] = _mm256_permute2x128_si256(b0, b1, 0x31);
      w[3] = _mm256_permute2x128_si256(b2, b3, 0x31);
    }
    static Reg unit_float(Word w) {
      return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(w, 8)),
                           _mm256_set1_ps(0x1.0p-24f));
    }
  };

  /// 8x8 in-register transpose: 32-bit interleaves and 64-bit shuffles
  /// inside each 128-bit half, then a swap of the halves.
  static void transpose(Reg (&r)[8]) {
    Reg t[8];
    for (int i = 0; i < 4; ++i) {
      t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
      t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    for (int g = 0; g < 2; ++g) {
      r[4 * g] = _mm256_shuffle_ps(t[4 * g], t[4 * g + 2], 0x44);
      r[4 * g + 1] = _mm256_shuffle_ps(t[4 * g], t[4 * g + 2], 0xEE);
      r[4 * g + 2] = _mm256_shuffle_ps(t[4 * g + 1], t[4 * g + 3], 0x44);
      r[4 * g + 3] = _mm256_shuffle_ps(t[4 * g + 1], t[4 * g + 3], 0xEE);
    }
    for (int j = 0; j < 4; ++j) {
      t[j] = _mm256_permute2f128_ps(r[j], r[4 + j], 0x20);
      t[4 + j] = _mm256_permute2f128_ps(r[j], r[4 + j], 0x31);
    }
    for (int i = 0; i < 8; ++i) r[i] = t[i];
  }
};

}  // namespace

namespace detail {
const SimdOps* avx2_ops() {
  static const SimdOps ops =
      simd_impl::make_simd_ops<VecAvx2>(SimdBackend::kAvx2);
  return &ops;
}
}  // namespace detail

}  // namespace easyscale::kernels

#else  // !ES_SIMD_COMPILE_AVX2

namespace easyscale::kernels::detail {
const SimdOps* avx2_ops() { return nullptr; }
}  // namespace easyscale::kernels::detail

#endif
