// AVX-512F backend: 16-lane vectors.  Compiled with -mavx512f
// -ffp-contract=off when the compiler supports it; reached only through
// the SimdOps table.  Wider lanes are bitwise-safe because lanes are
// independent output elements — each of the 16 outputs still accumulates
// in its variant's exact scalar k-order, so AVX-512 agrees bit-for-bit
// with AVX2 and the scalar loops (simd_impl.hpp).
#include "kernels/simd.hpp"

#if defined(ES_SIMD_COMPILE_AVX512)

#include <immintrin.h>

#include "kernels/simd_impl.hpp"

namespace easyscale::kernels {
namespace {

// Lane indices 0..15 twice: a 16-entry window starting at 16 - up maps
// lane l to l - up (mod 16), the lane move of maskload_up.
alignas(64) constexpr std::int32_t kLaneRot[32] = {
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};

struct VecAvx512 {
  using Reg = __m512;
  static constexpr int kLanes = 16;

  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg broadcast(float x) { return _mm512_set1_ps(x); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static __mmask16 mask(int m) {
    return static_cast<__mmask16>((1u << m) - 1u);
  }
  static Reg maskload(const float* p, int m) {
    return _mm512_maskz_loadu_ps(mask(m), p);
  }
  static void maskstore(float* p, int m, Reg v) {
    _mm512_mask_storeu_ps(p, mask(m), v);
  }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_ps(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_ps(a, b); }
  /// All-lanes sqrt; the maskz form sidesteps GCC 12's spurious
  /// -Wmaybe-uninitialized on _mm512_sqrt_ps's undefined passthrough.
  static Reg sqrt(Reg a) {
    return _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF), a);
  }
  /// x > 0 ? v : +0.0f (maskz_mov zeroes the false lanes to +0.0f).
  static Reg keep_gt_zero(Reg x, Reg v) {
    const __mmask16 gt =
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ);
    return _mm512_maskz_mov_ps(gt, v);
  }
  static Reg maskload_bits(const float* p, unsigned bits) {
    return _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits), p);
  }
  static Reg maskload_up(const float* p, unsigned bits, int up) {
    const Reg v = _mm512_maskz_loadu_ps(static_cast<__mmask16>(bits >> up), p);
    const __m512i idx = _mm512_loadu_si512(kLaneRot + 16 - up);
    return _mm512_maskz_permutexvar_ps(static_cast<__mmask16>(bits), idx, v);
  }
  static Reg mask_add(Reg acc, unsigned bits, Reg x) {
    return _mm512_mask_add_ps(acc, static_cast<__mmask16>(bits), acc, x);
  }
  static Reg keep_ge(Reg x, Reg p, Reg v) {
    return _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(x, p, _CMP_GE_OQ), v);
  }

  /// Four interleaved 16-block batches fill 16 of the 32 registers.
  static constexpr int kPhiloxBatches = 4;

  /// The all-lanes maskz forms below sidestep GCC 12's spurious
  /// -Wmaybe-uninitialized on the plain intrinsics' undefined passthrough.
  struct Words {
    using Word = __m512i;
    static constexpr __mmask16 kAll = 0xFFFF;
    static constexpr __mmask8 kAll8 = 0xFF;
    static Word splat(std::uint32_t v) {
      return _mm512_set1_epi32(static_cast<int>(v));
    }
    static Word lanes() {
      return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                               14, 15);
    }
    static Word add(Word a, Word b) { return _mm512_add_epi32(a, b); }
    static Word load(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
    static void store(std::uint32_t* p, Word w) { _mm512_storeu_si512(p, w); }
    /// mul_epu32 multiplies the even lanes; the odd lanes go through it
    /// shifted down, and blends put each product's halves back in place.
    static void mulhilo(std::uint32_t m, Word x, Word& hi, Word& lo) {
      const Word mv = splat(m);
      const Word even = _mm512_maskz_mul_epu32(kAll8, x, mv);
      const Word odd = _mm512_maskz_mul_epu32(
          kAll8, _mm512_maskz_srli_epi64(kAll8, x, 32), mv);
      hi = _mm512_mask_blend_epi32(
          0xAAAA, _mm512_maskz_srli_epi64(kAll8, even, 32), odd);
      lo = _mm512_mask_blend_epi32(
          0xAAAA, even, _mm512_maskz_slli_epi64(kAll8, odd, 32));
    }
    static Word xor3(Word a, Word b, Word c) {
      return _mm512_ternarylogic_epi32(a, b, c, 0x96);
    }
    /// Lane l's block into words 4l .. 4l + 3: 32- and 64-bit interleaves
    /// leave block 4q + j in 128-bit lane q of register j, then a 4 x 4
    /// transpose of 128-bit lanes gathers blocks 4m .. 4m + 3 into w[m].
    static void interleave4(Word (&w)[4]) {
      const Word t0 = _mm512_maskz_unpacklo_epi32(kAll, w[0], w[1]);
      const Word t1 = _mm512_maskz_unpackhi_epi32(kAll, w[0], w[1]);
      const Word t2 = _mm512_maskz_unpacklo_epi32(kAll, w[2], w[3]);
      const Word t3 = _mm512_maskz_unpackhi_epi32(kAll, w[2], w[3]);
      const Word b0 = _mm512_maskz_unpacklo_epi64(kAll8, t0, t2);
      const Word b1 = _mm512_maskz_unpackhi_epi64(kAll8, t0, t2);
      const Word b2 = _mm512_maskz_unpacklo_epi64(kAll8, t1, t3);
      const Word b3 = _mm512_maskz_unpackhi_epi64(kAll8, t1, t3);
      const Word u0 = _mm512_maskz_shuffle_i32x4(kAll, b0, b1, 0x44);
      const Word u1 = _mm512_maskz_shuffle_i32x4(kAll, b0, b1, 0xEE);
      const Word u2 = _mm512_maskz_shuffle_i32x4(kAll, b2, b3, 0x44);
      const Word u3 = _mm512_maskz_shuffle_i32x4(kAll, b2, b3, 0xEE);
      w[0] = _mm512_maskz_shuffle_i32x4(kAll, u0, u2, 0x88);
      w[1] = _mm512_maskz_shuffle_i32x4(kAll, u0, u2, 0xDD);
      w[2] = _mm512_maskz_shuffle_i32x4(kAll, u1, u3, 0x88);
      w[3] = _mm512_maskz_shuffle_i32x4(kAll, u1, u3, 0xDD);
    }
    static Reg unit_float(Word w) {
      return _mm512_mul_ps(
          _mm512_maskz_cvtepi32_ps(kAll, _mm512_maskz_srli_epi32(kAll, w, 8)),
          _mm512_set1_ps(0x1.0p-24f));
    }
  };

  /// 16x16 in-register transpose: 32-bit then 64-bit interleaves inside
  /// each 128-bit lane, then two rounds of 128-bit lane shuffles.  The
  /// all-lanes maskz forms sidestep GCC 12's spurious -Wuninitialized on
  /// the plain intrinsics' undefined passthrough (as sqrt above).
  static void transpose(Reg (&r)[16]) {
    constexpr __mmask16 kAll = 0xFFFF;
    constexpr __mmask8 kAll8 = 0xFF;
    Reg t[16];
    for (int i = 0; i < 8; ++i) {
      t[2 * i] = _mm512_maskz_unpacklo_ps(kAll, r[2 * i], r[2 * i + 1]);
      t[2 * i + 1] = _mm512_maskz_unpackhi_ps(kAll, r[2 * i], r[2 * i + 1]);
    }
    for (int g = 0; g < 4; ++g) {
      const __m512d a = _mm512_castps_pd(t[4 * g]);
      const __m512d b = _mm512_castps_pd(t[4 * g + 1]);
      const __m512d c = _mm512_castps_pd(t[4 * g + 2]);
      const __m512d d = _mm512_castps_pd(t[4 * g + 3]);
      r[4 * g] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAll8, a, c));
      r[4 * g + 1] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAll8, a, c));
      r[4 * g + 2] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAll8, b, d));
      r[4 * g + 3] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAll8, b, d));
    }
    // r[4g + j] now holds, in 128-bit lane q, rows 4g..4g+3 of column
    // 4q + j; gather lane q of the four row groups into row 4q + j.
    for (int j = 0; j < 4; ++j) {
      t[j] = _mm512_maskz_shuffle_f32x4(kAll, r[j], r[4 + j], 0x88);
      t[4 + j] = _mm512_maskz_shuffle_f32x4(kAll, r[j], r[4 + j], 0xdd);
      t[8 + j] = _mm512_maskz_shuffle_f32x4(kAll, r[8 + j], r[12 + j], 0x88);
      t[12 + j] = _mm512_maskz_shuffle_f32x4(kAll, r[8 + j], r[12 + j], 0xdd);
    }
    for (int j = 0; j < 4; ++j) {
      r[j] = _mm512_maskz_shuffle_f32x4(kAll, t[j], t[8 + j], 0x88);
      r[8 + j] = _mm512_maskz_shuffle_f32x4(kAll, t[j], t[8 + j], 0xdd);
      r[4 + j] = _mm512_maskz_shuffle_f32x4(kAll, t[4 + j], t[12 + j], 0x88);
      r[12 + j] = _mm512_maskz_shuffle_f32x4(kAll, t[4 + j], t[12 + j], 0xdd);
    }
  }
};

}  // namespace

namespace detail {
const SimdOps* avx512_ops() {
  static const SimdOps ops =
      simd_impl::make_simd_ops<VecAvx512>(SimdBackend::kAvx512);
  return &ops;
}
}  // namespace detail

}  // namespace easyscale::kernels

#else  // !ES_SIMD_COMPILE_AVX512

namespace easyscale::kernels::detail {
const SimdOps* avx512_ops() { return nullptr; }
}  // namespace easyscale::kernels::detail

#endif
