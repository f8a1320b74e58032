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
