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
