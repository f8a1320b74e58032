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
