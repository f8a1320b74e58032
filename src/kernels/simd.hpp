// SIMD backends with deterministic lane-tree accumulation.
//
// The contract (docs/PARALLELISM.md "SIMD backends and lane-tree
// determinism"): every vectorized kernel body assigns SIMD *lanes to
// distinct output elements* and replays, per lane, the exact scalar
// accumulation order of the selected variant.  The variant's interleaved
// accumulators become a fixed-width register tree folded in the pinned
// scalar order (total = 0 + acc[0] + acc[1] + ...), so the result of every
// kernel is bitwise identical across ISA levels (scalar / AVX2 / AVX-512),
// thread counts, and device-type variants — vectorization changes
// throughput, never bits.  Lane width therefore never appears in the
// numerics: AVX-512 processes 16 outputs where AVX2 processes 8, but each
// output's k-order sum is associated identically.
//
// Dispatch: resolved once per process from CPUID (+ what the compiler
// could build), overridable with the strict env knob EASYSCALE_SIMD
// (auto|avx512|avx2|scalar — anything else, including trailing spaces or
// case variants, fails loudly naming the variable).  ExecContext carries a
// per-context SimdBackend so tests and the cross-backend audit can pin
// backends explicitly; kAuto follows the process-wide resolution.
//
// The bodies (SimdOps below): GEMM row panels (unpacked, packed-B and
// Kahan) and the row-blocked GEMM, the operand block transpose, the
// same-geometry im2col/col2im, the strided batched reduction, the
// direct-conv row interior, the Dropout mask (a lane-per-block Philox) and
// elementwise maps.  The maps are ReLU forward/backward, sigmoid backward,
// scalar and vector adds, divide by a scalar, the norm affines, and for the
// transformer step mul_vec (applying the dropout mask), gelu_bwd (from the
// forward's cached tanh), and the optimizer updates adam_update and
// sgd_update.  Attention's score, context and dV/dK products run on the
// kSequential panel.
//
// The scalar backend publishes no function pointers: call sites fall back
// to the original scalar loops, which ARE the reference semantics the
// vector bodies must reproduce bit-for-bit (tests/simd_backend_test.cpp
// sweeps every variant across every available backend with memcmp).
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/variants.hpp"

namespace easyscale::rng {
struct PhiloxState;
}  // namespace easyscale::rng

namespace easyscale::kernels {

enum class SimdBackend : int {
  kAuto = 0,    // resolve from EASYSCALE_SIMD, else best supported
  kScalar = 1,  // portable fallback: the original scalar kernel loops
  kAvx2 = 2,    // 8-lane AVX2
  kAvx512 = 3,  // 16-lane AVX-512F
};

[[nodiscard]] const char* simd_backend_name(SimdBackend backend);

/// Geometry for one stride-1 direct-conv output-row interior: lanes are
/// output columns x in [x_lo, x_hi), where every tap (c, kh in
/// [kh_lo, kh_hi), kw) reads in-bounds input, so the per-lane accumulation
/// is the canonical c -> kh -> kw chain with no boundary tests.
struct ConvRowArgs {
  const float* in_n;   // sample input base [in_channels, in_h, in_w]
  const float* w_f;    // filter weights [cg, kernel_h, kernel_w]
  float* out_row;      // output row base (fixed n, f, y)
  std::int64_t ic0;    // first input channel of the group
  std::int64_t cg;     // input channels per group
  std::int64_t in_h;
  std::int64_t in_w;
  std::int64_t kernel_h;
  std::int64_t kernel_w;
  std::int64_t kh_lo;  // valid kernel-row range for this output row
  std::int64_t kh_hi;
  std::int64_t iy0;    // input row for kh == 0 (y - pad; stride 1)
  std::int64_t pad;    // ix = x - pad + kw
  float bias;
  std::int64_t x_lo;   // interior output columns: all taps in-bounds
  std::int64_t x_hi;
};

/// Geometry of a stride-1 conv whose output rows are as wide as its input
/// rows (out_w == in_w: "same" padding along x).  Output (y, x) of tap
/// (kh, kw) reads input (y + kh - pad, x + kw - pad), so over the flattened
/// planes the tap is a shift by (kh - pad) * in_w + (kw - pad), masked to
/// the cells whose row and column stay inside both planes.
struct ConvSameArgs {
  /// Bounds of the vector bodies' on-stack lane masks; larger planes and
  /// kernels keep the generic loops.
  static constexpr std::int64_t kMaxPlane = 1024;
  static constexpr std::int64_t kMaxTaps = 49;

  std::int64_t in_h;
  std::int64_t in_w;   // == out_w
  std::int64_t out_h;
  std::int64_t kernel_h;
  std::int64_t kernel_w;
  std::int64_t pad;

  [[nodiscard]] bool fits() const {
    return in_h * in_w <= kMaxPlane && out_h * in_w <= kMaxPlane &&
           kernel_h * kernel_w <= kMaxTaps;
  }
};

/// GELU's tanh-approximation constants (nn/activations.cpp and gelu_bwd).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/// One Adam step's scalars as adam_update consumes them (optim/adam.cpp).
struct AdamArgs {
  float beta1;
  float beta2;
  float lr;
  float eps;
  float weight_decay;  // 0 skips the decay term entirely
  float bc1;           // 1 - beta1^t
  float bc2;           // 1 - beta2^t
};

/// One SGD step's scalars as sgd_update consumes them (optim/sgd.cpp).
struct SgdArgs {
  float lr;
  float momentum;      // 0 leaves the momentum buffer untouched
  float weight_decay;  // 0 skips the decay term entirely
};

/// Function-pointer table of one backend's vector bodies.  Null members
/// mean "no vector form — use the scalar loop"; the scalar backend is all
/// null.  Every non-null body is bitwise-equal to its scalar counterpart.
struct SimdOps {
  SimdBackend kind = SimdBackend::kScalar;

  /// One GEMM row panel against UNPACKED B[k, n]:
  /// c_row[j] (+)= dot(a_row, B[:, j]) for j in [j0, j1), with `variant`'s
  /// exact per-output k-association (lanes are the j outputs).
  void (*gemm_panel)(GemmVariant variant, const float* a_row, const float* b,
                     std::int64_t k, std::int64_t n, std::int64_t j0,
                     std::int64_t j1, float* c_row, bool accumulate) = nullptr;

  /// Column-tile width of this backend's packed-B GEMM layout (a multiple
  /// of the lane count), or 0 when the backend has no packed panel.  The
  /// packed buffer holds ceil(n / width) tiles of k * width floats: tile t
  /// stores B columns [t*width, (t+1)*width) row-major at row stride
  /// `width`, zero-padded past column n.  Packing is pure data movement —
  /// it relocates each B element once and never re-associates a sum — so
  /// the packed panel is bitwise-equal to gemm_panel; it exists because
  /// power-of-two row strides (n = 128, 256, 1024...) alias L1 cache sets
  /// and TLB pages, and the packed tiles stream contiguously instead.
  std::int64_t gemm_tile_cols = 0;

  /// gemm_panel against B packed into the layout above (same j0/j1
  /// semantics; tiles are resolved internally, so chunk boundaries need
  /// not align to tiles).
  void (*gemm_panel_packed)(GemmVariant variant, const float* a_row,
                            const float* packed_b, std::int64_t k,
                            std::int64_t n, std::int64_t j0, std::int64_t j1,
                            float* c_row, bool accumulate) = nullptr;

  /// Whole rows [i0, i1) of C = A * B (row i of A at a + i * k, of C at
  /// c + i * n), four rows at a time: each B vector load feeds the four
  /// rows' independent chains, and every output keeps `variant`'s exact
  /// k-association, so the rows are bitwise those of gemm_panel.  B is
  /// unpacked [k, n], or in the gemm_tile_cols layout when `packed`.  The
  /// last (i1 - i0) % 4 rows, and every kBlocked8 row, run on the per-row
  /// panels.
  void (*gemm_rows)(GemmVariant variant, const float* a, const float* b,
                    bool packed, std::int64_t k, std::int64_t n,
                    std::int64_t i0, std::int64_t i1, float* c,
                    bool accumulate) = nullptr;

  /// dst[c * ldd + r] = src[r * lds + c] for r < rows, c < cols: in-register
  /// block transposes, moving each value once (the scalar loop's bytes).
  void (*transpose)(const float* src, std::int64_t rows, std::int64_t cols,
                    std::int64_t lds, float* dst, std::int64_t ldd) = nullptr;

  /// Same-geometry im2col of channels [c0, c1) (see ConvSameArgs; the caller
  /// checks fits()): channel c's plane is planes + c * in_h * in_w and its
  /// tap t fills cols row c * taps + t (out_h * in_w floats) with the
  /// shifted input or +0.0f, one masked vector load per vector of outputs.
  void (*im2col_same)(const ConvSameArgs& geo, const float* planes,
                      std::int64_t c0, std::int64_t c1, float* cols) = nullptr;

  /// Same-geometry col2im of channels [c0, c1), the inverse walk: each
  /// input-plane vector is loaded once, receives every tap's cols values
  /// as masked adds in (kh, kw) order (lanes a tap does not reach are
  /// skipped, never added +0), and is stored once.
  void (*col2im_same)(const ConvSameArgs& geo, const float* cols,
                      std::int64_t c0, std::int64_t c1,
                      float* planes) = nullptr;

  /// Kahan-compensated row panel (the built-in custom D2 kernel): per lane
  /// exactly kernels::kahan_dot's sum/comp recurrence.
  void (*kahan_panel)(const float* a_row, const float* b, std::int64_t k,
                      std::int64_t n, std::int64_t j0, std::int64_t j1,
                      float* c_row, bool accumulate) = nullptr;

  /// Batched strided reduction: out[s] += reduce(variant, values[s + i *
  /// stride], i < count) for s in [s0, s1) — lanes are the output slots,
  /// each keeping its variant's leaf/fold order.
  void (*reduce_batch)(ReduceVariant variant, const float* values,
                       std::int64_t stride, std::int64_t count,
                       std::int64_t s0, std::int64_t s1, float* out) = nullptr;

  /// Direct-conv stride-1 row interior (see ConvRowArgs).
  void (*conv_row)(const ConvRowArgs& args) = nullptr;

  /// Dropout mask from n successive Philox draws: mask[i] = u_i >= p ?
  /// scale : +0.0f, where u_i is the i-th next_float() of `state`, and
  /// `state` is left exactly as those n calls leave it (counter, buffer
  /// words and buffer_pos, also when the draws end on a block boundary).
  /// Lanes are block counters running the one Philox round
  /// (rng/philox_round.hpp), so every word is the scalar stream's.
  void (*dropout_mask)(rng::PhiloxState& state, float p, float scale,
                       float* mask, std::int64_t n) = nullptr;

  // Elementwise maps: per-lane expression identical to the scalar loop.
  /// out[i] = x[i] > 0 ? x[i] : 0
  void (*relu_fwd)(const float* x, float* out, std::int64_t n) = nullptr;
  /// gin[i] = x[i] > 0 ? g[i] : 0
  void (*relu_bwd)(const float* x, const float* g, float* gin,
                   std::int64_t n) = nullptr;
  /// gin[i] = g[i] * s[i] * (1 - s[i])
  void (*sigmoid_bwd)(const float* s, const float* g, float* gin,
                      std::int64_t n) = nullptr;
  /// out[i] += c
  void (*add_scalar)(float* out, float c, std::int64_t n) = nullptr;
  /// out[i] += add[i]
  void (*add_vec)(float* out, const float* add, std::int64_t n) = nullptr;
  /// out[i] = out[i] / c
  void (*div_scalar)(float* out, float c, std::int64_t n) = nullptr;
  /// out[i] = a[i] * b[i]
  void (*mul_vec)(const float* a, const float* b, float* out,
                  std::int64_t n) = nullptr;
  /// GELU backward from the forward's cached t = tanh(u):
  /// du = C * (1 + (3A * x) * x); d = 0.5 * (1 + t) + ((0.5 * x) * (1 - t * t))
  /// * du; gin[i] = g[i] * d, with C = sqrt(2/pi) and A = 0.044715.
  void (*gelu_bwd)(const float* x, const float* t, const float* g, float* gin,
                   std::int64_t n) = nullptr;
  /// In-place Adam update of n elements (m, v, value), per element exactly
  /// Adam::step_slices' scalar expression: sqrt and divide are IEEE-exact
  /// on every backend, and the bias corrections stay divisions.
  void (*adam_update)(const AdamArgs& args, const float* grad, float* m,
                      float* v, float* value, std::int64_t n) = nullptr;
  /// In-place SGD update of n elements (m, value), per element exactly
  /// SGD::step_slices' scalar expression: g += wd * value; m = mu * m + g;
  /// value -= lr * m (each term only when its scalar is nonzero).
  void (*sgd_update)(const SgdArgs& args, const float* grad, float* m,
                     float* value, std::int64_t n) = nullptr;
  /// xhat[i] = (x[i] - mean) * inv_std; out[i] = gamma[i] * xhat[i] + beta[i]
  void (*norm_affine_vec)(const float* x, const float* gamma,
                          const float* beta, float mean, float inv_std,
                          float* xhat, float* out, std::int64_t n) = nullptr;
  /// xhat[i] = (x[i] - mean) * inv_std; out[i] = gamma * xhat[i] + beta
  void (*norm_affine_scalar)(const float* x, float gamma, float beta,
                             float mean, float inv_std, float* xhat,
                             float* out, std::int64_t n) = nullptr;
};

/// Best backend this process can run: CPUID support AND compiled-in.
[[nodiscard]] SimdBackend detected_simd_backend();

/// True when `backend` can execute here (kScalar always; kAuto always).
[[nodiscard]] bool simd_backend_available(SimdBackend backend);

/// Every concrete backend available here, scalar first.
[[nodiscard]] std::vector<SimdBackend> available_simd_backends();

/// Uncached strict parse of EASYSCALE_SIMD: re-reads the environment every
/// call so tests can exercise the rejection path without fighting the
/// process-lifetime cache.  Unset/empty -> kAuto; a value outside
/// {auto, avx512, avx2, scalar} (exact match — "avx2 " and "AVX-512" are
/// typos, not requests) throws an Error naming the variable; a valid value
/// the host cannot run (e.g. avx512 on an AVX2 machine) also throws.
[[nodiscard]] SimdBackend parse_simd_backend_env();

/// Ops table for `backend`; kAuto resolves through EASYSCALE_SIMD (cached
/// at first use) then detection.  Throws for an unavailable backend.
[[nodiscard]] const SimdOps& simd_ops(SimdBackend backend);

namespace detail {
// Per-ISA tables, null when that TU was compiled without its ISA flag.
[[nodiscard]] const SimdOps* avx2_ops();
[[nodiscard]] const SimdOps* avx512_ops();
}  // namespace detail

}  // namespace easyscale::kernels
