// Cross-backend bitwise equivalence for the SIMD kernel bodies.
//
// The lane-tree contract (kernels/simd.hpp): vector lanes map to distinct
// output elements and replay the scalar accumulation order per lane, so
// every backend (scalar / AVX2 / AVX-512) must produce byte-identical
// buffers for every variant, shape — including remainders that exercise
// the masked tails — thread count, and accumulate mode.  These sweeps
// memcmp each available backend against the scalar reference loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/custom.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"
#include "nn/attention.hpp"
#include "nn/dropout.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::kernels {
namespace {

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_vec(std::uint64_t seed, std::int64_t n) {
  rng::Philox gen(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  rng::fill_normal(gen, v, 0.0f, 1.0f);
  return v;
}

ExecContext make_ctx(SimdBackend backend, int threads = 1) {
  ExecContext ctx;
  ctx.simd = backend;
  ctx.intra_op_threads = threads;
  return ctx;
}

/// Non-scalar backends the host can actually run.
std::vector<SimdBackend> vector_backends() {
  std::vector<SimdBackend> out;
  for (SimdBackend b : available_simd_backends()) {
    if (b != SimdBackend::kScalar) out.push_back(b);
  }
  return out;
}

TEST(Simd, DetectionAndAvailability) {
  EXPECT_TRUE(simd_backend_available(SimdBackend::kScalar));
  EXPECT_TRUE(simd_backend_available(SimdBackend::kAuto));
  const auto avail = available_simd_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), SimdBackend::kScalar);
  // detected_simd_backend must itself be available.
  EXPECT_TRUE(simd_backend_available(detected_simd_backend()));
  // The scalar table publishes no vector bodies; vector tables publish all.
  EXPECT_EQ(simd_ops(SimdBackend::kScalar).gemm_panel, nullptr);
  for (SimdBackend b : vector_backends()) {
    const SimdOps& ops = simd_ops(b);
    EXPECT_EQ(ops.kind, b);
    EXPECT_NE(ops.gemm_panel, nullptr);
    EXPECT_NE(ops.kahan_panel, nullptr);
    EXPECT_NE(ops.reduce_batch, nullptr);
    EXPECT_NE(ops.conv_row, nullptr);
    EXPECT_NE(ops.relu_fwd, nullptr);
    EXPECT_NE(ops.norm_affine_vec, nullptr);
  }
}

TEST(Simd, EnvOverrideStrictValidation) {
  const char* kVar = "EASYSCALE_SIMD";
  ASSERT_EQ(setenv(kVar, "scalar", 1), 0);
  EXPECT_EQ(parse_simd_backend_env(), SimdBackend::kScalar);
  // "auto" and unset both resolve straight to the detected backend.
  ASSERT_EQ(setenv(kVar, "auto", 1), 0);
  EXPECT_EQ(parse_simd_backend_env(), detected_simd_backend());
  // Exact-match only: trailing whitespace and case/format variants are
  // typos, not requests — each must fail loudly naming the variable.
  for (const char* bad : {"avx2 ", " scalar", "AVX-512", "AVX2", "Scalar",
                          "sse", "avx", "best", "auto\t"}) {
    ASSERT_EQ(setenv(kVar, bad, 1), 0);
    EXPECT_THROW((void)parse_simd_backend_env(), Error)
        << "value: '" << bad << "'";
  }
  // Valid tokens parse; pinning a backend the host cannot run throws
  // (never silently downgrades).
  for (SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kAvx512}) {
    ASSERT_EQ(setenv(kVar, simd_backend_name(b), 1), 0);
    if (simd_backend_available(b)) {
      EXPECT_EQ(parse_simd_backend_env(), b);
    } else {
      EXPECT_THROW((void)parse_simd_backend_env(), Error);
    }
  }
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_EQ(parse_simd_backend_env(), detected_simd_backend());
}

TEST(Simd, GemmAllVariantsBitwiseAcrossBackendsAndThreads) {
  const GemmVariant variants[] = {
      GemmVariant::kSequential, GemmVariant::kInterleaved2,
      GemmVariant::kInterleaved4, GemmVariant::kInterleaved8,
      GemmVariant::kBlocked8};
  // Shapes chosen to hit full AVX-512 tiles, full AVX2 tiles, masked
  // remainders in n, and k remainders of every interleave width.  m >= 8
  // shapes route through the packed-B tile layout (ragged last tiles at
  // n = 100 and 130), m < 8 through the unpacked panels.
  const std::int64_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},   {4, 33, 17},
                                    {8, 64, 64},  {5, 100, 129}, {2, 17, 256},
                                    {7, 130, 33}, {1, 16, 9},  {16, 100, 33},
                                    {9, 130, 40}, {12, 96, 24}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_vec(11 * static_cast<std::uint64_t>(m + n + k), m * k);
    const auto b = random_vec(13 * static_cast<std::uint64_t>(m + n * k), k * n);
    for (GemmVariant v : variants) {
      for (bool accumulate : {false, true}) {
        std::vector<float> ref(static_cast<std::size_t>(m * n), 0.25f);
        const ExecContext scalar_ctx = make_ctx(SimdBackend::kScalar);
        gemm_variant(scalar_ctx, v, m, n, k, a, b, ref, accumulate);
        for (SimdBackend backend : vector_backends()) {
          for (int threads : {1, 4}) {
            std::vector<float> got(static_cast<std::size_t>(m * n), 0.25f);
            const ExecContext ctx = make_ctx(backend, threads);
            gemm_variant(ctx, v, m, n, k, a, b, got, accumulate);
            EXPECT_TRUE(bitwise_equal(ref, got))
                << simd_backend_name(backend) << " threads=" << threads
                << " variant=" << static_cast<int>(v) << " m=" << m
                << " n=" << n << " k=" << k << " acc=" << accumulate;
          }
        }
      }
    }
  }
}

// The packed-B layout must reproduce the unpacked panel bit-for-bit for
// every variant, including at chunk boundaries that land mid-tile and in
// the zero-padded ragged last tile.
TEST(Simd, GemmPackedPanelMatchesUnpackedBitwise) {
  const GemmVariant variants[] = {
      GemmVariant::kSequential, GemmVariant::kInterleaved2,
      GemmVariant::kInterleaved4, GemmVariant::kInterleaved8,
      GemmVariant::kBlocked8};
  const std::int64_t shapes[][2] = {{37, 19}, {100, 64}, {200, 7}, {96, 96}};
  for (SimdBackend backend : vector_backends()) {
    const SimdOps& ops = simd_ops(backend);
    ASSERT_NE(ops.gemm_panel_packed, nullptr);
    ASSERT_GT(ops.gemm_tile_cols, 0);
    const std::int64_t tw = ops.gemm_tile_cols;
    for (const auto& s : shapes) {
      const std::int64_t n = s[0], k = s[1];
      const auto a = random_vec(21, k);
      const auto b = random_vec(23, k * n);
      // Pack exactly as gemm.cpp does: tiles of tw columns, row stride tw,
      // zero-padded past column n.
      const std::int64_t ntiles = (n + tw - 1) / tw;
      std::vector<float> packed(static_cast<std::size_t>(ntiles * tw * k),
                                0.0f);
      for (std::int64_t tile = 0; tile < ntiles; ++tile) {
        const std::int64_t jlo = tile * tw;
        const std::int64_t w = std::min<std::int64_t>(tw, n - jlo);
        for (std::int64_t kk = 0; kk < k; ++kk) {
          for (std::int64_t p = 0; p < w; ++p) {
            packed[static_cast<std::size_t>(tile * k * tw + kk * tw + p)] =
                b[static_cast<std::size_t>(kk * n + jlo + p)];
          }
        }
      }
      // Column ranges: full row, a mid-tile split pair, and a narrow
      // interior window straddling a tile boundary.
      const std::int64_t ranges[][2] = {
          {0, n}, {0, n / 2}, {n / 2, n}, {n / 3, std::min(n, n / 3 + tw)}};
      for (GemmVariant v : variants) {
        for (const auto& r : ranges) {
          const std::int64_t j0 = r[0], j1 = r[1];
          if (j0 >= j1) continue;
          std::vector<float> ref(static_cast<std::size_t>(n), 0.125f);
          std::vector<float> got(static_cast<std::size_t>(n), 0.125f);
          ops.gemm_panel(v, a.data(), b.data(), k, n, j0, j1, ref.data(),
                         true);
          ops.gemm_panel_packed(v, a.data(), packed.data(), k, n, j0, j1,
                                got.data(), true);
          EXPECT_TRUE(bitwise_equal(ref, got))
              << simd_backend_name(backend) << " variant="
              << static_cast<int>(v) << " n=" << n << " k=" << k
              << " j0=" << j0 << " j1=" << j1;
        }
      }
    }
  }
}

TEST(Simd, KahanPanelMatchesKahanDotBitwise) {
  const std::int64_t shapes[][2] = {{7, 5}, {33, 64}, {100, 129}, {256, 17}};
  for (const auto& s : shapes) {
    const std::int64_t k = s[0], n = s[1];
    const auto a = random_vec(3, k);
    const auto b = random_vec(5, k * n);
    for (bool accumulate : {false, true}) {
      std::vector<float> ref(static_cast<std::size_t>(n), 0.5f);
      for (std::int64_t j = 0; j < n; ++j) {
        std::vector<float> col(static_cast<std::size_t>(k));
        for (std::int64_t kk = 0; kk < k; ++kk) {
          col[static_cast<std::size_t>(kk)] =
              b[static_cast<std::size_t>(kk * n + j)];
        }
        const float dot = kahan_dot(a.data(), col.data(), k);
        auto& slot = ref[static_cast<std::size_t>(j)];
        slot = accumulate ? slot + dot : dot;
      }
      for (SimdBackend backend : vector_backends()) {
        const SimdOps& ops = simd_ops(backend);
        ASSERT_NE(ops.kahan_panel, nullptr);
        std::vector<float> got(static_cast<std::size_t>(n), 0.5f);
        ops.kahan_panel(a.data(), b.data(), k, n, 0, n, got.data(),
                        accumulate);
        EXPECT_TRUE(bitwise_equal(ref, got))
            << simd_backend_name(backend) << " k=" << k << " n=" << n
            << " acc=" << accumulate;
      }
    }
  }
}

TEST(Simd, ReduceAllVariantsBitwiseAcrossBackendsAndThreads) {
  const ReduceVariant variants[] = {
      ReduceVariant::kSequential, ReduceVariant::kPairwise64,
      ReduceVariant::kPairwise128, ReduceVariant::kPairwise256};
  // (slots, count): remainder slots vs lane width, and counts around the
  // pairwise leaf widths so the odd-carry fold is exercised.
  const std::int64_t shapes[][2] = {{1, 3},    {5, 64},   {17, 100},
                                    {33, 257}, {129, 65}, {8, 1}};
  for (const auto& s : shapes) {
    const std::int64_t slots = s[0], count = s[1];
    const auto values = random_vec(17, slots * count);
    for (ReduceVariant v : variants) {
      ExecContext scalar_ctx = make_ctx(SimdBackend::kScalar);
      scalar_ctx.device = DeviceType::kT4;  // device is irrelevant here
      std::vector<float> ref(static_cast<std::size_t>(slots), 1.0f);
      {
        // Pin the variant by calling the strided batch through a context
        // whose policy resolves to it is indirect; instead reproduce the
        // reference directly per slot.
        for (std::int64_t slot = 0; slot < slots; ++slot) {
          std::vector<float> gathered(static_cast<std::size_t>(count));
          for (std::int64_t i = 0; i < count; ++i) {
            gathered[static_cast<std::size_t>(i)] =
                values[static_cast<std::size_t>(slot + i * slots)];
          }
          ref[static_cast<std::size_t>(slot)] +=
              reduce_sum_variant(v, gathered);
        }
      }
      for (SimdBackend backend : vector_backends()) {
        const SimdOps& ops = simd_ops(backend);
        ASSERT_NE(ops.reduce_batch, nullptr);
        std::vector<float> got(static_cast<std::size_t>(slots), 1.0f);
        ops.reduce_batch(v, values.data(), slots, count, 0, slots,
                         got.data());
        EXPECT_TRUE(bitwise_equal(ref, got))
            << simd_backend_name(backend) << " variant=" << static_cast<int>(v)
            << " slots=" << slots << " count=" << count;
      }
    }
  }
}

TEST(Simd, ReduceStridedBatchEntryPointBitwise) {
  // End-to-end through reduce_sum_strided_batch (policy-selected variant,
  // parallel_for chunking) across backends and thread counts.
  const std::int64_t stride = 37, count = 120;
  const auto values = random_vec(23, stride * count);
  std::vector<float> ref(static_cast<std::size_t>(stride), 0.0f);
  reduce_sum_strided_batch(make_ctx(SimdBackend::kScalar), values, stride,
                           count, ref);
  for (SimdBackend backend : vector_backends()) {
    for (int threads : {1, 4}) {
      std::vector<float> got(static_cast<std::size_t>(stride), 0.0f);
      reduce_sum_strided_batch(make_ctx(backend, threads), values, stride,
                               count, got);
      EXPECT_TRUE(bitwise_equal(ref, got))
          << simd_backend_name(backend) << " threads=" << threads;
    }
  }
}

// Conv shapes for both sweeps: they mix strides (the stride-2 cases take
// the scalar row path), padding, groups, and widths around both lane
// counts.
const Conv2dDims kConvDims[] = {
    {2, 3, 9, 9, 4, 3, 3, 1, 1, 1},     // classic 3x3 pad 1
    {1, 2, 8, 21, 6, 3, 3, 1, 1, 2},    // grouped, wide rows
    {2, 4, 7, 34, 8, 5, 3, 1, 2, 1},    // pad 2, masked interior tail
    {1, 3, 10, 10, 5, 3, 3, 2, 1, 1},   // stride 2: scalar rows
    {1, 1, 4, 4, 2, 4, 4, 1, 0, 1},     // kernel == input, no interior
    {2, 2, 6, 40, 4, 1, 1, 1, 0, 2},    // 1x1 kernel, pure interior
};

TEST(Simd, ConvForwardBothVariantsBitwiseAcrossBackendsAndThreads) {
  // Direct-canonical (D2) exercises conv_row's interior/boundary split;
  // im2col-native exercises the GEMM panels plus the bias add.
  for (const Conv2dDims& d : kConvDims) {
    const std::int64_t in_elems = d.batch * d.in_channels * d.in_h * d.in_w;
    const std::int64_t w_elems =
        d.out_channels * (d.in_channels / d.groups) * d.kernel_h * d.kernel_w;
    const std::int64_t out_elems =
        d.batch * d.out_channels * d.out_h() * d.out_w();
    const auto input = random_vec(31, in_elems);
    const auto weight = random_vec(37, w_elems);
    const auto bias = random_vec(41, d.out_channels);
    for (KernelPolicy policy :
         {KernelPolicy::kHardwareAgnostic, KernelPolicy::kDeterministic}) {
      std::vector<float> ref(static_cast<std::size_t>(out_elems));
      ExecContext sctx = make_ctx(SimdBackend::kScalar);
      sctx.policy = policy;
      conv2d_forward(sctx, d, input, weight, bias, ref);
      for (SimdBackend backend : vector_backends()) {
        for (int threads : {1, 4}) {
          std::vector<float> got(static_cast<std::size_t>(out_elems));
          ExecContext ctx = make_ctx(backend, threads);
          ctx.policy = policy;
          conv2d_forward(ctx, d, input, weight, bias, got);
          EXPECT_TRUE(bitwise_equal(ref, got))
              << simd_backend_name(backend) << " threads=" << threads
              << " policy=" << static_cast<int>(policy) << " in_w=" << d.in_w
              << " stride=" << d.stride;
        }
      }
    }
  }
}

TEST(Simd, ConvBackwardBothVariantsBitwiseAcrossBackends) {
  // im2col-native backward runs gemm_nt (B^T packed into tiles), gemm on
  // the once-transposed W and col2im's lanewise adds; direct-canonical
  // runs the scalar owner-computes passes.
  for (const Conv2dDims& d : kConvDims) {
    const std::int64_t in_elems = d.batch * d.in_channels * d.in_h * d.in_w;
    const std::int64_t w_elems =
        d.out_channels * (d.in_channels / d.groups) * d.kernel_h * d.kernel_w;
    const std::int64_t out_elems =
        d.batch * d.out_channels * d.out_h() * d.out_w();
    const auto input = random_vec(43, in_elems);
    const auto weight = random_vec(47, w_elems);
    const auto grad_out = random_vec(53, out_elems);
    for (KernelPolicy policy :
         {KernelPolicy::kHardwareAgnostic, KernelPolicy::kDeterministic}) {
      std::vector<float> gi_ref(static_cast<std::size_t>(in_elems));
      std::vector<float> gw_ref(static_cast<std::size_t>(w_elems));
      std::vector<float> gb_ref(static_cast<std::size_t>(d.out_channels));
      ExecContext sctx = make_ctx(SimdBackend::kScalar);
      sctx.policy = policy;
      conv2d_backward(sctx, d, input, weight, grad_out, gi_ref, gw_ref,
                      gb_ref);
      for (SimdBackend backend : vector_backends()) {
        for (int threads : {1, 4}) {
          std::vector<float> gi(static_cast<std::size_t>(in_elems));
          std::vector<float> gw(static_cast<std::size_t>(w_elems));
          std::vector<float> gb(static_cast<std::size_t>(d.out_channels));
          ExecContext ctx = make_ctx(backend, threads);
          ctx.policy = policy;
          conv2d_backward(ctx, d, input, weight, grad_out, gi, gw, gb);
          const auto where = [&] {
            return std::string(simd_backend_name(backend)) +
                   " threads=" + std::to_string(threads) +
                   " policy=" + std::to_string(static_cast<int>(policy)) +
                   " in_w=" + std::to_string(d.in_w) +
                   " stride=" + std::to_string(d.stride) +
                   " groups=" + std::to_string(d.groups);
          };
          EXPECT_TRUE(bitwise_equal(gi_ref, gi)) << where();
          EXPECT_TRUE(bitwise_equal(gw_ref, gw)) << where();
          EXPECT_TRUE(bitwise_equal(gb_ref, gb)) << where();
        }
      }
    }
  }
}

// gemm_nt reads B as [n, k]: the scalar path dots against its rows in
// place, the vector backends pack B^T straight into their column tiles and
// a custom D2 panel gets a plain transpose.  Every route must equal the
// scalar gemm on the explicitly transposed B, for m on both sides of the
// packing threshold (8) and n on both sides of 128.
TEST(Simd, GemmNtBitwiseAcrossBackendsThreadsAndPolicies) {
  static const int kahan =
      register_custom_gemm("kahan_nt_sweep", kahan_dot, kahan_panel());
  const std::int64_t shapes[][3] = {{1, 17, 9},    {5, 100, 64},
                                    {7, 127, 33},  {3, 128, 16},
                                    {8, 72, 64},   {8, 129, 40},
                                    {16, 256, 17}, {12, 96, 100}};
  struct PolicyCase {
    KernelPolicy policy;
    DeviceType device;
    int custom;
  };
  const PolicyCase policies[] = {
      {KernelPolicy::kDeterministic, DeviceType::kV100, 0},
      {KernelPolicy::kDeterministic, DeviceType::kT4, 0},
      {KernelPolicy::kHardwareAgnostic, DeviceType::kV100, 0},
      {KernelPolicy::kHardwareAgnostic, DeviceType::kP100, kahan},
  };
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_vec(59 * static_cast<std::uint64_t>(m + n), m * k);
    const auto b_nk = random_vec(61 * static_cast<std::uint64_t>(n + k), n * k);
    std::vector<float> b_kn(static_cast<std::size_t>(k * n));
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        b_kn[static_cast<std::size_t>(kk * n + j)] =
            b_nk[static_cast<std::size_t>(j * k + kk)];
      }
    }
    for (const PolicyCase& pc : policies) {
      std::vector<float> ref(static_cast<std::size_t>(m * n), 0.5f);
      ExecContext sctx = make_ctx(SimdBackend::kScalar);
      sctx.policy = pc.policy;
      sctx.device = pc.device;
      sctx.custom_gemm = pc.custom;
      gemm(sctx, m, n, k, a, b_kn, ref, true);
      for (SimdBackend backend : available_simd_backends()) {
        for (int threads : {1, 4}) {
          std::vector<float> got(static_cast<std::size_t>(m * n), 0.5f);
          ExecContext ctx = make_ctx(backend, threads);
          ctx.policy = pc.policy;
          ctx.device = pc.device;
          ctx.custom_gemm = pc.custom;
          gemm_nt(ctx, m, n, k, a, b_nk, got, true);
          EXPECT_TRUE(bitwise_equal(ref, got))
              << simd_backend_name(backend) << " threads=" << threads
              << " policy=" << static_cast<int>(pc.policy)
              << " custom=" << pc.custom << " m=" << m << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

TEST(Simd, ElementwiseBodiesBitwise) {
  // Sizes straddling both lane widths plus a large run.
  const std::int64_t sizes[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 1000, 1025};
  for (std::int64_t n : sizes) {
    const auto x = random_vec(61, n);
    const auto g = random_vec(67, n);
    auto s = random_vec(71, n);
    for (auto& v : s) v = 1.0f / (1.0f + v * v);  // sigmoid-like in (0, 1]
    const auto gamma = random_vec(73, n);
    const auto beta = random_vec(79, n);
    const float mean = 0.125f, inv_std = 1.75f, c = 3.0f;

    std::vector<float> relu_ref(static_cast<std::size_t>(n));
    std::vector<float> relu_bwd_ref(static_cast<std::size_t>(n));
    std::vector<float> sig_bwd_ref(static_cast<std::size_t>(n));
    std::vector<float> add_s_ref = g;
    std::vector<float> add_v_ref = g;
    std::vector<float> div_ref = g;
    std::vector<float> xhat_ref(static_cast<std::size_t>(n));
    std::vector<float> affine_ref(static_cast<std::size_t>(n));
    std::vector<float> xhat2_ref(static_cast<std::size_t>(n));
    std::vector<float> affine2_ref(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      relu_ref[u] = x[u] > 0.0f ? x[u] : 0.0f;
      relu_bwd_ref[u] = x[u] > 0.0f ? g[u] : 0.0f;
      sig_bwd_ref[u] = g[u] * s[u] * (1.0f - s[u]);
      add_s_ref[u] += c;
      add_v_ref[u] += x[u];
      div_ref[u] /= c;
      xhat_ref[u] = (x[u] - mean) * inv_std;
      affine_ref[u] = gamma[u] * xhat_ref[u] + beta[u];
      xhat2_ref[u] = (x[u] - mean) * inv_std;
      affine2_ref[u] = gamma[0] * xhat2_ref[u] + beta[0];
    }
    for (SimdBackend backend : vector_backends()) {
      const SimdOps& ops = simd_ops(backend);
      std::vector<float> out(static_cast<std::size_t>(n));
      ops.relu_fwd(x.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(relu_ref, out)) << "relu n=" << n;
      ops.relu_bwd(x.data(), g.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(relu_bwd_ref, out)) << "relu_bwd n=" << n;
      ops.sigmoid_bwd(s.data(), g.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(sig_bwd_ref, out)) << "sigmoid_bwd n=" << n;
      out = g;
      ops.add_scalar(out.data(), c, n);
      EXPECT_TRUE(bitwise_equal(add_s_ref, out)) << "add_scalar n=" << n;
      out = g;
      ops.add_vec(out.data(), x.data(), n);
      EXPECT_TRUE(bitwise_equal(add_v_ref, out)) << "add_vec n=" << n;
      out = g;
      ops.div_scalar(out.data(), c, n);
      EXPECT_TRUE(bitwise_equal(div_ref, out)) << "div_scalar n=" << n;
      std::vector<float> xhat(static_cast<std::size_t>(n));
      ops.norm_affine_vec(x.data(), gamma.data(), beta.data(), mean, inv_std,
                          xhat.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(xhat_ref, xhat)) << "norm xhat n=" << n;
      EXPECT_TRUE(bitwise_equal(affine_ref, out)) << "norm out n=" << n;
      ops.norm_affine_scalar(x.data(), gamma[0], beta[0], mean, inv_std,
                             xhat.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(xhat2_ref, xhat)) << "normS xhat n=" << n;
      EXPECT_TRUE(bitwise_equal(affine2_ref, out)) << "normS out n=" << n;
    }
  }

  // The transformer-step bodies over every length 1..3L+1 of the widest
  // backend (full blocks plus every masked tail), with +-0, +-inf and NaN
  // placed so no element sees more than one special input.
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  // Element i carries specials[(i / 3) % 5] in input (i / 3) % inputs when
  // i % 3 == 0; the other elements are finite.
  const auto sprinkle = [&](std::vector<float>& v, int input, int inputs) {
    for (std::size_t i = 0; i < v.size(); i += 3) {
      if (static_cast<int>((i / 3) % static_cast<std::size_t>(inputs)) ==
          input) {
        v[i] = specials[(i / 3) % 5];
      }
    }
  };
  for (std::int64_t n = 1; n <= 3 * 16 + 1; ++n) {
    auto x = random_vec(101, n);
    auto g = random_vec(103, n);
    sprinkle(x, 0, 2);
    sprinkle(g, 1, 2);
    // GELU's t is the forward's tanh(u) of the same x.
    std::vector<float> t(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = std::tanh(kGeluC * (x[i] + kGeluA * x[i] * x[i] * x[i]));
    }

    std::vector<float> mul_ref(t.size()), gelu_ref(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      mul_ref[i] = x[i] * g[i];
      const float du = kGeluC * (1.0f + 3.0f * kGeluA * x[i] * x[i]);
      const float d =
          0.5f * (1.0f + t[i]) + 0.5f * x[i] * (1.0f - t[i] * t[i]) * du;
      gelu_ref[i] = g[i] * d;
    }
    for (SimdBackend backend : vector_backends()) {
      const SimdOps& ops = simd_ops(backend);
      std::vector<float> out(t.size());
      ops.mul_vec(x.data(), g.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(mul_ref, out)) << "mul_vec n=" << n;
      ops.gelu_bwd(x.data(), t.data(), g.data(), out.data(), n);
      EXPECT_TRUE(bitwise_equal(gelu_ref, out)) << "gelu_bwd n=" << n;
    }

    // Adam: specials in grad, m, v (kept >= 0 when finite) and value.
    auto m0 = random_vec(109, n);
    auto v0 = random_vec(113, n);
    auto p0 = random_vec(127, n);
    for (auto& e : v0) e = e * e;
    auto grad = random_vec(131, n);
    sprinkle(grad, 0, 4);
    sprinkle(m0, 1, 4);
    sprinkle(v0, 2, 4);
    sprinkle(p0, 3, 4);
    for (float wd : {0.0f, 0.01f}) {
      const AdamArgs args{.beta1 = 0.9f,
                          .beta2 = 0.999f,
                          .lr = 1e-3f,
                          .eps = 1e-8f,
                          .weight_decay = wd,
                          .bc1 = 1.0f - std::pow(0.9f, 3.0f),
                          .bc2 = 1.0f - std::pow(0.999f, 3.0f)};
      std::vector<float> m_ref = m0, v_ref = v0, p_ref = p0;
      for (std::size_t j = 0; j < p_ref.size(); ++j) {
        const float gj = grad[j];
        m_ref[j] = args.beta1 * m_ref[j] + (1.0f - args.beta1) * gj;
        v_ref[j] = args.beta2 * v_ref[j] + (1.0f - args.beta2) * gj * gj;
        const float mhat = m_ref[j] / args.bc1;
        const float vhat = v_ref[j] / args.bc2;
        float update = args.lr * mhat / (std::sqrt(vhat) + args.eps);
        if (wd != 0.0f) update += args.lr * wd * p_ref[j];
        p_ref[j] -= update;
      }
      for (SimdBackend backend : vector_backends()) {
        std::vector<float> m = m0, v = v0, p = p0;
        simd_ops(backend).adam_update(args, grad.data(), m.data(), v.data(),
                                      p.data(), n);
        EXPECT_TRUE(bitwise_equal(m_ref, m)) << "adam m n=" << n << " wd=" << wd;
        EXPECT_TRUE(bitwise_equal(v_ref, v)) << "adam v n=" << n << " wd=" << wd;
        EXPECT_TRUE(bitwise_equal(p_ref, p))
            << "adam value n=" << n << " wd=" << wd;
      }
    }

    // SGD: specials in grad, momentum and value.
    auto sgd_grad = random_vec(137, n);
    auto sgd_m0 = random_vec(139, n);
    auto sgd_p0 = random_vec(149, n);
    sprinkle(sgd_grad, 0, 3);
    sprinkle(sgd_m0, 1, 3);
    sprinkle(sgd_p0, 2, 3);
    for (float mu : {0.0f, 0.9f}) {
      for (float wd : {0.0f, 0.01f}) {
        const SgdArgs args{.lr = 0.05f, .momentum = mu, .weight_decay = wd};
        std::vector<float> m_ref = sgd_m0, p_ref = sgd_p0;
        for (std::size_t j = 0; j < p_ref.size(); ++j) {
          float gj = sgd_grad[j];
          if (wd != 0.0f) gj += wd * p_ref[j];
          if (mu != 0.0f) {
            m_ref[j] = mu * m_ref[j] + gj;
            gj = m_ref[j];
          }
          p_ref[j] -= args.lr * gj;
        }
        for (SimdBackend backend : vector_backends()) {
          std::vector<float> m = sgd_m0, p = sgd_p0;
          simd_ops(backend).sgd_update(args, sgd_grad.data(), m.data(),
                                       p.data(), n);
          EXPECT_TRUE(bitwise_equal(m_ref, m))
              << "sgd m n=" << n << " mu=" << mu << " wd=" << wd;
          EXPECT_TRUE(bitwise_equal(p_ref, p))
              << "sgd value n=" << n << " mu=" << mu << " wd=" << wd;
        }
      }
    }
  }
}

TEST(Simd, DropoutMaskBitwiseAcrossBackendsAndThreads) {
  // Every length 0..300 (each buffer phase, each batch tail of both lane
  // widths, the interleaved batches) plus 4097, from every buffer position,
  // at counters whose blocks stay in the low word, carry into the high word
  // or wrap past 2^64.  The reference is n next_float() draws.
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4097);
  const std::uint64_t counters[] = {5, (std::uint64_t{1} << 32) - 3,
                                    ~std::uint64_t{0} - 2};
  const auto forward = [](const rng::PhiloxState& start, float p,
                          std::int64_t n, SimdBackend backend, int threads,
                          std::vector<float>* mask, rng::PhiloxState* end) {
    ExecContext exec = make_ctx(backend, threads);
    rng::StreamSet streams;
    streams.seed_all(29, 0);
    rng::Philox& torch = streams.stream(rng::StreamKind::kTorch);
    torch.set_state(start);
    autograd::StepContext ctx;
    ctx.exec = &exec;
    ctx.rng = &streams;
    ctx.training = true;
    nn::Dropout layer(p);
    // x = 1 makes the output the mask itself: 1 * scale and 1 * 0.
    const tensor::Tensor out = layer.forward(
        ctx, tensor::Tensor(tensor::Shape{n},
                            std::vector<float>(static_cast<std::size_t>(n),
                                               1.0f)));
    mask->assign(out.raw(), out.raw() + out.numel());
    *end = torch.state();
  };
  rng::Philox live(19);
  for (int i = 0; i < 5; ++i) live.next_u32();
  for (const float p : {0.1f, 0.5f}) {
    const float scale = 1.0f / (1.0f - p);
    for (const std::uint64_t counter : counters) {
      for (std::uint32_t pos = 0; pos <= 4; ++pos) {
        rng::PhiloxState start = live.state();
        start.counter = counter;
        start.buffer_pos = pos;
        for (const std::int64_t n : lengths) {
          rng::Philox ref;
          ref.set_state(start);
          std::vector<float> want(static_cast<std::size_t>(n));
          for (auto& v : want) v = ref.next_float() >= p ? scale : 0.0f;
          for (SimdBackend backend : available_simd_backends()) {
            for (int threads : {1, 4}) {
              std::vector<float> got;
              rng::PhiloxState end;
              forward(start, p, n, backend, threads, &got, &end);
              const std::string where =
                  std::string(simd_backend_name(backend)) +
                  " threads=" + std::to_string(threads) +
                  " p=" + std::to_string(p) +
                  " counter=" + std::to_string(counter) +
                  " pos=" + std::to_string(pos) + " n=" + std::to_string(n);
              ASSERT_TRUE(bitwise_equal(want, got)) << "mask " << where;
              ASSERT_EQ(ref.state(), end) << "state " << where;
            }
          }
        }
      }
    }
  }
}

TEST(Simd, AttentionBitwiseAcrossBackendsAndThreads) {
  struct Dims {
    std::int64_t t, heads, dim;
  };
  // Head dims 4, 3, 8, 16 and 8: single tokens, head dims below, at and
  // past one AVX2 vector, and key counts that leave masked tails.
  const Dims cases[] = {{1, 1, 4}, {5, 2, 6}, {16, 2, 16}, {16, 2, 32},
                        {17, 3, 24}};
  struct Run {
    std::vector<float> out, probs, dx;
    std::vector<std::vector<float>> grads;
  };
  // With `specials`, d_ctx (= gy * W_o) gets a +0 row and a NaN row, and
  // inputs scaled by 16 push probabilities to exactly +0, so the dV/dK
  // chains see +-0 terms (p_ij * d_ctx_i, ds_ij = -0 where p_ij = 0) and
  // NaN terms.  W_o's GEMM starts every chain at +0, so no d_ctx entry is
  // -0; the -0 operands are those ds entries.
  const auto run = [](const Dims& d, bool specials, SimdBackend backend,
                      int threads) {
    ExecContext exec = make_ctx(backend, threads);
    rng::StreamSet streams;
    streams.seed_all(5, 0);
    autograd::StepContext ctx;
    ctx.exec = &exec;
    ctx.rng = &streams;
    nn::MultiheadSelfAttention layer("attn", d.dim, d.heads);
    rng::Philox init(131);
    layer.init_weights(init);
    autograd::ParameterStore store;
    layer.register_parameters(store);
    store.zero_grads();
    const std::int64_t batch = 2;
    auto x = random_vec(137, batch * d.t * d.dim);
    auto gy = random_vec(139, batch * d.t * d.dim);
    if (specials) {
      for (auto& v : x) v *= 16.0f;
      std::fill(gy.begin(), gy.begin() + d.dim, 0.0f);
      gy[static_cast<std::size_t>((2 * d.t - 1) * d.dim)] =
          std::numeric_limits<float>::quiet_NaN();
    }
    const tensor::Shape shape{batch, d.t, d.dim};
    const tensor::Tensor out =
        layer.forward(ctx, tensor::Tensor(shape, x));
    const tensor::Tensor dx =
        layer.backward(ctx, tensor::Tensor(shape, gy));
    Run r;
    r.out.assign(out.raw(), out.raw() + out.numel());
    r.probs.assign(layer.probs().raw(),
                   layer.probs().raw() + layer.probs().numel());
    r.dx.assign(dx.raw(), dx.raw() + dx.numel());
    for (const auto* p : store.all()) {
      r.grads.emplace_back(p->grad.raw(), p->grad.raw() + p->grad.numel());
    }
    return r;
  };
  for (const Dims& d : cases) {
    for (const bool specials : {false, true}) {
      const Run ref = run(d, specials, SimdBackend::kScalar, 1);
      if (specials && d.t > 1) {
        EXPECT_NE(std::find(ref.probs.begin(), ref.probs.end(), 0.0f),
                  ref.probs.end())
            << "no probability underflowed to +0 at t=" << d.t;
      }
      for (SimdBackend backend : available_simd_backends()) {
        for (int threads : {1, 4}) {
          const Run got = run(d, specials, backend, threads);
          const std::string where =
              std::string(simd_backend_name(backend)) +
              " threads=" + std::to_string(threads) +
              " specials=" + std::to_string(specials) + " t=" +
              std::to_string(d.t) + " heads=" + std::to_string(d.heads) +
              " dim=" + std::to_string(d.dim);
          EXPECT_TRUE(bitwise_equal(ref.out, got.out)) << "out " << where;
          EXPECT_TRUE(bitwise_equal(ref.probs, got.probs))
              << "probs " << where;
          EXPECT_TRUE(bitwise_equal(ref.dx, got.dx)) << "dx " << where;
          ASSERT_EQ(ref.grads.size(), got.grads.size());
          for (std::size_t i = 0; i < ref.grads.size(); ++i) {
            EXPECT_TRUE(bitwise_equal(ref.grads[i], got.grads[i]))
                << "param grad " << i << " " << where;
          }
        }
      }
    }
  }
}

TEST(Simd, GemmEntryPointWithCustomKahanPanelBitwise) {
  // The custom-D2 path: a kernel registered WITH a panel runs vectorized
  // against unpacked B and must match the scalar packed path bit-for-bit.
  static const int handle =
      register_custom_gemm("kahan_simd_sweep", kahan_dot, kahan_panel());
  const std::int64_t m = 5, n = 67, k = 43;
  const auto a = random_vec(83, m * k);
  const auto b = random_vec(89, k * n);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  ExecContext sctx = make_ctx(SimdBackend::kScalar);
  sctx.policy = KernelPolicy::kHardwareAgnostic;
  sctx.custom_gemm = handle;
  gemm(sctx, m, n, k, a, b, ref, false);
  for (SimdBackend backend : vector_backends()) {
    for (int threads : {1, 4}) {
      std::vector<float> got(static_cast<std::size_t>(m * n));
      ExecContext ctx = make_ctx(backend, threads);
      ctx.policy = KernelPolicy::kHardwareAgnostic;
      ctx.custom_gemm = handle;
      gemm(ctx, m, n, k, a, b, got, false);
      EXPECT_TRUE(bitwise_equal(ref, got))
          << simd_backend_name(backend) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace easyscale::kernels
