// Bitwise checks of the operand-movement and row-blocked SIMD bodies:
// the block transpose, the row-blocked GEMM and the same-geometry
// im2col/col2im.  Every body is compared with memcmp against the scalar
// reference loops on every backend the host runs, directly and through
// the public entry points at several thread counts (so parallel_for chunk
// edges land mid-row and mid-plane).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"

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

/// Random values with every 7th a special: the x86 default NaN (the one
/// inf - inf produces, so NaN sums carry one payload whatever the operand
/// order), +inf, -inf or -0.0.
std::vector<float> special_vec(std::uint64_t seed, std::int64_t n) {
  std::vector<float> v = random_vec(seed, n);
  const float specials[] = {std::bit_cast<float>(0xFFC00000u),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f};
  for (std::size_t i = 0; i < v.size(); i += 7) {
    v[i] = specials[(i / 7 + seed) % 4];
  }
  return v;
}

ExecContext make_ctx(SimdBackend backend, int threads = 1) {
  ExecContext ctx;
  ctx.simd = backend;
  ctx.intra_op_threads = threads;
  return ctx;
}

std::vector<SimdBackend> vector_backends() {
  std::vector<SimdBackend> out;
  for (SimdBackend b : available_simd_backends()) {
    if (b != SimdBackend::kScalar) out.push_back(b);
  }
  return out;
}

constexpr GemmVariant kVariants[] = {
    GemmVariant::kSequential, GemmVariant::kInterleaved2,
    GemmVariant::kInterleaved4, GemmVariant::kInterleaved8,
    GemmVariant::kBlocked8};

// --- Transpose ------------------------------------------------------------

TEST(SimdTranspose, BodyMatchesScalarLoopOverOddShapesAndStrides) {
  for (SimdBackend backend : vector_backends()) {
    const SimdOps& ops = simd_ops(backend);
    ASSERT_NE(ops.transpose, nullptr);
    for (std::int64_t rows = 1; rows <= 33; ++rows) {
      for (std::int64_t cols = 1; cols <= 33; ++cols) {
        for (std::int64_t extra : {0, 3}) {
          const std::int64_t lds = cols + extra, ldd = rows + 2 * extra;
          const auto src = special_vec(
              static_cast<std::uint64_t>(rows * 100 + cols), rows * lds);
          // Canary-filled destinations: gaps between rows must survive.
          std::vector<float> ref(static_cast<std::size_t>(cols * ldd), 7.5f);
          std::vector<float> got = ref;
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < cols; ++c) {
              ref[static_cast<std::size_t>(c * ldd + r)] =
                  src[static_cast<std::size_t>(r * lds + c)];
            }
          }
          ops.transpose(src.data(), rows, cols, lds, got.data(), ldd);
          EXPECT_TRUE(bitwise_equal(ref, got))
              << simd_backend_name(backend) << " rows=" << rows
              << " cols=" << cols << " lds=" << lds << " ldd=" << ldd;
        }
      }
    }
  }
}

TEST(SimdTranspose, EntryPointBitwiseAcrossThreads) {
  const std::int64_t shapes[][2] = {{8, 72}, {16, 144}, {33, 17}, {1, 300},
                                    {300, 1}, {64, 65}};
  for (const auto& s : shapes) {
    const std::int64_t rows = s[0], cols = s[1];
    const auto src = special_vec(static_cast<std::uint64_t>(rows + 3 * cols),
                                 rows * cols);
    std::vector<float> ref(src.size());
    transpose(make_ctx(SimdBackend::kScalar), rows, cols, src, ref);
    for (SimdBackend backend : vector_backends()) {
      for (int threads : {1, 3, 4}) {
        std::vector<float> got(src.size());
        transpose(make_ctx(backend, threads), rows, cols, src, got);
        EXPECT_TRUE(bitwise_equal(ref, got))
            << simd_backend_name(backend) << " threads=" << threads
            << " rows=" << rows << " cols=" << cols;
      }
    }
  }
}

// --- Row-blocked GEMM -----------------------------------------------------

/// B[k, n] in the packed column-tile layout (simd.hpp gemm_tile_cols).
std::vector<float> pack_b(const std::vector<float>& b, std::int64_t k,
                          std::int64_t n, std::int64_t tw) {
  const std::int64_t ntiles = (n + tw - 1) / tw;
  std::vector<float> packed(static_cast<std::size_t>(ntiles * k * tw), 0.0f);
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t t = j / tw, p = j % tw;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      packed[static_cast<std::size_t>(t * k * tw + kk * tw + p)] =
          b[static_cast<std::size_t>(kk * n + j)];
    }
  }
  return packed;
}

// Every variant, m covering every remainder of R = 4, n with and
// without masked tails and across packed tiles, k below and above every
// interleave width; rows [i0, i1) inside C, accumulate on and off, packed
// and unpacked B.
TEST(GemmRows, BodyMatchesScalarReferenceEveryVariant) {
  const std::int64_t ms[] = {1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17};
  const std::int64_t ns[] = {1, 7, 16, 17, 33, 100, 130};
  const std::int64_t ks[] = {1, 3, 8, 9, 16, 17, 33};
  for (SimdBackend backend : vector_backends()) {
    const SimdOps& ops = simd_ops(backend);
    ASSERT_NE(ops.gemm_rows, nullptr);
    for (std::int64_t m : ms) {
      for (std::int64_t n : ns) {
        for (std::int64_t k : ks) {
          const auto a = random_vec(static_cast<std::uint64_t>(m * 7 + k), m * k);
          const auto b =
              random_vec(static_cast<std::uint64_t>(n * 11 + k), k * n);
          const auto packed = pack_b(b, k, n, ops.gemm_tile_cols);
          // Skip the first row when m > 1: i0 need not be 0.
          const std::int64_t i0 = m > 1 ? 1 : 0;
          for (GemmVariant v : kVariants) {
            for (bool accumulate : {false, true}) {
              std::vector<float> ref(static_cast<std::size_t>(m * n), 0.25f);
              gemm_variant(v, m, n, k, a, b, ref, accumulate);
              // Row 0 keeps its canary when skipped.
              for (std::int64_t j = 0; i0 == 1 && j < n; ++j) {
                ref[static_cast<std::size_t>(j)] = 0.25f;
              }
              for (bool use_packed : {false, true}) {
                std::vector<float> got(static_cast<std::size_t>(m * n), 0.25f);
                ops.gemm_rows(v, a.data(),
                              use_packed ? packed.data() : b.data(), use_packed,
                              k, n, i0, m, got.data(), accumulate);
                EXPECT_TRUE(bitwise_equal(ref, got))
                    << simd_backend_name(backend)
                    << " variant=" << static_cast<int>(v) << " m=" << m
                    << " n=" << n << " k=" << k << " acc=" << accumulate
                    << " packed=" << use_packed;
              }
            }
          }
        }
      }
    }
  }
}

// Through gemm_variant the whole rows of each parallel_for chunk take the
// row-blocked body and the chunk's partial edge rows the per-row panels.
// These shapes split into chunks whose edges land mid-row at 3 and 4
// threads (grain = 16384 / k outputs), on packed (m >= 8, n >= 128) and
// unpacked B.
TEST(GemmRows, ChunkEdgesMidRowBitwiseAcrossThreads) {
  const std::int64_t shapes[][3] = {{144, 16, 16}, {37, 100, 16}, {13, 130, 64},
                                    {72, 64, 8},   {9, 257, 40},  {50, 33, 128}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_vec(static_cast<std::uint64_t>(m + 5 * k), m * k);
    const auto b = random_vec(static_cast<std::uint64_t>(n + 9 * k), k * n);
    for (GemmVariant v : kVariants) {
      for (bool accumulate : {false, true}) {
        std::vector<float> ref(static_cast<std::size_t>(m * n), -0.5f);
        gemm_variant(make_ctx(SimdBackend::kScalar), v, m, n, k, a, b, ref,
                     accumulate);
        for (SimdBackend backend : vector_backends()) {
          for (int threads : {1, 3, 4}) {
            std::vector<float> got(static_cast<std::size_t>(m * n), -0.5f);
            gemm_variant(make_ctx(backend, threads), v, m, n, k, a, b, got,
                         accumulate);
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

// gemm_nt packs B^T through the block transpose and gemm_tn transposes A;
// both must still equal the scalar path.
TEST(GemmRows, TransposedOperandFormsBitwise) {
  const std::int64_t shapes[][3] = {{8, 72, 64}, {16, 144, 16}, {5, 33, 17},
                                    {40, 130, 24}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const auto a = random_vec(static_cast<std::uint64_t>(3 * m + k), m * k);
    const auto b = random_vec(static_cast<std::uint64_t>(5 * n + k), k * n);
    std::vector<float> ref_nt(static_cast<std::size_t>(m * n), 1.0f);
    std::vector<float> ref_tn = ref_nt;
    const ExecContext scalar = make_ctx(SimdBackend::kScalar);
    gemm_nt(scalar, m, n, k, a, b, ref_nt, true);
    gemm_tn(scalar, m, n, k, a, b, ref_tn, true);
    for (SimdBackend backend : vector_backends()) {
      for (int threads : {1, 4}) {
        const ExecContext ctx = make_ctx(backend, threads);
        std::vector<float> got_nt(static_cast<std::size_t>(m * n), 1.0f);
        std::vector<float> got_tn = got_nt;
        gemm_nt(ctx, m, n, k, a, b, got_nt, true);
        gemm_tn(ctx, m, n, k, a, b, got_tn, true);
        EXPECT_TRUE(bitwise_equal(ref_nt, got_nt))
            << "nt " << simd_backend_name(backend) << " m=" << m;
        EXPECT_TRUE(bitwise_equal(ref_tn, got_tn))
            << "tn " << simd_backend_name(backend) << " m=" << m;
      }
    }
  }
}

// --- Same-geometry im2col / col2im ----------------------------------------

/// One same-or-not geometry: im2col and col2im of every group on every
/// vector backend at 1 and 4 threads, against the scalar loops.
void expect_columns_match(const Conv2dDims& d, const std::vector<float>& input,
                          const std::vector<float>& cols,
                          const std::vector<float>& grad0,
                          const char* data) {
  for (std::int64_t g = 0; g < d.groups; ++g) {
    const ExecContext scalar = make_ctx(SimdBackend::kScalar);
    std::vector<float> ref_cols(cols.size(), 3.0f);
    im2col(scalar, d, input, g, ref_cols);
    std::vector<float> ref_grad = grad0;
    col2im(scalar, d, cols, g, ref_grad);
    for (SimdBackend backend : vector_backends()) {
      for (int threads : {1, 4}) {
        const ExecContext ctx = make_ctx(backend, threads);
        std::vector<float> got_cols(cols.size(), 3.0f);
        im2col(ctx, d, input, g, got_cols);
        std::vector<float> got_grad = grad0;
        col2im(ctx, d, cols, g, got_grad);
        EXPECT_TRUE(bitwise_equal(ref_cols, got_cols))
            << "im2col " << simd_backend_name(backend) << " " << d.in_h
            << "x" << d.in_w << " k=" << d.kernel_h << " pad=" << d.pad
            << " g=" << g << " threads=" << threads << " " << data;
        EXPECT_TRUE(bitwise_equal(ref_grad, got_grad))
            << "col2im " << simd_backend_name(backend) << " " << d.in_h
            << "x" << d.in_w << " k=" << d.kernel_h << " pad=" << d.pad
            << " g=" << g << " threads=" << threads << " " << data;
      }
    }
  }
}

// Planes 1x1 to 16x16 (widths that do not divide the lane count
// included), kernels 1/3/5 with pads 0-2 — "same" where kernel = 2 pad + 1,
// the generic loops elsewhere.  The data carry NaN, +-inf and -0.0, and a
// second pass is all -0.0: a lane a tap does not reach must be skipped,
// since adding +0 would turn the -0.0 sums into +0.0.
TEST(ConvSame, Im2colCol2imBitwiseOnEveryBackendAndThreadCount) {
  for (std::int64_t h = 1; h <= 16; ++h) {
    for (std::int64_t w = 1; w <= 16; ++w) {
      for (std::int64_t kernel : {1, 3, 5}) {
        for (std::int64_t pad = 0; pad <= 2; ++pad) {
          Conv2dDims d{};
          d.batch = 1;
          d.in_channels = 6;
          d.out_channels = 2;
          d.in_h = h;
          d.in_w = w;
          d.kernel_h = kernel;
          d.kernel_w = kernel;
          d.pad = pad;
          d.groups = 2;
          if (d.out_h() <= 0 || d.out_w() <= 0) continue;
          const std::int64_t nplane = d.in_channels * h * w;
          const std::int64_t ncols = d.in_channels / d.groups * kernel *
                                     kernel * d.out_h() * d.out_w();
          const auto seed =
              static_cast<std::uint64_t>(h * 1000 + w * 10 + kernel + pad);
          expect_columns_match(d, special_vec(seed, nplane),
                               special_vec(seed + 1, ncols),
                               special_vec(seed + 2, nplane), "specials");
          expect_columns_match(d, std::vector<float>(nplane, -0.0f),
                               std::vector<float>(ncols, -0.0f),
                               std::vector<float>(nplane, -0.0f), "all -0.0");
        }
      }
    }
  }
}

// The bodies themselves, over channel sub-ranges, against the generic
// loops: a chunk [c0, c1) writes only its own cols rows and planes.
TEST(ConvSame, BodiesTouchOnlyTheirChannelRange) {
  for (SimdBackend backend : vector_backends()) {
    const SimdOps& ops = simd_ops(backend);
    ASSERT_NE(ops.im2col_same, nullptr);
    ASSERT_NE(ops.col2im_same, nullptr);
    for (std::int64_t side : {4, 7, 8, 16}) {
      const ConvSameArgs geo{side, side, side, 3, 3, 1};
      ASSERT_TRUE(geo.fits());
      const std::int64_t channels = 5, plane = side * side, taps = 9;
      const auto input = special_vec(static_cast<std::uint64_t>(side),
                                     channels * plane);
      const auto cols = special_vec(static_cast<std::uint64_t>(side) + 9,
                                    channels * taps * plane);
      Conv2dDims d{};
      d.batch = 1;
      d.in_channels = channels;
      d.out_channels = 1;
      d.in_h = side;
      d.in_w = side;
      d.kernel_h = 3;
      d.kernel_w = 3;
      d.pad = 1;
      const ExecContext scalar = make_ctx(SimdBackend::kScalar);
      std::vector<float> ref_cols(cols.size());
      im2col(scalar, d, input, 0, ref_cols);
      std::vector<float> ref_grad = input;
      col2im(scalar, d, cols, 0, ref_grad);
      // Channels [1, 4) only; the rest keep their canaries.
      std::vector<float> got_cols(cols.size(), 9.0f);
      ops.im2col_same(geo, input.data(), 1, 4, got_cols.data());
      std::vector<float> got_grad = input;
      ops.col2im_same(geo, cols.data(), 1, 4, got_grad.data());
      for (std::int64_t c = 0; c < channels; ++c) {
        const bool mine = c >= 1 && c < 4;
        const auto row0 = static_cast<std::size_t>(c * taps * plane);
        const auto p0 = static_cast<std::size_t>(c * plane);
        for (std::size_t i = 0; i < static_cast<std::size_t>(taps * plane); ++i) {
          const float want = mine ? ref_cols[row0 + i] : 9.0f;
          ASSERT_EQ(std::memcmp(&want, &got_cols[row0 + i], sizeof(float)), 0)
              << simd_backend_name(backend) << " side=" << side << " c=" << c;
        }
        for (std::size_t i = 0; i < static_cast<std::size_t>(plane); ++i) {
          const float want = mine ? ref_grad[p0 + i] : input[p0 + i];
          ASSERT_EQ(std::memcmp(&want, &got_grad[p0 + i], sizeof(float)), 0)
              << simd_backend_name(backend) << " side=" << side << " c=" << c;
        }
      }
    }
  }
}

// The pointwise (1x1, stride 1, pad 0) fast path: the columns are the input
// itself and dX accumulates straight into grad_input; forward and backward
// must equal the scalar im2col + col2im path at every backend and thread
// count, grouped and not, with a non-zero incoming grad_input.
TEST(ConvSame, PointwiseConvForwardBackwardBitwise) {
  for (std::int64_t groups : {1, 2}) {
    Conv2dDims d{};
    d.batch = 3;
    d.in_channels = 8;
    d.out_channels = 6;
    d.in_h = 5;
    d.in_w = 7;
    d.kernel_h = 1;
    d.kernel_w = 1;
    d.groups = groups;
    const std::int64_t cg = d.in_channels / groups;
    const auto input = special_vec(21, d.batch * d.in_channels * 35);
    const auto weight = random_vec(22, d.out_channels * cg);
    const auto bias = random_vec(23, d.out_channels);
    const auto grad_out = random_vec(24, d.batch * d.out_channels * 35);
    const auto gin0 = special_vec(25, d.batch * d.in_channels * 35);
    auto run = [&](const ExecContext& ctx, std::vector<float>& out,
                   std::vector<float>& gin, std::vector<float>& gw,
                   std::vector<float>& gb) {
      out.assign(grad_out.size(), 0.0f);
      gin = gin0;
      gw.assign(weight.size(), 0.5f);
      gb.assign(bias.size(), 0.0f);
      conv2d_forward(ctx, d, input, weight, bias, out);
      conv2d_backward(ctx, d, input, weight, grad_out, gin, gw, gb);
    };
    std::vector<float> ro, rgi, rgw, rgb;
    run(make_ctx(SimdBackend::kScalar), ro, rgi, rgw, rgb);
    for (SimdBackend backend : available_simd_backends()) {
      for (int threads : {1, 4}) {
        std::vector<float> o, gi, gw, gb;
        run(make_ctx(backend, threads), o, gi, gw, gb);
        EXPECT_TRUE(bitwise_equal(ro, o)) << simd_backend_name(backend);
        EXPECT_TRUE(bitwise_equal(rgi, gi)) << simd_backend_name(backend);
        EXPECT_TRUE(bitwise_equal(rgw, gw)) << simd_backend_name(backend);
        EXPECT_TRUE(bitwise_equal(rgb, gb)) << simd_backend_name(backend);
      }
    }
  }
}

}  // namespace
}  // namespace easyscale::kernels
