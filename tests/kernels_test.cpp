#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"
#include "kernels/scatter.hpp"
#include "rng/sampling.hpp"

namespace easyscale::kernels {
namespace {

rng::Philox gen(1234);

std::vector<float> random_vec(std::size_t n, float stddev = 1.0f) {
  std::vector<float> v(n);
  rng::fill_normal(gen, v, 0.0f, stddev);
  return v;
}

/// Reference gemm in double precision.
std::vector<float> gemm_reference(std::int64_t m, std::int64_t n,
                                  std::int64_t k,
                                  std::span<const float> a,
                                  std::span<const float> b) {
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
               static_cast<double>(b[static_cast<std::size_t>(kk * n + j)]);
      }
      c[static_cast<std::size_t>(i * n + j)] = static_cast<float>(acc);
    }
  }
  return c;
}

class GemmVariantTest : public ::testing::TestWithParam<GemmVariant> {};

TEST_P(GemmVariantTest, MatchesReferenceWithinTolerance) {
  const std::int64_t m = 7, n = 9, k = 33;
  const auto a = random_vec(static_cast<std::size_t>(m * k));
  const auto b = random_vec(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm_variant(GetParam(), m, n, k, a, b, c, false);
  const auto ref = gemm_reference(m, n, k, a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f * (1.0f + std::abs(ref[i])));
  }
}

TEST_P(GemmVariantTest, AccumulateAddsToC) {
  const std::int64_t m = 3, n = 3, k = 8;
  const auto a = random_vec(static_cast<std::size_t>(m * k));
  const auto b = random_vec(static_cast<std::size_t>(k * n));
  std::vector<float> c0(static_cast<std::size_t>(m * n));
  gemm_variant(GetParam(), m, n, k, a, b, c0, false);
  std::vector<float> c1(static_cast<std::size_t>(m * n), 1.0f);
  gemm_variant(GetParam(), m, n, k, a, b, c1, true);
  for (std::size_t i = 0; i < c0.size(); ++i) {
    EXPECT_FLOAT_EQ(c1[i], 1.0f + c0[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, GemmVariantTest,
                         ::testing::Values(GemmVariant::kSequential,
                                           GemmVariant::kInterleaved2,
                                           GemmVariant::kInterleaved4,
                                           GemmVariant::kInterleaved8,
                                           GemmVariant::kBlocked8));

TEST(Gemm, VariantsAreBitwiseDistinct) {
  const std::int64_t m = 8, n = 32, k = 72;
  const auto a = random_vec(static_cast<std::size_t>(m * k));
  const auto b = random_vec(static_cast<std::size_t>(k * n));
  const GemmVariant variants[] = {
      GemmVariant::kSequential, GemmVariant::kInterleaved2,
      GemmVariant::kInterleaved4, GemmVariant::kInterleaved8};
  std::vector<std::uint64_t> digests;
  for (auto v : variants) {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm_variant(v, m, n, k, a, b, c, false);
    digests.push_back(digest_floats(c));
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(digests[i], digests[j])
          << "variants " << i << " and " << j << " collided";
    }
  }
}

TEST(Gemm, PolicySelection) {
  ExecContext ctx;
  ctx.policy = KernelPolicy::kHardwareAgnostic;
  ctx.device = DeviceType::kT4;
  EXPECT_EQ(select_gemm_variant(ctx, 4, 4, 4), GemmVariant::kInterleaved4);
  ctx.policy = KernelPolicy::kDeterministic;
  EXPECT_EQ(select_gemm_variant(ctx, 4, 4, 4), GemmVariant::kInterleaved2);
  ctx.device = DeviceType::kV100;
  EXPECT_EQ(select_gemm_variant(ctx, 4, 4, 4), GemmVariant::kInterleaved8);
}

TEST(Gemm, HardwareAgnosticIsDeviceIndependent) {
  const std::int64_t m = 4, n = 4, k = 16;
  const auto a = random_vec(static_cast<std::size_t>(m * k));
  const auto b = random_vec(static_cast<std::size_t>(k * n));
  std::vector<std::uint64_t> digests;
  for (auto device : {DeviceType::kV100, DeviceType::kP100, DeviceType::kT4}) {
    ExecContext ctx;
    ctx.policy = KernelPolicy::kHardwareAgnostic;
    ctx.device = device;
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm(ctx, m, n, k, a, b, c, false);
    digests.push_back(digest_floats(c));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(Gemm, TransposedWrappersMatchReference) {
  const std::int64_t m = 5, n = 6, k = 7;
  ExecContext ctx;
  const auto a = random_vec(static_cast<std::size_t>(m * k));
  const auto b = random_vec(static_cast<std::size_t>(k * n));
  const auto ref = gemm_reference(m, n, k, a, b);
  // gemm_tn: A passed as [k, m].
  std::vector<float> at(static_cast<std::size_t>(k * m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      at[static_cast<std::size_t>(kk * m + i)] =
          a[static_cast<std::size_t>(i * k + kk)];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm_tn(ctx, m, n, k, at, b, c, false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f * (1.0f + std::abs(ref[i])));
  }
  // gemm_nt: B passed as [n, k].
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) {
      bt[static_cast<std::size_t>(j * k + kk)] =
          b[static_cast<std::size_t>(kk * n + j)];
    }
  }
  gemm_nt(ctx, m, n, k, a, bt, c, false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4f * (1.0f + std::abs(ref[i])));
  }
}

TEST(Gemm, TransposeMovesEveryElementAndRejectsBadSize) {
  const std::int64_t rows = 3, cols = 5;
  const auto src = random_vec(static_cast<std::size_t>(rows * cols));
  std::vector<float> dst(static_cast<std::size_t>(rows * cols));
  ExecContext ctx;
  transpose(ctx, rows, cols, src, dst);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(dst[static_cast<std::size_t>(c * rows + r)],
                src[static_cast<std::size_t>(r * cols + c)]);
    }
  }
  std::vector<float> short_dst(dst.size() - 1);
  try {
    transpose(ctx, rows, cols, src, short_dst);
    ADD_FAILURE() << "transpose accepted a short destination";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("transpose: bad size"),
              std::string::npos);
  }
}

TEST(Reduce, VariantsSumCorrectly) {
  const auto v = random_vec(1000);
  double ref = 0.0;
  for (float x : v) ref += x;
  for (auto variant :
       {ReduceVariant::kSequential, ReduceVariant::kPairwise64,
        ReduceVariant::kPairwise128, ReduceVariant::kPairwise256}) {
    EXPECT_NEAR(reduce_sum_variant(variant, v), ref, 1e-3);
  }
}

TEST(Reduce, VariantsAreBitwiseDistinct) {
  // Mixed magnitudes make association differences round differently.
  auto v = random_vec(4096);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] *= static_cast<float>(1 + (i % 7));
  }
  const float seq = reduce_sum_variant(ReduceVariant::kSequential, v);
  const float p64 = reduce_sum_variant(ReduceVariant::kPairwise64, v);
  const float p128 = reduce_sum_variant(ReduceVariant::kPairwise128, v);
  EXPECT_NE(seq, p64);
  EXPECT_NE(seq, p128);
}

TEST(Reduce, EmptyAndSingleton) {
  EXPECT_EQ(reduce_sum_variant(ReduceVariant::kPairwise64,
                               std::span<const float>()),
            0.0f);
  const float one[] = {3.5f};
  EXPECT_EQ(reduce_sum_variant(ReduceVariant::kPairwise64, one), 3.5f);
}

TEST(Reduce, StridedMatchesGather) {
  const auto v = random_vec(128);
  ExecContext ctx;
  std::vector<float> gathered;
  for (std::size_t i = 3; i < v.size(); i += 4) gathered.push_back(v[i]);
  EXPECT_EQ(reduce_sum_strided(ctx, v, 3, 4,
                               static_cast<std::int64_t>(gathered.size())),
            reduce_sum(ctx, gathered));
}

TEST(Scatter, DeterministicIsReproducible) {
  ExecContext det;
  det.policy = KernelPolicy::kDeterministic;
  std::vector<std::int64_t> idx(200);
  rng::fill_randint(gen, idx, 16);
  const auto src = random_vec(200 * 3);
  std::vector<float> a(16 * 3, 0.0f), b(16 * 3, 0.0f);
  scatter_add(det, idx, src, 3, a);
  scatter_add(det, idx, src, 3, b);
  EXPECT_EQ(digest_floats(a), digest_floats(b));
}

TEST(Scatter, SortedMatchesSourceOrderReference) {
  struct Case {
    std::int64_t rows, width, n;
    std::int64_t stride;  // indices are multiples of stride: others untouched
  };
  // Heavy duplicates, rows no index touches, n = 0, and tables large enough
  // that 4 threads split the rows into several chunks.
  const Case cases[] = {{4, 1, 300, 1},   {4, 8, 300, 1},  {1000, 1, 500, 3},
                        {200, 8, 500, 7}, {16, 1, 0, 1},   {16, 8, 0, 1},
                        {2000, 1, 3000, 1}, {300, 8, 40, 2}};
  // Its own generator, so the tests after it draw what they always drew.
  rng::Philox local(77);
  auto normals = [&](std::int64_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    rng::fill_normal(local, v, 0.0f, 1.0f);
    return v;
  };
  for (const int threads : {1, 4}) {
    ExecContext det;
    det.policy = KernelPolicy::kDeterministic;
    det.intra_op_threads = threads;
    for (const Case& c : cases) {
      std::vector<std::int64_t> idx(static_cast<std::size_t>(c.n));
      rng::fill_randint(local, idx, (c.rows + c.stride - 1) / c.stride);
      for (auto& i : idx) i *= c.stride;
      const auto src = normals(c.n * c.width);
      const auto init = normals(c.rows * c.width);
      std::vector<float> ref = init;
      for (std::int64_t i = 0; i < c.n; ++i) {
        const std::int64_t row = idx[static_cast<std::size_t>(i)];
        for (std::int64_t k = 0; k < c.width; ++k) {
          ref[static_cast<std::size_t>(row * c.width + k)] +=
              src[static_cast<std::size_t>(i * c.width + k)];
        }
      }
      std::vector<float> out = init;
      scatter_add(det, idx, src, c.width, out);
      EXPECT_EQ(std::memcmp(ref.data(), out.data(), ref.size() * sizeof(float)),
                0)
          << "rows=" << c.rows << " width=" << c.width << " n=" << c.n
          << " threads=" << threads;
    }
  }
}

TEST(Scatter, EmulatedAtomicsVaryAcrossCalls) {
  // Update 0 adds 2^24 and every other update adds 1.  Added first, 2^24
  // absorbs each later 1 (2^24 + 1 rounds back to 2^24); added last, it
  // lands on the exact sum of the ones.  Rotating the order by one call
  // therefore changes update 0's row whenever that row collects two or
  // more other updates.  The collision pattern comes from the test's own
  // generator, so no other test's draws can change it.
  ExecContext fast;
  fast.policy = KernelPolicy::kFastest;
  reset_atomic_emulation_counter();
  rng::Philox local(4242);
  std::vector<std::int64_t> idx(300);
  rng::fill_randint(local, idx, 4);  // heavy collisions
  ASSERT_GE(std::count(idx.begin() + 1, idx.end(), idx[0]), 2);
  std::vector<float> src(idx.size(), 1.0f);
  src[0] = 16777216.0f;  // 2^24
  std::vector<std::uint64_t> digests;
  for (int run = 0; run < 4; ++run) {
    std::vector<float> out(4, 0.0f);
    scatter_add(fast, idx, src, 1, out);
    digests.push_back(digest_floats(out));
  }
  // Call 0 applies update 0 first, call 1 applies it last.
  EXPECT_NE(digests[1], digests[0])
      << "atomic emulation should vary run to run";
}

TEST(Scatter, OutOfRangeThrows) {
  ExecContext det;
  std::vector<std::int64_t> idx{5};
  std::vector<float> src{1.0f};
  std::vector<float> out(4, 0.0f);
  EXPECT_THROW(scatter_add(det, idx, src, 1, out), Error);
}

TEST(Conv, Im2colMatchesDirectWithinTolerance) {
  Conv2dDims d{.batch = 2,
               .in_channels = 3,
               .in_h = 8,
               .in_w = 8,
               .out_channels = 4,
               .kernel_h = 3,
               .kernel_w = 3,
               .stride = 1,
               .pad = 1,
               .groups = 1};
  const auto input = random_vec(static_cast<std::size_t>(
      d.batch * d.in_channels * d.in_h * d.in_w));
  const auto weight = random_vec(static_cast<std::size_t>(
      d.out_channels * d.in_channels * d.kernel_h * d.kernel_w));
  const auto bias = random_vec(static_cast<std::size_t>(d.out_channels));
  const std::size_t out_n = static_cast<std::size_t>(
      d.batch * d.out_channels * d.out_h() * d.out_w());
  ExecContext vendor;
  vendor.policy = KernelPolicy::kDeterministic;
  ExecContext canonical;
  canonical.policy = KernelPolicy::kHardwareAgnostic;
  std::vector<float> out_v(out_n), out_c(out_n);
  conv2d_forward(vendor, d, input, weight, bias, out_v);
  conv2d_forward(canonical, d, input, weight, bias, out_c);
  for (std::size_t i = 0; i < out_n; ++i) {
    ASSERT_NEAR(out_v[i], out_c[i], 1e-4f * (1.0f + std::abs(out_c[i])));
  }
}

TEST(Conv, GroupedConvPartitionsChannels) {
  // With groups == in_channels == out_channels (depthwise), each output
  // channel depends only on its own input channel.
  Conv2dDims d{.batch = 1,
               .in_channels = 2,
               .in_h = 4,
               .in_w = 4,
               .out_channels = 2,
               .kernel_h = 3,
               .kernel_w = 3,
               .stride = 1,
               .pad = 1,
               .groups = 2};
  std::vector<float> input(2 * 16, 0.0f);
  for (int i = 0; i < 16; ++i) input[static_cast<std::size_t>(i)] = 1.0f;
  std::vector<float> weight(2 * 1 * 9, 1.0f);
  ExecContext ctx;
  std::vector<float> out(2 * 16);
  conv2d_forward(ctx, d, input, weight, {}, out);
  // Channel 1 of the input is zero, so output channel 1 must be all zeros.
  for (int i = 16; i < 32; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], 0.0f);
  }
  // Channel 0 center pixels see all 9 ones.
  EXPECT_EQ(out[5], 9.0f);
}

TEST(Conv, Im2colCol2imRoundTripAccumulates) {
  Conv2dDims d{.batch = 1,
               .in_channels = 1,
               .in_h = 4,
               .in_w = 4,
               .out_channels = 1,
               .kernel_h = 1,
               .kernel_w = 1,
               .stride = 1,
               .pad = 0,
               .groups = 1};
  const auto input = random_vec(16);
  std::vector<float> cols(16);
  ExecContext ctx;
  im2col(ctx, d, input, 0, cols);
  std::vector<float> back(16, 0.0f);
  col2im(ctx, d, cols, 0, back);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(back[i], input[i]);
}

// im2col's stride-1 fast paths (one shifted run per tap when ow == in_w,
// per-row runs otherwise) against the per-element definition.  Shapes
// include pads wider than the input, kernels taller than wide and inputs
// smaller than the kernel, where the shifted run is clamped at both ends
// of the channel plane.
TEST(Conv, Im2colMatchesPerElementReference) {
  const Conv2dDims dims[] = {
      {1, 3, 5, 7, 1, 3, 3, 1, 1, 1},  // 3x3 pad 1: ow == in_w
      {1, 2, 6, 6, 1, 5, 5, 1, 2, 1},  // 5x5 pad 2
      {1, 2, 4, 9, 1, 1, 1, 1, 0, 1},  // 1x1: the run is the whole plane
      {1, 1, 2, 2, 1, 7, 7, 1, 3, 1},  // pad wider than the input
      {1, 2, 7, 5, 1, 5, 3, 1, 1, 1},  // taller than wide: oh != in_h
      {1, 2, 1, 1, 1, 3, 3, 1, 1, 1},  // single pixel
      {1, 4, 6, 8, 1, 3, 3, 1, 1, 2},  // grouped (group 1 below)
      {1, 2, 6, 7, 1, 3, 3, 1, 0, 1},  // valid conv: per-row runs
      {1, 2, 7, 7, 1, 3, 3, 2, 1, 1},  // stride 2: per-element
  };
  for (const Conv2dDims& d : dims) {
    const std::int64_t cg = d.in_channels / d.groups;
    const std::int64_t oh = d.out_h(), ow = d.out_w();
    const auto input = random_vec(
        static_cast<std::size_t>(d.in_channels * d.in_h * d.in_w));
    for (std::int64_t g = 0; g < d.groups; ++g) {
      std::vector<float> cols(
          static_cast<std::size_t>(cg * d.kernel_h * d.kernel_w * oh * ow),
          -7.0f);
      im2col(ExecContext{}, d, input, g, cols);
      std::size_t at = 0;
      for (std::int64_t c = 0; c < cg; ++c) {
        for (std::int64_t kh = 0; kh < d.kernel_h; ++kh) {
          for (std::int64_t kw = 0; kw < d.kernel_w; ++kw) {
            for (std::int64_t y = 0; y < oh; ++y) {
              for (std::int64_t x = 0; x < ow; ++x, ++at) {
                const std::int64_t iy = y * d.stride + kh - d.pad;
                const std::int64_t ix = x * d.stride + kw - d.pad;
                const bool in = iy >= 0 && iy < d.in_h && ix >= 0 &&
                                ix < d.in_w;
                const float want =
                    in ? input[static_cast<std::size_t>(
                             ((g * cg + c) * d.in_h + iy) * d.in_w + ix)]
                       : 0.0f;
                ASSERT_EQ(cols[at], want)
                    << "in " << d.in_h << "x" << d.in_w << " k "
                    << d.kernel_h << "x" << d.kernel_w << " pad " << d.pad
                    << " stride " << d.stride << " c " << c << " kh " << kh
                    << " kw " << kw << " y " << y << " x " << x;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Conv, Im2colAndCol2imRejectBadColsSize) {
  const Conv2dDims d{1, 1, 4, 4, 1, 3, 3, 1, 1, 1};
  const auto input = random_vec(16);
  std::vector<float> cols(9 * 16 - 1);
  std::vector<float> grad_input(16);
  ExecContext ctx;
  try {
    im2col(ctx, d, input, 0, cols);
    ADD_FAILURE() << "im2col accepted a short cols buffer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("im2col: bad cols size"),
              std::string::npos);
  }
  try {
    col2im(ctx, d, cols, 0, grad_input);
    ADD_FAILURE() << "col2im accepted a short cols buffer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("col2im: bad cols size"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace easyscale::kernels
