// Every sum reduction keeps its tree bit for bit: the stack-buffer,
// interleaved-chain kernels against the heap-based reduction they replaced,
// kept here verbatim as the oracle (leaves of the variant's width summed
// sequentially from 0.0f, leaf partials folded pairwise (0,1), (2,3), ...
// with an odd last partial carried up a level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "kernels/reduce.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"

namespace easyscale::kernels {
namespace {

// --- Oracle: the heap-based reduction, as it was --------------------------

float oracle_sequential(std::span<const float> v) {
  float acc = 0.0f;
  for (float x : v) acc += x;
  return acc;
}

float oracle_pairwise(std::span<const float> v, std::int64_t width) {
  std::vector<float> partials;
  partials.reserve(v.size() / static_cast<std::size_t>(width) + 1);
  for (std::size_t b0 = 0; b0 < v.size(); b0 += static_cast<std::size_t>(width)) {
    const std::size_t b1 =
        std::min(v.size(), b0 + static_cast<std::size_t>(width));
    float part = 0.0f;
    for (std::size_t i = b0; i < b1; ++i) part += v[i];
    partials.push_back(part);
  }
  // Pairwise fold of the partials.
  while (partials.size() > 1) {
    std::vector<float> next;
    next.reserve((partials.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
      next.push_back(partials[i] + partials[i + 1]);
    }
    if (partials.size() % 2) next.push_back(partials.back());
    partials = std::move(next);
  }
  return partials.empty() ? 0.0f : partials[0];
}

/// One lane of the vector batch body as it was: slot values v0[i * stride],
/// leaves and fold exactly as above.
float oracle_slot(ReduceVariant variant, const float* v0, std::int64_t stride,
                  std::int64_t count) {
  if (variant == ReduceVariant::kSequential) {
    float acc = 0.0f;
    for (std::int64_t i = 0; i < count; ++i) acc += v0[i * stride];
    return acc;
  }
  const std::int64_t width = variant == ReduceVariant::kPairwise64    ? 64
                             : variant == ReduceVariant::kPairwise128 ? 128
                                                                      : 256;
  std::vector<float> partials;
  partials.reserve(static_cast<std::size_t>(count / width + 1));
  for (std::int64_t b0 = 0; b0 < count; b0 += width) {
    const std::int64_t b1 = b0 + width < count ? b0 + width : count;
    float part = 0.0f;
    for (std::int64_t i = b0; i < b1; ++i) part += v0[i * stride];
    partials.push_back(part);
  }
  while (partials.size() > 1) {  // pairwise fold, odd partial carried
    std::vector<float> next;
    next.reserve((partials.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
      next.push_back(partials[i] + partials[i + 1]);
    }
    if (partials.size() % 2) next.push_back(partials.back());
    partials = std::move(next);
  }
  return partials.empty() ? 0.0f : partials[0];
}

float oracle(ReduceVariant variant, std::span<const float> v) {
  switch (variant) {
    case ReduceVariant::kSequential:
      return oracle_sequential(v);
    case ReduceVariant::kPairwise64:
      return oracle_pairwise(v, 64);
    case ReduceVariant::kPairwise128:
      return oracle_pairwise(v, 128);
    case ReduceVariant::kPairwise256:
      return oracle_pairwise(v, 256);
  }
  return std::numeric_limits<float>::quiet_NaN();
}

// --- Inputs and contexts ---------------------------------------------------

constexpr ReduceVariant kVariants[] = {
    ReduceVariant::kSequential, ReduceVariant::kPairwise64,
    ReduceVariant::kPairwise128, ReduceVariant::kPairwise256};

/// Normal values scaled by 2^[-12, 12], so that any change of association
/// moves low bits.
std::vector<float> spread_values(std::uint64_t seed, std::int64_t n) {
  rng::Philox gen(seed);
  std::vector<float> v(static_cast<std::size_t>(n)), e(v.size());
  rng::fill_normal(gen, v, 0.0f, 1.0f);
  rng::fill_uniform(gen, e, -12.0f, 12.0f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::ldexp(v[i], static_cast<int>(e[i]));
  }
  return v;
}

/// ±0, ±inf, NaN and a few finite values.  The NaN is the one inf - inf
/// makes on this host, so every NaN the sums can produce has one bit
/// pattern and a commutative add's operand order cannot pick between two.
std::vector<float> special_values(std::uint64_t seed, std::int64_t n) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float common[] = {0.0f, -0.0f, 0.0f,   -0.0f,
                          1.5f, -0.0f, -2.25f, 1e-38f};
  rng::Philox gen(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  rng::fill_uniform(gen, v, 0.0f, 1.0f);
  for (float& x : v) {
    // 1% each of +inf, -inf and NaN; the rest zeros of both signs and a
    // few finite values, so that short sums still end finite or zero.
    x = x < 0.01f   ? inf
        : x < 0.02f ? -inf
        : x < 0.03f ? nan
                    : common[static_cast<std::size_t>(x * 800.0f) % 8];
  }
  return v;
}

ExecContext context_for(ReduceVariant variant,
                        SimdBackend backend = SimdBackend::kScalar,
                        int threads = 1) {
  ExecContext ctx;
  ctx.simd = backend;
  ctx.intra_op_threads = threads;
  switch (variant) {
    case ReduceVariant::kSequential:
      ctx.policy = KernelPolicy::kHardwareAgnostic;
      break;
    case ReduceVariant::kPairwise64:
      ctx.device = DeviceType::kV100;
      break;
    case ReduceVariant::kPairwise128:
      ctx.device = DeviceType::kP100;
      break;
    case ReduceVariant::kPairwise256:
      ctx.device = DeviceType::kT4;
      break;
  }
  EXPECT_EQ(select_reduce_variant(ctx), variant);
  return ctx;
}

/// n values of `values` at an offset that moves with n, so that longer
/// sums are not all extensions of one prefix (whose first NaN would end
/// every later one).
std::span<const float> window(const std::vector<float>& values,
                              std::int64_t n) {
  return std::span<const float>(values).subspan(
      static_cast<std::size_t>(n * 13 % 8191), static_cast<std::size_t>(n));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::string where(ReduceVariant variant, std::int64_t len) {
  return "variant " + std::to_string(static_cast<int>(variant)) + " len " +
         std::to_string(len);
}

/// Lengths around every leaf width, every multiple the stack buffer holds
/// and the point where a sum outgrows it (256 leaves).
std::vector<std::int64_t> boundary_lengths() {
  std::vector<std::int64_t> out;
  for (std::int64_t base : {0, 8, 16, 32, 64, 128, 192, 256, 384, 512, 1024,
                            16384, 32768, 65536}) {
    for (std::int64_t d : {-1, 0, 1}) {
      if (base + d >= 0) out.push_back(base + d);
    }
  }
  out.push_back(1100);
  out.push_back(20000);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- Single sums ------------------------------------------------------------

TEST(ReduceTree, SumMatchesOracleAtEveryLength) {
  const auto values = spread_values(31, 65537);
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  for (std::int64_t n : boundary_lengths()) lengths.push_back(n);
  for (ReduceVariant variant : kVariants) {
    const ExecContext ctx = context_for(variant);
    for (std::int64_t n : lengths) {
      const std::span<const float> v(values.data(),
                                     static_cast<std::size_t>(n));
      const float want = oracle(variant, v);
      ASSERT_TRUE(same_bits(reduce_sum_variant(variant, v), want))
          << where(variant, n);
      ASSERT_TRUE(same_bits(reduce_sum(ctx, v), want)) << where(variant, n);
    }
  }
}

TEST(ReduceTree, StridedSumMatchesOracle) {
  const auto values = spread_values(32, 3 * 20000 + 7);
  for (ReduceVariant variant : kVariants) {
    const ExecContext ctx = context_for(variant);
    for (std::int64_t n : boundary_lengths()) {
      if (n > 20000) continue;
      for (std::int64_t stride : {1, 3}) {
        const float got = reduce_sum_strided(ctx, values, 5, stride, n);
        ASSERT_TRUE(same_bits(got, oracle_slot(variant, values.data() + 5,
                                               stride, n)))
            << where(variant, n) << " stride " << stride;
      }
    }
  }
}

// --- Segments ---------------------------------------------------------------

void expect_segments(ReduceVariant variant, std::span<const float> values,
                     std::int64_t seg_stride, std::int64_t len,
                     std::int64_t count) {
  const ExecContext ctx = context_for(variant);
  std::vector<float> got(static_cast<std::size_t>(count), 7.0f);
  reduce_sum_segments(ctx, values, seg_stride, len, got);
  std::vector<float> want(got.size());
  for (std::int64_t k = 0; k < count; ++k) {
    want[static_cast<std::size_t>(k)] =
        oracle(variant, values.subspan(static_cast<std::size_t>(k * seg_stride),
                                       static_cast<std::size_t>(len)));
  }
  ASSERT_TRUE(same_bits(got, want))
      << where(variant, len) << " stride " << seg_stride << " count "
      << count;
}

TEST(ReduceTree, SegmentsMatchOracle) {
  const auto values = spread_values(33, 17 * (2 * 65537 + 3));
  for (ReduceVariant variant : kVariants) {
    for (std::int64_t len : boundary_lengths()) {
      // Contiguous segments, gaps between them, and segments far apart.
      for (std::int64_t seg_stride : {len, len + 1, 2 * len + 3}) {
        for (std::int64_t count = 0; count <= 17; ++count) {
          if (len > 1100 && count > 3 && count != 17) continue;
          expect_segments(variant, values, seg_stride, len, count);
        }
      }
    }
  }
}

TEST(ReduceTree, SegmentsMayOverlap) {
  const auto values = spread_values(34, 4096);
  for (ReduceVariant variant : kVariants) {
    for (std::int64_t len : {1, 63, 200, 1000}) {
      for (std::int64_t seg_stride : {0, 1, 17}) {
        expect_segments(variant, values, seg_stride, len, 9);
      }
    }
  }
}

TEST(ReduceTree, SegmentsRejectAnOverrun) {
  const ExecContext ctx = context_for(ReduceVariant::kPairwise64);
  std::vector<float> values(100), out(3);
  EXPECT_THROW(reduce_sum_segments(ctx, values, 40, 30, out), Error);
  reduce_sum_segments(ctx, values, 35, 30, out);  // 2 * 35 + 30 = 100 fits
}

TEST(ReduceTree, SegmentGroupKeepsChainsInFlight) {
  // est_conv's BatchNorm channels on a V100: 512 values are 8 leaves, 128
  // values 2, so four channels make eight chains.
  const ExecContext v100 = context_for(ReduceVariant::kPairwise64);
  EXPECT_EQ(reduce_segment_group(v100, 512), 1);
  EXPECT_EQ(reduce_segment_group(v100, 4096), 1);
  EXPECT_EQ(reduce_segment_group(v100, 128), 4);
  EXPECT_EQ(reduce_segment_group(v100, 64), kReduceChains);
  EXPECT_EQ(reduce_segment_group(v100, 0), kReduceChains);
}

TEST(ReduceTree, SegmentGroupHoldsAtMostEightNarrowLeaves) {
  // A group holds at most max(len, 512) floats, whatever the leaf width:
  // one P100 or T4 leaf, or a whole D2 segment, can be 512 floats or more.
  EXPECT_EQ(kSegmentGroupFloats, 512);
  const ExecContext p100 = context_for(ReduceVariant::kPairwise128);
  EXPECT_EQ(reduce_segment_group(p100, 64), kReduceChains);
  EXPECT_EQ(reduce_segment_group(p100, 128), 4);
  EXPECT_EQ(reduce_segment_group(p100, 256), 2);
  EXPECT_EQ(reduce_segment_group(p100, 512), 1);
  const ExecContext t4 = context_for(ReduceVariant::kPairwise256);
  EXPECT_EQ(reduce_segment_group(t4, 100), 5);
  EXPECT_EQ(reduce_segment_group(t4, 256), 2);
  EXPECT_EQ(reduce_segment_group(t4, 512), 1);
  const ExecContext d2 = context_for(ReduceVariant::kSequential);
  EXPECT_EQ(reduce_segment_group(d2, 0), kReduceChains);
  EXPECT_EQ(reduce_segment_group(d2, 64), kReduceChains);
  EXPECT_EQ(reduce_segment_group(d2, 100), 5);
  EXPECT_EQ(reduce_segment_group(d2, 512), 1);
  EXPECT_EQ(reduce_segment_group(d2, 100000), 1);
  for (const auto variant :
       {ReduceVariant::kSequential, ReduceVariant::kPairwise64,
        ReduceVariant::kPairwise128, ReduceVariant::kPairwise256}) {
    const ExecContext ctx = context_for(variant);
    for (std::int64_t len = 1; len <= 2048; ++len) {
      const std::int64_t group = reduce_segment_group(ctx, len);
      ASSERT_GE(group, 1) << where(variant, len);
      ASSERT_LE(group, kReduceChains) << where(variant, len);
      ASSERT_LE(group * len, std::max(len, kSegmentGroupFloats))
          << where(variant, len);
    }
  }
}

// --- Batched strided sums on every backend ----------------------------------

void expect_batch(ReduceVariant variant, std::span<const float> values,
                  std::int64_t slots, std::int64_t count) {
  std::vector<float> want(static_cast<std::size_t>(slots), 0.5f);
  for (std::int64_t s = 0; s < slots; ++s) {
    want[static_cast<std::size_t>(s)] +=
        oracle_slot(variant, values.data() + s, slots, count);
  }
  for (SimdBackend backend : available_simd_backends()) {
    for (int threads : {1, 4}) {
      std::vector<float> got(static_cast<std::size_t>(slots), 0.5f);
      reduce_sum_strided_batch(context_for(variant, backend, threads),
                               values.subspan(0, static_cast<std::size_t>(
                                                     slots * count)),
                               slots, count, got);
      ASSERT_TRUE(same_bits(got, want))
          << where(variant, count) << " slots " << slots << " "
          << simd_backend_name(backend) << " threads " << threads;
    }
  }
}

TEST(ReduceTree, StridedBatchMatchesOracleOnEveryBackend) {
  // 19 slots: two full AVX2 vectors, one AVX-512 vector, and ragged tails.
  constexpr std::int64_t kSlots = 19;
  const auto values = spread_values(35, kSlots * 65537);
  for (ReduceVariant variant : kVariants) {
    for (std::int64_t count = 0; count <= 1100; ++count) {
      expect_batch(variant, values, kSlots, count);
    }
    for (std::int64_t count : boundary_lengths()) {
      expect_batch(variant, values, kSlots, count);
    }
  }
}

// --- Specials ---------------------------------------------------------------

TEST(ReduceTree, SignedZerosInfinitiesAndNaNsKeepTheirBits) {
  const auto values = special_values(36, 17 * 1100);
  for (ReduceVariant variant : kVariants) {
    const ExecContext ctx = context_for(variant);
    for (std::int64_t n = 0; n <= 1100; n += 7) {
      const std::span<const float> v = window(values, n);
      ASSERT_TRUE(same_bits(reduce_sum(ctx, v), oracle(variant, v)))
          << where(variant, n);
    }
    for (std::int64_t len : {1, 3, 64, 65, 300, 1100}) {
      expect_segments(variant, values, len, len, 17);
      expect_segments(variant, values, len + 2, len, 9);
    }
    for (std::int64_t count : {1, 2, 64, 65, 300, 1000}) {
      expect_batch(variant, values, 17, count);
    }
  }
}

TEST(ReduceTree, SpecialsReachEveryResultKind) {
  // The specials pass is only as good as its inputs: its sums must include
  // zeros, infinities, NaNs and finite values.  (Every leaf starts from +0,
  // so no sum is -0; the -0 inputs check that nothing starts elsewhere.)
  const auto values = special_values(36, 17 * 1100);
  bool zero = false, inf = false, nan = false, finite = false;
  for (std::int64_t n = 0; n <= 1100; n += 7) {
    const float s = oracle_pairwise(window(values, n), 64);
    zero |= s == 0.0f;
    inf |= std::isinf(s);
    nan |= std::isnan(s);
    finite |= std::isfinite(s) && s != 0.0f;
  }
  EXPECT_TRUE(zero);
  EXPECT_TRUE(inf);
  EXPECT_TRUE(nan);
  EXPECT_TRUE(finite);
}

}  // namespace
}  // namespace easyscale::kernels
