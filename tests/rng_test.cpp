#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "autograd/step_context.hpp"
#include "nn/dropout.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::rng {
namespace {

TEST(Philox, DeterministicForSeed) {
  Philox a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Philox, DifferentSeedsDiffer) {
  Philox a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Philox, StateRoundTripMidStream) {
  Philox a(7);
  for (int i = 0; i < 37; ++i) a.next_u32();  // odd offset into the buffer
  a.next_normal();                            // populate the spare
  const PhiloxState snapshot = a.state();
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(a.next_normal());
  Philox b;
  b.set_state(snapshot);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(expected[static_cast<std::size_t>(i)], b.next_normal());
  }
}

TEST(Philox, StateSerializationRoundTrip) {
  Philox a(99);
  for (int i = 0; i < 11; ++i) a.next_float();
  ByteWriter w;
  a.state().save(w);
  ByteReader r(w.bytes());
  const PhiloxState restored = PhiloxState::load(r);
  EXPECT_EQ(restored, a.state());
}

TEST(Philox, FillFloatsEqualsNextFloatDrawsFromEveryBufferPosition) {
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 9; ++n) lengths.push_back(n);
  lengths.push_back(4097);
  for (std::uint32_t start = 0; start <= 4; ++start) {
    for (std::int64_t n : lengths) {
      // A live state (buffer filled, counter advanced) re-pointed at
      // `start`; 4 means the buffer is spent.
      Philox base(19);
      for (int i = 0; i < 5; ++i) base.next_u32();
      PhiloxState st = base.state();
      st.buffer_pos = start;
      Philox one, fill;
      one.set_state(st);
      fill.set_state(st);
      std::vector<float> want(static_cast<std::size_t>(n));
      for (auto& v : want) v = one.next_float();
      std::vector<float> got(static_cast<std::size_t>(n), -1.0f);
      fill.fill_floats(got.data(), n);
      EXPECT_EQ(want, got) << "start=" << start << " n=" << n;
      EXPECT_EQ(one.state(), fill.state()) << "start=" << start << " n=" << n;
    }
  }
}

TEST(Philox, DropoutMaskResumesMidBufferAfterSaveRestore) {
  kernels::ExecContext exec;
  StreamSet streams;
  streams.seed_all(23, 1);
  autograd::StepContext ctx;
  ctx.exec = &exec;
  ctx.rng = &streams;
  ctx.training = true;
  Philox& torch = streams.stream(StreamKind::kTorch);
  torch.next_u32();
  torch.next_u32();  // two words into a 4-word block
  ByteWriter w;
  streams.state().save(w);

  const float p = 0.3f;
  nn::Dropout layer(p);
  tensor::Tensor x(tensor::Shape{3, 13});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.at(i) = 0.25f * static_cast<float>(i) - 2.0f;
  }
  const tensor::Tensor first = layer.forward(ctx, x);
  const PhiloxState after_first = torch.state();
  const tensor::Tensor second = layer.forward(ctx, x);

  // Reference: the same stream drawn one next_float() at a time.
  ByteReader r(w.bytes());
  const StreamSetState saved = StreamSetState::load(r);
  StreamSet ref_streams;
  ref_streams.set_state(saved);
  Philox& ref = ref_streams.stream(StreamKind::kTorch);
  const float scale = 1.0f / (1.0f - p);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float keep = ref.next_float() >= p ? scale : 0.0f;
    ASSERT_EQ(first.at(i), x.at(i) * keep) << "element " << i;
  }
  EXPECT_EQ(ref.state(), after_first);

  // Restoring the saved state replays both masks exactly.
  streams.set_state(saved);
  const tensor::Tensor again = layer.forward(ctx, x);
  const tensor::Tensor again2 = layer.forward(ctx, x);
  const auto values = [](const tensor::Tensor& t) {
    return std::vector<float>(t.raw(), t.raw() + t.numel());
  };
  EXPECT_EQ(values(again), values(first));
  EXPECT_EQ(values(again2), values(second));
  EXPECT_NE(values(first), values(second));
}

TEST(Philox, UniformRange) {
  Philox gen(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = gen.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Philox, NextBelowBounds) {
  Philox gen(5);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(gen.next_below(bound), bound);
    }
  }
}

TEST(Philox, NextBelowOneModuloMatchesTheLimitTest) {
  // next_below keeps a draw iff v - v % bound <= UINT64_MAX - bound; the
  // reference keeps it iff v < UINT64_MAX - UINT64_MAX % bound.  Check both
  // agree at and around every rejection edge of a spread of bounds.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  (std::uint64_t{1} << 32) + 1,
                                  std::uint64_t{1} << 63,
                                  (std::uint64_t{1} << 63) + 1,
                                  kMax};
  for (const std::uint64_t bound : bounds) {
    const std::uint64_t limit = kMax - kMax % bound;
    std::vector<std::uint64_t> values;
    for (const std::uint64_t edge :
         {std::uint64_t{0}, bound, limit, limit - bound, kMax}) {
      for (std::uint64_t d = 0; d <= 2; ++d) {
        values.push_back(edge - d);
        values.push_back(edge + d);
      }
    }
    for (const std::uint64_t v : values) {
      EXPECT_EQ(Philox::next_below_accepts(v, v % bound, bound), v < limit)
          << "bound " << bound << " v " << v;
    }
  }
}

TEST(Philox, NextBelowZeroThrows) {
  Philox gen(5);
  EXPECT_THROW(gen.next_below(0), Error);
}

TEST(Philox, NormalMoments) {
  Philox gen(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = gen.next_normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Sampling, PermutationIsValid) {
  Philox gen(13);
  for (std::size_t n : {1u, 2u, 17u, 256u}) {
    const auto p = permutation(gen, n);
    std::set<std::int64_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), n);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), static_cast<std::int64_t>(n) - 1);
  }
}

TEST(Sampling, PermutationDependsOnStream) {
  Philox a(1), b(2);
  EXPECT_NE(permutation(a, 64), permutation(b, 64));
}

TEST(StreamSet, StreamsAreIndependent) {
  StreamSet s;
  s.seed_all(42, 0);
  const auto v1 = s.stream(StreamKind::kPython).next_u32();
  const auto v2 = s.stream(StreamKind::kNumpy).next_u32();
  const auto v3 = s.stream(StreamKind::kTorch).next_u32();
  const auto v4 = s.stream(StreamKind::kCuda).next_u32();
  EXPECT_NE(v1, v2);
  EXPECT_NE(v2, v3);
  EXPECT_NE(v3, v4);
}

TEST(StreamSet, RanksDoNotShareStreams) {
  StreamSet a, b;
  a.seed_all(42, 0);
  b.seed_all(42, 1);
  EXPECT_NE(a.stream(StreamKind::kTorch).next_u32(),
            b.stream(StreamKind::kTorch).next_u32());
}

TEST(StreamSet, StateRoundTrip) {
  StreamSet s;
  s.seed_all(7, 3);
  s.stream(StreamKind::kTorch).next_normal();
  s.stream(StreamKind::kNumpy).next_u32();
  ByteWriter w;
  s.state().save(w);
  ByteReader r(w.bytes());
  StreamSet restored;
  restored.set_state(StreamSetState::load(r));
  EXPECT_EQ(restored.stream(StreamKind::kTorch).next_u64(),
            s.stream(StreamKind::kTorch).next_u64());
  EXPECT_EQ(restored.stream(StreamKind::kPython).next_u64(),
            s.stream(StreamKind::kPython).next_u64());
}

TEST(StreamSet, DeriveKeyAvalanches) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t rank = 0; rank < 64; ++rank) {
    for (std::uint64_t kind = 0; kind < 4; ++kind) {
      keys.insert(derive_stream_key(42, rank, kind));
    }
  }
  EXPECT_EQ(keys.size(), 256u);
}

/// Property sweep: state save/restore is exact at any draw offset.
class PhiloxOffsetTest : public ::testing::TestWithParam<int> {};

TEST_P(PhiloxOffsetTest, RestoreAtOffsetIsExact) {
  Philox a(123);
  for (int i = 0; i < GetParam(); ++i) a.next_u32();
  Philox b;
  b.set_state(a.state());
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a.next_u32(), b.next_u32());
}

INSTANTIATE_TEST_SUITE_P(Offsets, PhiloxOffsetTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 63, 64,
                                           65, 1023));

}  // namespace
}  // namespace easyscale::rng
