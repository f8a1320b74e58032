#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::tensor {
namespace {

TEST(Shape, NumelAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(1), 3);
  EXPECT_THROW((void)s.dim(3), Error);
}

TEST(Shape, EmptyShapeIsScalarLike) {
  const Shape s{};
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.rank(), 0u);
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), Error);
}

/// Runs `fn`, which must throw the named rank-cap error for `rank`.
template <typename Fn>
void expect_rank_cap_error(Fn&& fn, std::size_t rank) {
  const std::string expected = "shape rank " + std::to_string(rank) +
                               " exceeds the maximum rank " +
                               std::to_string(Shape::kMaxRank);
  try {
    fn();
    ADD_FAILURE() << "no error for rank " << rank;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(Shape, RejectsRankAboveCap) {
  const Shape four{1, 2, 3, 4};
  EXPECT_EQ(four.rank(), Shape::kMaxRank);
  EXPECT_EQ(four.numel(), 24);
  expect_rank_cap_error([] { (void)Shape({1, 1, 1, 1, 1}); }, 5);
  const std::vector<std::int64_t> nine(9, 1);
  expect_rank_cap_error(
      [&] { (void)Shape(std::span<const std::int64_t>(nine)); }, 9);
  // A crafted rank-9 payload (u64 rank, dims, u64 numel, data) must fail on
  // the rank before any dim is trusted.
  ByteWriter w;
  w.write_vector(nine);
  w.write_vector(std::vector<float>{1.0f});
  ByteReader float_reader(w.bytes());
  expect_rank_cap_error([&] { (void)Tensor::load(float_reader); }, 9);
  ByteWriter lw;
  lw.write_vector(nine);
  lw.write_vector(std::vector<std::int64_t>{1});
  ByteReader long_reader(lw.bytes());
  expect_rank_cap_error([&] { (void)LongTensor::load(long_reader); }, 9);
}

TEST(Shape, EqualityIgnoresUnusedDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
  EXPECT_NE(Shape({2}), Shape({}));
  Shape s{5, 6, 7, 8};
  s = Shape{5, 6};
  EXPECT_EQ(s, Shape({5, 6}));
  EXPECT_EQ(s.to_string(), "[5, 6]");
}

TEST(Tensor, SaveWritesRankDimsNumelData) {
  // The checkpoint layout: u64 rank, the dims, u64 numel, the data.
  const auto expected_bytes = [](std::vector<std::int64_t> dims,
                                 const auto& data) {
    ByteWriter w;
    w.write<std::uint64_t>(dims.size());
    for (const std::int64_t d : dims) w.write(d);
    w.write<std::uint64_t>(data.size());
    for (const auto v : data) w.write(v);
    return w.bytes();
  };
  const std::vector<float> floats = {1.5f, -2.0f, 0.25f, 100.0f, -0.0f, 3.0f};
  const Tensor t(Shape{1, 2, 3}, floats);
  ByteWriter w;
  t.save(w);
  EXPECT_EQ(w.bytes(), expected_bytes({1, 2, 3}, floats));
  const Tensor rank4(Shape{1, 1, 2, 3}, floats);
  ByteWriter w4;
  rank4.save(w4);
  EXPECT_EQ(w4.bytes(), expected_bytes({1, 1, 2, 3}, floats));
  ByteWriter empty;
  Tensor().save(empty);
  EXPECT_EQ(empty.bytes(), expected_bytes({}, std::vector<float>{}));
  const std::vector<std::int64_t> longs = {7, -1, 0, 3};
  const LongTensor l(Shape{4}, longs);
  ByteWriter lw;
  l.save(lw);
  EXPECT_EQ(lw.bytes(), expected_bytes({4}, longs));
}

TEST(Tensor, ConstructZeroed) {
  Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(5), 6.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), Error);
}

TEST(Tensor, SerializationRoundTrip) {
  Tensor t(Shape{2, 2}, {1.5f, -2.0f, 0.25f, 100.0f});
  ByteWriter w;
  t.save(w);
  ByteReader r(w.bytes());
  const Tensor loaded = Tensor::load(r);
  EXPECT_EQ(loaded.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(loaded.at(i), t.at(i));
  }
}

TEST(LongTensor, Basics) {
  LongTensor t(Shape{4}, {7, -1, 0, 3});
  EXPECT_EQ(t.at(0), 7);
  ByteWriter w;
  t.save(w);
  ByteReader r(w.bytes());
  const LongTensor loaded = LongTensor::load(r);
  EXPECT_EQ(loaded.at(1), -1);
}

TEST(Ops, AddSubMul) {
  Tensor a(Shape{3}, {1, 2, 3}), b(Shape{3}, {10, 20, 30}), out(Shape{3});
  add(a, b, out);
  EXPECT_EQ(out.at(2), 33.0f);
  sub(b, a, out);
  EXPECT_EQ(out.at(0), 9.0f);
  mul(a, b, out);
  EXPECT_EQ(out.at(1), 40.0f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a(Shape{3}), b(Shape{4}), out(Shape{3});
  EXPECT_THROW(add(a, b, out), Error);
}

TEST(Ops, AxpyInPlace) {
  Tensor a(Shape{2}, {1, 1}), b(Shape{2}, {2, 4});
  axpy_(a, 0.5f, b);
  EXPECT_EQ(a.at(0), 2.0f);
  EXPECT_EQ(a.at(1), 3.0f);
}

TEST(Ops, Transpose2d) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(0 * 2 + 1), 4.0f);
  EXPECT_EQ(t.at(2 * 2 + 0), 3.0f);
}

TEST(Ops, ArgmaxRowsTieBreaksLow) {
  Tensor a(Shape{2, 3}, {1, 3, 3, -5, -5, -7});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, SumSequentialMatchesLoop) {
  std::vector<float> v{0.1f, 0.2f, 0.3f, 0.4f};
  float acc = 0.0f;
  for (float x : v) acc += x;
  EXPECT_EQ(sum_sequential(v), acc);
}

TEST(Ops, L2NormAndMaxAbsDiff) {
  Tensor a(Shape{2}, {3, 4}), b(Shape{2}, {3, 5});
  EXPECT_FLOAT_EQ(l2_norm(a), 5.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
}

TEST(Ops, MaxValueEmptyThrows) {
  Tensor a(Shape{0});
  EXPECT_THROW((void)max_value(a), Error);
}

}  // namespace
}  // namespace easyscale::tensor
