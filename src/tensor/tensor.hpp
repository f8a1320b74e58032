// The float32 tensor that underlies the whole training engine.
//
// Design rules (all in service of bitwise determinism):
//  - always contiguous row-major storage;
//  - no implicit broadcasting — shape mismatches throw;
//  - every op that reduces floats documents (and fixes) its summation order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "tensor/shape.hpp"

namespace easyscale::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(shape),
        data_(static_cast<std::size_t>(shape_.numel()), 0.0f) {}
  Tensor(Shape shape, std::vector<float> data)
      : shape_(shape), data_(std::move(data)) {
    ES_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
             "data size " << data_.size() << " != numel " << shape_.numel());
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] bool defined() const { return shape_.rank() > 0 || !data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }
  [[nodiscard]] float* raw() { return data_.data(); }
  [[nodiscard]] const float* raw() const { return data_.data(); }

  float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] float at(std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Reinterpret as a new shape with the same number of elements.  The
  /// rvalue overload moves the storage instead of copying it.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const& {
    check_reshape(new_shape);
    return Tensor(new_shape, data_);
  }
  [[nodiscard]] Tensor reshaped(Shape new_shape) && {
    check_reshape(new_shape);
    return Tensor(new_shape, std::move(data_));
  }

  void fill(float v) {
    for (auto& x : data_) x = v;
  }
  void zero() { fill(0.0f); }

  /// u64 rank, the dims, u64 numel, the data.
  void save(ByteWriter& w) const {
    shape_.save(w);
    w.write_vector(data_);
  }
  static Tensor load(ByteReader& r) {
    const Shape shape = Shape::load(r);
    return Tensor(shape, r.read_vector<float>());
  }

 private:
  void check_reshape(const Shape& new_shape) const {
    ES_CHECK(new_shape.numel() == shape_.numel(),
             "reshape " << shape_.to_string() << " -> " << new_shape.to_string());
  }

  Shape shape_;
  std::vector<float> data_;
};

/// Integer tensor used for labels / token ids / sample indices.
class LongTensor {
 public:
  LongTensor() = default;
  explicit LongTensor(Shape shape)
      : shape_(shape),
        data_(static_cast<std::size_t>(shape_.numel()), 0) {}
  LongTensor(Shape shape, std::vector<std::int64_t> data)
      : shape_(shape), data_(std::move(data)) {
    ES_CHECK(static_cast<std::int64_t>(data_.size()) == shape_.numel(),
             "data size mismatch");
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] std::span<std::int64_t> data() { return data_; }
  [[nodiscard]] std::span<const std::int64_t> data() const { return data_; }
  std::int64_t& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::int64_t at(std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// Same layout as Tensor::save.
  void save(ByteWriter& w) const {
    shape_.save(w);
    w.write_vector(data_);
  }
  static LongTensor load(ByteReader& r) {
    const Shape shape = Shape::load(r);
    return LongTensor(shape, r.read_vector<std::int64_t>());
  }

 private:
  Shape shape_;
  std::vector<std::int64_t> data_;
};

}  // namespace easyscale::tensor
