// Binary serialization used by on-demand checkpoints (§3.2 "Adapting to
// elasticity").  Everything that affects bitwise training determinism —
// model parameters, optimizer state, RNG states, EST contexts, bucket
// layouts, data-worker queuing buffers — round-trips through these streams.
//
// The format is a flat little-endian byte stream with no framing; writers
// and readers must agree on the field order (enforced by the *_state
// structs that own their own save/load).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace easyscale {

/// Append-only byte sink.
class ByteWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    bytes_.insert(bytes_.end(), p, p + s.size());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> v) {
    write<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size_bytes());
  }

  /// Overwrite `value` at byte offset `at`, inside what was written so far
  /// (a length prefix known only once its section is written).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void overwrite(std::size_t at, const T& value) {
    ES_CHECK(at <= bytes_.size() && sizeof(T) <= bytes_.size() - at,
             "overwrite at " << at << " past the " << bytes_.size()
                             << " byte(s) written");
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a byte buffer produced by ByteWriter.
///
/// Every read validates against the bytes actually *remaining* (never
/// `pos + n` arithmetic, which wraps for an adversarial length field), so
/// a truncated, bit-flipped or oversized payload always surfaces as a
/// structured easyscale::Error — never an out-of-bounds read or a
/// multi-gigabyte allocation driven by corrupt data.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    ES_CHECK(sizeof(T) <= remaining(),
             "checkpoint stream truncated: need " << sizeof(T) << " byte(s), "
                                                  << remaining() << " left");
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    ES_CHECK(n <= remaining(), "checkpoint stream truncated: string of "
                                   << n << " byte(s), " << remaining()
                                   << " left");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Divide instead of multiplying: n * sizeof(T) could wrap.
    ES_CHECK(n <= remaining() / sizeof(T),
             "checkpoint stream truncated: vector of "
                 << n << " element(s) of " << sizeof(T) << " byte(s), "
                 << remaining() << " byte(s) left");
    std::vector<T> v(static_cast<std::size_t>(n));
    // An empty vector's data() may be null, and memcpy must not see null.
    if (n > 0) {
      std::memcpy(v.data(), bytes_.data() + pos_,
                  static_cast<std::size_t>(n) * sizeof(T));
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return v;
  }

  /// A u64-length-prefixed byte section (write_vector of bytes) as a view
  /// into the buffer, without copying it.
  std::span<const std::uint8_t> read_byte_span() {
    const auto n = read<std::uint64_t>();
    ES_CHECK(n <= remaining(), "checkpoint stream truncated: section of "
                                   << n << " byte(s), " << remaining()
                                   << " left");
    const auto view = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += view.size();
    return view;
  }

  /// Throw unless the stream was consumed exactly; call at the end of a
  /// top-level load to reject oversized payloads (trailing bytes mean the
  /// reader and writer disagreed about the format).
  void require_exhausted(const char* what) const {
    ES_CHECK(exhausted(), what << ": " << remaining()
                               << " trailing byte(s) after the payload");
  }

  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace easyscale
