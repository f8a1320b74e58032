// The checkpoint image: the one frame of an on-demand checkpoint (§3.2), the
// same bytes in memory, in a file, in a rotating store generation and in a
// peer snapshot.
//
//   DigestChain      one record per model tensor, hash-linked, so flipping
//                    any stored digest or truncating the chain fails a load
//   ShardFrameMeta   the plan layout the image was taken under (world_size,
//                    shard_degree, the fixed chunk bounds over the flattened
//                    parameter space) plus a per-chunk digest chain over
//                    the CANONICAL parameter bytes
//   u64 + payload    parallel::Trainer's state (save_state)
//   u64 digest       FNV of every byte before it: the whole-image trailer
//
// Chunk bounds are a pure function of (total_numel, num_chunks), not of
// shard_degree, so the chunk chain of an image taken at degree N is
// byte-comparable to one taken at any other degree; that is how sharded
// round-trip tests prove cross-degree restores bitwise.  The trailer is
// what catches a flip inside the optimizer, schedule or context sections,
// which the chunk chain does not attest.  A file holds the image verbatim,
// so the trailer is the one whole-image digest of a save.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"

namespace easyscale::core {

/// Shard-layout metadata frame of a checkpoint image.
struct ShardFrameMeta {
  std::int32_t world_size = 1;
  std::int32_t shard_degree = 1;
  std::int64_t total_numel = 0;
  std::vector<std::int64_t> chunk_begin;  // fixed chunk bounds, flattened
  std::vector<std::int64_t> chunk_end;    // parameter space, aligned 1:1
  /// One record per chunk (id = chunk index), digest over the canonical
  /// parameter bytes of that chunk; hash-linked like the tensor chain.
  DigestChain chunk_chain;

  void save(ByteWriter& w) const;
  [[nodiscard]] static ShardFrameMeta load(ByteReader& r);
  friend bool operator==(const ShardFrameMeta&,
                         const ShardFrameMeta&) = default;
};

/// A parsed and verified image; `payload` views the parsed bytes.
struct CheckpointImage {
  DigestChain chain;
  ShardFrameMeta shard;
  std::span<const std::uint8_t> payload;
  std::uint64_t digest = 0;  // the trailer
};

/// Serialize an image; `write_payload` writes the payload in place.
[[nodiscard]] std::vector<std::uint8_t> serialize_image(
    const DigestChain& chain, const ShardFrameMeta& shard,
    const std::function<void(ByteWriter&)>& write_payload);

/// Verify the trailer, then parse the chain (every link verified), the
/// shard frame and the payload.  Any truncation or byte flip throws an
/// Error whose message starts with `what` (a path or a label).
[[nodiscard]] CheckpointImage parse_image(std::span<const std::uint8_t> image,
                                          const std::string& what);

/// Write an image to `path` atomically (write temp + rename).
void save_checkpoint_file(const std::string& path,
                          std::span<const std::uint8_t> image);

/// Read a file's bytes in one read bounded by its size; throws an Error
/// naming `path` when it cannot be read.  parse_image verifies them.
[[nodiscard]] std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path);

}  // namespace easyscale::core
