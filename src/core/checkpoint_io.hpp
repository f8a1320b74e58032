// On-demand checkpoint persistence: a small framed file format (magic +
// version + payload size + FNV digest + per-tensor digest chain) around
// the engine's checkpoint bytes, so crashes mid-write are detected on
// load and the parameter content is independently attestable.
//
// Version history:
//   1 — magic, version, size, digest, payload (PR 1)
//   2 — adds a DigestChain section between the header and the payload:
//       one record per model tensor, hash-linked, so flipping any byte of
//       any stored digest (or truncating / extending the chain) fails the
//       load.  Verified checkpoints (checkpoint_manager) re-derive the
//       chain from the restored parameters and compare.
//   3 — adds a ShardFrameMeta section between the chain and the payload:
//       the parallelism-plan layout the checkpoint was taken under
//       (world_size, shard_degree, the fixed chunk bounds over the
//       flattened parameter space) plus a per-chunk digest chain over the
//       CANONICAL parameter bytes.  Because chunk bounds are a pure
//       function of (total_numel, num_chunks) — independent of
//       shard_degree — the chunk chain of a run saved at degree N is
//       byte-comparable to one saved at any other degree, which is how
//       sharded round-trip tests prove cross-degree restores bitwise.
//       v2 files (written whenever no shard frame is given) are unchanged
//       byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/digest.hpp"

namespace easyscale::core {

/// Shard-layout metadata frame of a v3 checkpoint.
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

/// Write checkpoint bytes to `path` atomically (write temp + rename),
/// recording `chain` alongside the payload (version 2), plus the
/// shard-layout frame when `shard` is given (version 3).
void save_checkpoint_file(const std::string& path,
                          const std::vector<std::uint8_t>& bytes,
                          const DigestChain& chain = {},
                          const ShardFrameMeta* shard = nullptr);

/// Read and verify a checkpoint file; throws on corruption or truncation
/// (payload digest mismatch, broken chain links, framing damage).  The
/// stored digest chain (empty for version-1 files) and shard frame
/// (nullopt for pre-v3 files) come back through the optional out-params.
[[nodiscard]] std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, DigestChain* chain_out = nullptr,
    std::optional<ShardFrameMeta>* shard_out = nullptr);

}  // namespace easyscale::core
