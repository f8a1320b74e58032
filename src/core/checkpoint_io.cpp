#include "core/checkpoint_io.hpp"

#include <cstdio>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace easyscale::core {

namespace {
constexpr std::uint32_t kFileMagic = 0x4553434Bu;  // "ESCK"
constexpr std::uint32_t kFileVersion = 2;
constexpr std::uint32_t kShardedFileVersion = 3;

struct FileGuard {
  std::FILE* f = nullptr;
  ~FileGuard() {
    if (f != nullptr) std::fclose(f);
  }
};

/// Read one u64-length-prefixed section with the allocation bounded by the
/// remaining file bytes, so a corrupt length field surfaces as a structured
/// error, not a multi-gigabyte allocation.
std::vector<std::uint8_t> read_bounded_section(std::FILE* f,
                                               const std::string& path,
                                               const char* what) {
  std::uint64_t section_size = 0;
  ES_CHECK(std::fread(&section_size, sizeof(section_size), 1, f) == 1,
           "checkpoint " << what << " header truncated: " << path);
  const long at = std::ftell(f);
  ES_CHECK(std::fseek(f, 0, SEEK_END) == 0 && at >= 0,
           "cannot size checkpoint " << path);
  const long file_end = std::ftell(f);
  ES_CHECK(file_end >= at &&
               section_size <= static_cast<std::uint64_t>(file_end - at),
           "checkpoint " << what << " truncated: " << path);
  ES_CHECK(std::fseek(f, at, SEEK_SET) == 0,
           "cannot rewind checkpoint " << path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(section_size));
  if (section_size > 0) {
    ES_CHECK(std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size(),
             "checkpoint " << what << " truncated: " << path);
  }
  return bytes;
}

}  // namespace

void ShardFrameMeta::save(ByteWriter& w) const {
  w.write(world_size);
  w.write(shard_degree);
  w.write(total_numel);
  w.write_vector(chunk_begin);
  w.write_vector(chunk_end);
  chunk_chain.save(w);
}

ShardFrameMeta ShardFrameMeta::load(ByteReader& r) {
  ShardFrameMeta meta;
  meta.world_size = r.read<std::int32_t>();
  meta.shard_degree = r.read<std::int32_t>();
  meta.total_numel = r.read<std::int64_t>();
  meta.chunk_begin = r.read_vector<std::int64_t>();
  meta.chunk_end = r.read_vector<std::int64_t>();
  ES_CHECK(meta.chunk_begin.size() == meta.chunk_end.size(),
           "shard frame chunk bound arrays disagree");
  ES_CHECK(meta.world_size >= 1 && meta.shard_degree >= 1 &&
               meta.world_size % meta.shard_degree == 0,
           "shard frame world/degree factorization invalid");
  meta.chunk_chain = DigestChain::load(r);  // verifies every link
  return meta;
}

void save_checkpoint_file(const std::string& path,
                          const std::vector<std::uint8_t>& bytes,
                          const DigestChain& chain,
                          const ShardFrameMeta* shard) {
  const std::string tmp = path + ".tmp";
  {
    FileGuard guard;
    guard.f = std::fopen(tmp.c_str(), "wb");
    ES_CHECK(guard.f != nullptr, "cannot open " << tmp << " for writing");
    const std::uint32_t magic = kFileMagic;
    const std::uint32_t version =
        shard != nullptr ? kShardedFileVersion : kFileVersion;
    const std::uint64_t size = bytes.size();
    const std::uint64_t digest = digest_bytes(bytes);
    ByteWriter cw;
    chain.save(cw);
    const std::uint64_t chain_size = cw.bytes().size();
    ES_CHECK(std::fwrite(&magic, sizeof(magic), 1, guard.f) == 1 &&
                 std::fwrite(&version, sizeof(version), 1, guard.f) == 1 &&
                 std::fwrite(&size, sizeof(size), 1, guard.f) == 1 &&
                 std::fwrite(&digest, sizeof(digest), 1, guard.f) == 1 &&
                 std::fwrite(&chain_size, sizeof(chain_size), 1, guard.f) == 1,
             "checkpoint header write failed");
    ES_CHECK(std::fwrite(cw.bytes().data(), 1, cw.bytes().size(), guard.f) ==
                 cw.bytes().size(),
             "checkpoint chain write failed");
    if (shard != nullptr) {
      ByteWriter sw;
      shard->save(sw);
      const std::uint64_t shard_size = sw.bytes().size();
      ES_CHECK(
          std::fwrite(&shard_size, sizeof(shard_size), 1, guard.f) == 1 &&
              std::fwrite(sw.bytes().data(), 1, sw.bytes().size(), guard.f) ==
                  sw.bytes().size(),
          "checkpoint shard frame write failed");
    }
    if (!bytes.empty()) {
      ES_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), guard.f) ==
                   bytes.size(),
               "checkpoint payload write failed");
    }
  }
  ES_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "cannot move checkpoint into place at " << path);
}

std::vector<std::uint8_t> load_checkpoint_file(
    const std::string& path, DigestChain* chain_out,
    std::optional<ShardFrameMeta>* shard_out) {
  FileGuard guard;
  guard.f = std::fopen(path.c_str(), "rb");
  ES_CHECK(guard.f != nullptr, "cannot open checkpoint " << path);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t size = 0, digest = 0;
  ES_CHECK(std::fread(&magic, sizeof(magic), 1, guard.f) == 1 &&
               std::fread(&version, sizeof(version), 1, guard.f) == 1 &&
               std::fread(&size, sizeof(size), 1, guard.f) == 1 &&
               std::fread(&digest, sizeof(digest), 1, guard.f) == 1,
           "checkpoint header truncated: " << path);
  ES_CHECK(magic == kFileMagic, "not an EasyScale checkpoint: " << path);
  ES_CHECK(version == 1 || version == kFileVersion ||
               version == kShardedFileVersion,
           "unsupported checkpoint version");
  DigestChain chain;
  if (version >= 2) {
    const std::vector<std::uint8_t> chain_bytes =
        read_bounded_section(guard.f, path, "chain");
    ByteReader cr(chain_bytes);
    chain = DigestChain::load(cr);  // verifies every link
    cr.require_exhausted("checkpoint digest chain");
  }
  std::optional<ShardFrameMeta> shard;
  if (version >= 3) {
    const std::vector<std::uint8_t> shard_bytes =
        read_bounded_section(guard.f, path, "shard frame");
    ByteReader sr(shard_bytes);
    shard = ShardFrameMeta::load(sr);
    sr.require_exhausted("checkpoint shard frame");
  }
  std::vector<std::uint8_t> bytes(size);
  if (size > 0) {
    ES_CHECK(std::fread(bytes.data(), 1, size, guard.f) == size,
             "checkpoint payload truncated: " << path);
  }
  ES_CHECK(digest_bytes(bytes) == digest,
           "checkpoint digest mismatch (corrupt file): " << path);
  if (chain_out != nullptr) *chain_out = std::move(chain);
  if (shard_out != nullptr) *shard_out = std::move(shard);
  return bytes;
}

}  // namespace easyscale::core
