#include "core/checkpoint_io.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace easyscale::core {

namespace {
struct FileGuard {
  std::FILE* f = nullptr;
  ~FileGuard() {
    if (f != nullptr) std::fclose(f);
  }
};
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

std::vector<std::uint8_t> serialize_image(
    const DigestChain& chain, const ShardFrameMeta& shard,
    const std::function<void(ByteWriter&)>& write_payload) {
  ByteWriter w;
  chain.save(w);
  shard.save(w);
  const std::size_t size_at = w.bytes().size();
  w.write<std::uint64_t>(0);
  write_payload(w);
  w.overwrite<std::uint64_t>(size_at,
                             w.bytes().size() - size_at - sizeof(std::uint64_t));
  w.write<std::uint64_t>(digest_bytes(w.bytes()));
  return w.take();
}

CheckpointImage parse_image(std::span<const std::uint8_t> image,
                            const std::string& what) {
  constexpr std::size_t kTrailer = sizeof(std::uint64_t);
  ES_CHECK(image.size() >= kTrailer,
           what << ": " << image.size()
                << " byte(s) cannot hold a checkpoint image");
  const auto body = image.first(image.size() - kTrailer);
  CheckpointImage parsed;
  std::memcpy(&parsed.digest, image.data() + body.size(), kTrailer);
  ES_CHECK(digest_bytes(body) == parsed.digest,
           what << ": checkpoint image digest mismatch (torn or corrupt)");
  try {
    ByteReader r(body);
    parsed.chain = DigestChain::load(r);  // verifies every link
    parsed.shard = ShardFrameMeta::load(r);
    parsed.payload = r.read_byte_span();
    r.require_exhausted("checkpoint image");
  } catch (const Error& e) {
    ES_THROW(what << ": " << e.what());
  }
  return parsed;
}

void save_checkpoint_file(const std::string& path,
                          std::span<const std::uint8_t> image) {
  const std::string tmp = path + ".tmp";
  {
    FileGuard guard;
    guard.f = std::fopen(tmp.c_str(), "wb");
    ES_CHECK(guard.f != nullptr, "cannot open " << tmp << " for writing");
    ES_CHECK(image.empty() || std::fwrite(image.data(), 1, image.size(),
                                          guard.f) == image.size(),
             "checkpoint write failed: " << tmp);
  }
  ES_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "cannot move checkpoint into place at " << path);
}

std::vector<std::uint8_t> load_checkpoint_file(const std::string& path) {
  FileGuard guard;
  guard.f = std::fopen(path.c_str(), "rb");
  ES_CHECK(guard.f != nullptr, "cannot open checkpoint " << path);
  // A directory opens too, and its "size" is no bound on a read.
  std::error_code ec;
  ES_CHECK(std::filesystem::is_regular_file(path, ec),
           "not a checkpoint file: " << path);
  ES_CHECK(std::fseek(guard.f, 0, SEEK_END) == 0,
           "cannot size checkpoint " << path);
  const long size = std::ftell(guard.f);
  ES_CHECK(size >= 0 && std::fseek(guard.f, 0, SEEK_SET) == 0,
           "cannot size checkpoint " << path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  ES_CHECK(bytes.empty() ||
               std::fread(bytes.data(), 1, bytes.size(), guard.f) ==
                   bytes.size(),
           "checkpoint read failed: " << path);
  return bytes;
}

}  // namespace easyscale::core
