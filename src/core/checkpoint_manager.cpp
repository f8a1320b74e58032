#include "core/checkpoint_manager.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/log.hpp"

namespace easyscale::core {

namespace {
bool file_exists(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// Sidecar payload: the image's trailing digest as 16 hex chars.  Tying
/// the sidecar to the digest (not just the filename) means a rotation or
/// partial rewrite can never leave a stale `.ok` blessing a different file.
std::string sidecar_payload(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

void write_sidecar(const std::string& path, std::uint64_t digest) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ES_CHECK(f != nullptr, "cannot write checkpoint sidecar " << path);
  const std::string payload = sidecar_payload(digest);
  const bool ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
                  payload.size();
  std::fclose(f);
  ES_CHECK(ok, "checkpoint sidecar write failed: " << path);
}

std::optional<std::string> read_sidecar(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  char buf[32];
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  return std::string(buf, n);
}
}  // namespace

LoadedCheckpoint::LoadedCheckpoint(std::vector<std::uint8_t> image_bytes,
                                   const std::string& what, int gen)
    : bytes(std::move(image_bytes)),
      image(parse_image(bytes, what)),
      generation(gen) {}

CheckpointManager::CheckpointManager(std::string prefix, int keep)
    : prefix_(std::move(prefix)), keep_(keep) {
  ES_CHECK(keep_ >= 1, "must keep at least one checkpoint generation");
}

void CheckpointManager::raise_fence(std::int64_t epoch) {
  ES_CHECK(epoch >= 0, "fencing epoch must be non-negative, got " << epoch);
  fence_epoch_ = std::max(fence_epoch_, epoch);
}

void CheckpointManager::check_fence(std::int64_t epoch,
                                    const char* what) const {
  if (epoch < fence_epoch_) {
    ES_THROW("stale controller epoch "
             << epoch << " below the checkpoint fence " << fence_epoch_
             << ": " << what
             << " rejected (a deposed leader must not mutate state)");
  }
}

std::string CheckpointManager::path_for(int generation) const {
  return prefix_ + "." + std::to_string(generation);
}

std::string CheckpointManager::sidecar_for(int generation) const {
  return path_for(generation) + ".ok";
}

void CheckpointManager::save(std::span<const std::uint8_t> image,
                             std::int64_t fence) {
  check_fence(fence, "checkpoint save");
  raise_fence(fence);
  // Rotate: gen keep-2 -> keep-1, ..., gen 0 -> 1; then write gen 0.
  // Sidecars travel with their generation so blessed status survives
  // rotation.
  std::remove(path_for(keep_ - 1).c_str());
  std::remove(sidecar_for(keep_ - 1).c_str());
  for (int g = keep_ - 2; g >= 0; --g) {
    if (file_exists(path_for(g))) {
      ES_CHECK(std::rename(path_for(g).c_str(), path_for(g + 1).c_str()) == 0,
               "checkpoint rotation failed for generation " << g);
    }
    if (file_exists(sidecar_for(g))) {
      ES_CHECK(std::rename(sidecar_for(g).c_str(),
                           sidecar_for(g + 1).c_str()) == 0,
               "checkpoint sidecar rotation failed for generation " << g);
    }
  }
  save_checkpoint_file(path_for(0), image);
  // The fresh generation is unblessed until bless_newest() re-reads it.
  std::remove(sidecar_for(0).c_str());
}

bool CheckpointManager::bless_newest(std::int64_t fence) {
  check_fence(fence, "checkpoint bless");
  raise_fence(fence);
  const std::string path = path_for(0);
  if (!file_exists(path)) return false;
  try {
    const auto bytes = load_checkpoint_file(path);
    write_sidecar(sidecar_for(0), parse_image(bytes, path).digest);
    return true;
  } catch (const Error& e) {
    ES_LOG_WARN("checkpoint generation 0 failed verification: " << e.what());
    return false;
  }
}

std::optional<LoadedCheckpoint> CheckpointManager::read_generation(
    int generation, Trust trust) const {
  if (!file_exists(path_for(generation))) return std::nullopt;
  std::optional<std::string> recorded;
  if (trust == Trust::kBlessed) {
    recorded = read_sidecar(sidecar_for(generation));
    if (!recorded.has_value()) return std::nullopt;  // never blessed
  }
  try {
    const std::string path = path_for(generation);
    LoadedCheckpoint loaded(load_checkpoint_file(path), path, generation);
    if (recorded.has_value() &&
        *recorded != sidecar_payload(loaded.image.digest)) {
      ES_LOG_WARN("checkpoint generation "
                  << generation
                  << " sidecar does not match the file; skipping");
      return std::nullopt;
    }
    return loaded;
  } catch (const Error& e) {
    ES_LOG_WARN("checkpoint generation " << generation
                                         << " invalid: " << e.what());
    return std::nullopt;
  }
}

std::optional<LoadedCheckpoint> CheckpointManager::load_latest(
    Trust trust, std::int64_t fence) const {
  check_fence(fence, "recovery restore");
  for (int g = 0; g < keep_; ++g) {
    if (auto loaded = read_generation(g, trust)) return loaded;
  }
  return std::nullopt;
}

bool CheckpointManager::is_blessed(int generation) const {
  return read_generation(generation, Trust::kBlessed).has_value();
}

int CheckpointManager::generations_on_disk() const {
  int n = 0;
  for (int g = 0; g < keep_; ++g) {
    if (file_exists(path_for(g))) ++n;
  }
  return n;
}

void CheckpointManager::clear() {
  for (int g = 0; g < keep_; ++g) {
    std::remove(path_for(g).c_str());
    std::remove(sidecar_for(g).c_str());
  }
}

}  // namespace easyscale::core
