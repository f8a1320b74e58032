// Rotating checkpoint manager.
//
// Production elastic training checkpoints frequently (every scale event and
// periodically in between, §4).  A crash can tear the newest file, so the
// manager keeps the last `keep` generations (`<prefix>.0` newest ...
// `<prefix>.{keep-1}` oldest) and load_latest walks back to the first
// generation that meets the requested trust level — the job never loses
// more than one checkpoint interval to corruption.
//
// A generation is a checkpoint image verbatim (core/checkpoint_io.hpp).
// One save, one bless, one loader:
//  - save() rotates and writes generation 0 UNBLESSED.
//  - bless_newest() re-reads and parses generation 0 (chain links + the
//    image's trailing digest) and writes a `<path>.ok` sidecar recording
//    that trailer.  The caller (FaultSupervisor) blesses only when the engine's
//    re-execution witness certified the checkpointed step: silent data
//    corruption can make a checkpoint perfectly well-formed on disk yet
//    record poisoned parameters.
//  - load_latest(Trust) returns the newest generation that is kIntact (the
//    image parses and its digests verify) or kBlessed (intact AND carrying
//    a sidecar that matches the image's trailer).  Crash recovery reads kIntact;
//    SDC recovery reads kBlessed.
//
// Every call carries a control-plane fencing epoch (fault/controller.hpp):
// the manager tracks the highest epoch it has seen, and a save, bless or
// load arriving with a LOWER epoch comes from a deposed leader and is
// rejected with a named error — a stale blessing can never overwrite or
// roll back a newer committed decision.  Without a control plane every
// caller passes fence 0 and the fence never rises.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "core/checkpoint_io.hpp"

namespace easyscale::core {

/// How much a restore must trust the generation it reads.
enum class Trust {
  kIntact,   // the image parses, its trailer and chain links verify
  kBlessed,  // intact, with a `.ok` sidecar matching the image's trailer
};

/// One image parsed once: a generation read back by load_latest, or a peer
/// snapshot.  `image.payload` views `bytes`, so the declared moves (a moved
/// vector keeps its buffer) make the type move-only.
struct LoadedCheckpoint {
  /// parse_image(`bytes`); throws an Error starting with `what`.
  LoadedCheckpoint(std::vector<std::uint8_t> bytes, const std::string& what,
                   int generation = 0);
  LoadedCheckpoint(LoadedCheckpoint&&) = default;
  LoadedCheckpoint& operator=(LoadedCheckpoint&&) = default;

  std::vector<std::uint8_t> bytes;  // the image
  CheckpointImage image;            // parsed from `bytes`
  int generation = 0;
};

class CheckpointManager {
 public:
  CheckpointManager(std::string prefix, int keep = 3);

  /// Monotone: raising to an older epoch is a no-op.
  void raise_fence(std::int64_t epoch);
  [[nodiscard]] std::int64_t fence_epoch() const { return fence_epoch_; }

  /// Fence-check, raise the fence, rotate older generations down (sidecars
  /// ride along), and persist `image` as a new UNBLESSED generation 0.
  void save(std::span<const std::uint8_t> image, std::int64_t fence = 0);

  /// Fence-check, re-read and parse generation 0, and on success write the
  /// `.ok` sidecar holding the image's trailer.  Returns whether the
  /// generation is now blessed (a torn file stays unblessed).
  bool bless_newest(std::int64_t fence = 0);

  /// Fence-check, then walk the generations newest-first and return the
  /// first one meeting `trust`; nullopt when none does.
  [[nodiscard]] std::optional<LoadedCheckpoint> load_latest(
      Trust trust, std::int64_t fence = 0) const;

  /// Whether generation `g` carries a sidecar matching its trailer.
  [[nodiscard]] bool is_blessed(int generation) const;

  /// Number of generations currently on disk (valid or not).
  [[nodiscard]] int generations_on_disk() const;

  [[nodiscard]] std::string path_for(int generation) const;

  /// Delete every generation and sidecar.
  void clear();

 private:
  /// Throws when `epoch` sits below the fence — the caller is a deposed
  /// leader whose lease epoch was superseded.
  void check_fence(std::int64_t epoch, const char* what) const;
  [[nodiscard]] std::string sidecar_for(int generation) const;
  /// Generation `g` when it exists and meets `trust`, else nullopt.
  [[nodiscard]] std::optional<LoadedCheckpoint> read_generation(
      int generation, Trust trust) const;

  std::string prefix_;
  int keep_;
  /// Highest controller fencing epoch seen; stale-writer rejection floor.
  std::int64_t fence_epoch_ = 0;
};

}  // namespace easyscale::core
