// Asynchronous peer-replicated checkpointing with in-fabric recovery.
//
// Disk walk-back (core/checkpoint_manager.hpp) bounds the damage of a crash
// to one checkpoint interval — but on a large cluster that interval is long
// (serializing + writing a snapshot stalls training) and the disk restore
// itself is slow.  Production elastic systems (ElasWave, Gemini-style
// in-memory checkpointing) close the gap by keeping the NEWEST snapshots in
// peer GPU/host memory: every step, each rank's slice of the snapshot is
// replicated to K peers over the fabric, and recovery fetches the newest
// commonly-available epoch from the survivors instead of walking disk.
//
// This module is that pipeline, deterministic end to end:
//
//  - SnapshotStager: double-buffered copy-on-snapshot.  At a step boundary
//    the engine's serialized state is COPIED into the inactive staging
//    buffer (the only cost on the training critical path); serialization
//    into frames and replication happen afterwards, logically overlapped
//    with the next step's compute.
//
//  - PeerFrame: one rank's contiguous slice of a staged snapshot, framed
//    exactly like the on-disk checkpoint files — magic, version, a
//    per-slab DigestChain and a whole-payload digest — so a torn or
//    bit-flipped frame is rejected at parse, whatever byte broke.
//
//  - choose_peers: deterministic replica placement.  Peers are taken in
//    ring order after the owner, skipping ranks on the owner's node (a node
//    loss must not take a frame's only copies) and ranks on the exclusion
//    list (SDC-quarantined or dead devices hold nothing we would trust).
//
//  - PeerReplicaStore: one rank's in-memory shelf of frames, keyed by
//    (owner, epoch), with bounded retention.
//
//  - PeerCheckpointService: the two-phase epoch commit protocol.  Phase 1
//    (prepare) pushes every frame to its replica set over the transport
//    with abort-drain retries (comm/peer.hpp); phase 2 (bless) appends the
//    epoch's CommitRecord — whole-snapshot digest plus per-frame digests —
//    to the committed log.  Recovery reads ONLY committed epochs, so a
//    crash at any point before the bless leaves the epoch invisible rather
//    than half-trusted.  recover() walks committed epochs newest-first and
//    returns the first with full frame coverage from intact, digest-matching
//    copies (the quorum); missing local frames are fetched over the fabric.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "comm/peer.hpp"
#include "comm/transport.hpp"
#include "common/digest.hpp"

namespace easyscale::fault {

struct PeerCheckpointConfig {
  /// Peer copies per frame, beyond the owner's own.  0 disables replication
  /// (the service still stages, but recovery can only use owner copies).
  int replicas = 2;
  /// Ranks per node for placement: a candidate peer sharing
  /// `owner / ranks_per_node` is skipped.
  int ranks_per_node = 1;
  /// Committed epochs retained in the stores; older frames are GC'd after
  /// each successful commit.
  std::int64_t keep_epochs = 2;
  comm::PeerTransferConfig transfer;
};

/// One rank's slice of a snapshot, with the same framing discipline as the
/// on-disk checkpoint files: any single damaged byte fails the parse.
struct PeerFrame {
  std::int64_t epoch = 0;
  int owner = 0;
  int world = 0;
  std::vector<std::uint8_t> payload;

  /// Fixed-width slabs the payload is digest-chained over (mirrors the
  /// per-tensor chain of disk frames; slabs because a frame is opaque
  /// bytes here).
  static constexpr std::int64_t kSlabBytes = 4096;

  [[nodiscard]] static DigestChain slab_chain(
      std::span<const std::uint8_t> payload);

  /// Serialize with magic/version framing, the slab DigestChain and a
  /// whole-payload digest.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parse + verify framing, chain links, slab digests and payload digest.
  /// Throws Error on ANY inconsistency — a torn frame cannot parse.
  [[nodiscard]] static PeerFrame parse(
      const std::vector<std::uint8_t>& bytes);
};

/// Deterministic replica placement: up to `replicas` ranks in ring order
/// after `owner`, skipping the owner's node and every rank in `excluded`.
/// May return fewer than `replicas` when the cluster is too small or too
/// quarantined — the commit degrades (or aborts, if zero and required).
[[nodiscard]] std::vector<int> choose_peers(int owner, int world, int replicas,
                                            int ranks_per_node,
                                            const std::set<int>& excluded);

/// One rank's in-memory frame shelf.  Deterministic iteration order
/// (std::map) keeps seeded replica-loss injection reproducible.
class PeerReplicaStore {
 public:
  void put(int owner, std::int64_t epoch, std::vector<std::uint8_t> frame);
  [[nodiscard]] const std::vector<std::uint8_t>* find(
      int owner, std::int64_t epoch) const;
  /// Remove one frame; returns whether it was present.
  bool drop(int owner, std::int64_t epoch);
  /// Remove every frame with epoch < min_epoch.
  void gc_below(std::int64_t min_epoch);
  [[nodiscard]] std::vector<std::pair<int, std::int64_t>> entries() const;
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  void clear() { frames_.clear(); }

 private:
  std::map<std::pair<int, std::int64_t>, std::vector<std::uint8_t>> frames_;
};

/// The blessing of phase 2: recovery trusts a frame copy only if its digest
/// matches this record, and a reassembled snapshot only if the whole-payload
/// digest does too.
struct PeerCommitRecord {
  std::int64_t epoch = 0;
  std::uint64_t snapshot_digest = 0;
  std::vector<std::uint64_t> frame_digests;  // digest of each serialized frame
};

struct PeerCheckpointStats {
  std::int64_t epochs_staged = 0;
  std::int64_t epochs_committed = 0;
  std::int64_t epochs_aborted = 0;   // prepare failed; epoch never blessed
  std::int64_t frames_pushed = 0;    // successful peer deliveries
  std::int64_t push_retries = 0;
  std::int64_t frames_fetched = 0;   // fetched over the fabric at recovery
  std::int64_t fetch_retries = 0;
  std::int64_t replicas_dropped = 0;
  std::int64_t quorum_failures = 0;  // committed epochs skipped at recovery
  double replicate_virtual_s = 0.0;  // background fabric time (overlapped)
  double fetch_virtual_s = 0.0;      // recovery fabric time (critical path)
};

/// The service: one instance per supervised job, ranks indexed 0..world-1
/// over the supplied transport (not owned).  All methods are deterministic.
class PeerCheckpointService {
 public:
  PeerCheckpointService(comm::Transport& transport, PeerCheckpointConfig cfg);

  // --- snapshot pipeline -------------------------------------------------
  /// Phase 0, ON the critical path but cheap: copy the serialized snapshot
  /// into the inactive staging buffer.  Overwrites any still-unreplicated
  /// staged epoch (the newer state wins; the older one was never blessed).
  void stage(std::int64_t epoch, std::vector<std::uint8_t> snapshot);

  /// Phase 1 (prepare), off the critical path: split the staged snapshot
  /// into `world` frames, store the owner copies, push each frame to its
  /// replica set (excluding `excluded` ranks from placement).  Returns
  /// false — and forgets the epoch — when any frame ends with zero peer
  /// copies while `replicas > 0` and a peer was placeable (abort).
  bool replicate_staged(const std::set<int>& excluded);

  /// Phase 2 (bless): append the prepared epoch's commit record, making it
  /// visible to recovery, then GC stores down to keep_epochs.
  void commit_prepared();

  /// stage + replicate + commit in one call, with no decision in between.
  bool snapshot(std::int64_t epoch, std::vector<std::uint8_t> bytes,
                const std::set<int>& excluded);

  [[nodiscard]] bool has_staged() const { return staged_.has_value(); }
  [[nodiscard]] bool has_prepared() const { return prepared_.has_value(); }

  // --- membership & faults ----------------------------------------------
  /// The rank's device (and its DRAM) is gone: store cleared, rank dead.
  void mark_dead(int rank);
  [[nodiscard]] bool rank_alive(int rank) const;
  /// Drop one seeded frame from `holder`'s store (replica-loss injection).
  /// Returns false when the store is empty or the rank is dead.
  bool drop_random_replica(int holder, std::uint64_t seed);

  // --- recovery ----------------------------------------------------------
  struct Recovered {
    std::int64_t epoch = 0;
    std::vector<std::uint8_t> snapshot;
    int frames_fetched = 0;  // over the fabric (not already requester-local)
  };
  /// Newest committed epoch with full intact frame coverage across the
  /// surviving stores, reassembled at `requester`.  Frames not already in
  /// the requester's store are fetched over the transport with abort-drain
  /// retries; a frame whose every copy is missing, torn or digest-mismatched
  /// fails that epoch's quorum and the walk continues to the next older
  /// committed epoch.  nullopt when no committed epoch has a quorum.
  [[nodiscard]] std::optional<Recovered> recover(
      int requester, const std::set<int>& excluded);

  // --- introspection -----------------------------------------------------
  [[nodiscard]] const PeerCheckpointStats& stats() const { return stats_; }
  [[nodiscard]] const PeerReplicaStore& store(int rank) const;
  [[nodiscard]] const std::vector<PeerCommitRecord>& commits() const {
    return committed_;
  }
  [[nodiscard]] int world() const { return world_; }

 private:
  struct Staged {
    std::int64_t epoch = 0;
    std::vector<std::uint8_t> snapshot;
  };
  struct Prepared {
    PeerCommitRecord record;
  };

  /// Split [0, n) into `world` contiguous slices (first `n % world` get the
  /// extra byte); returns (offset, size) per rank.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>>
  frame_bounds(std::int64_t n) const;

  void gc_stores();

  comm::Transport* transport_;
  PeerCheckpointConfig cfg_;
  int world_ = 0;
  std::vector<PeerReplicaStore> stores_;
  std::vector<std::uint8_t> dead_;
  std::optional<Staged> staged_;      // double buffer: the inactive side
  std::optional<Prepared> prepared_;  // phase-1 complete, awaiting bless
  std::vector<PeerCommitRecord> committed_;
  PeerCheckpointStats stats_;
};

}  // namespace easyscale::fault
