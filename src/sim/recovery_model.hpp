// Recovery-latency and lost-steps model under MTBF failure traces.
//
// Quantifies what the peer-checkpoint pipeline (fault/peer_checkpoint.hpp)
// buys over disk-only walk-back, per workload: a job checkpointing to disk
// every `disk_every` steps loses up to a full interval of progress per
// failure and pays a slow disk restore, while a peer-replicated job
// snapshots every `peer_every` steps (typically 1 — only the
// copy-on-snapshot staging is on the critical path) and restores by
// fetching frames from surviving peers over the fabric.  The peer path
// falls back to disk only when a failure's seeded replica-loss draw wipes
// every surviving copy of the dead rank's frame (no quorum).
//
// The model replays one cluster failure trace (trace::gpu_failure_trace)
// against BOTH strategies with independent job timelines — each failure
// rolls that strategy's step counter back to its own newest recovery point
// and charges its own restore latency — so the trace-wide totals are the
// §2.1-style comparison the BENCH_recovery table reports.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/transport.hpp"
#include "trace/generators.hpp"

namespace easyscale::sim {

struct RecoveryModelConfig {
  /// Seconds of compute per training step for this workload.
  double step_s = 0.25;
  /// Steps between disk checkpoints (serializing + writing stalls
  /// training, so disk cadence is coarse).
  std::int64_t disk_every = 16;
  /// Steps between peer snapshots (staging is cheap, so cadence is fine).
  std::int64_t peer_every = 1;
  /// Peer copies per frame beyond the owner's.  0 means every failure
  /// falls back to disk (the owner copy dies with the rank).
  int peer_replicas = 2;
  /// Ranks the snapshot is framed across (frame size = bytes / world).
  int world = 4;
  /// Serialized snapshot size (whole job).
  std::int64_t snapshot_bytes = 64 << 20;
  /// Disk restore latency per recovery (load + verify + rebuild).
  double disk_restore_s = 30.0;
  /// Probability an individual surviving replica of the dead rank's frame
  /// is also gone at recovery time (host OOM, eviction, double fault).
  double replica_loss_rate = 0.05;
  /// Peer fetch cost model: the requester pulls the dead rank's frame from
  /// one surviving holder (latency + frame bytes / bandwidth).
  comm::TransportConfig fabric;
  std::uint64_t seed = 0x9EE27;
};

struct RecoveryModelResult {
  std::int64_t failures = 0;
  // Disk-only strategy.
  std::int64_t lost_steps_disk = 0;
  double recovery_s_disk = 0.0;
  std::int64_t steps_done_disk = 0;
  // Peer-first strategy.
  std::int64_t lost_steps_peer = 0;
  double recovery_s_peer = 0.0;
  std::int64_t steps_done_peer = 0;
  std::int64_t peer_recoveries = 0;
  std::int64_t disk_fallbacks = 0;  // quorum wiped; walked back to disk
};

/// Replay `failures` (sorted or not; the model sorts a copy) against both
/// strategies.  Deterministic for a config.
[[nodiscard]] RecoveryModelResult model_recovery(
    const std::vector<trace::ClusterFailureEvent>& failures,
    const RecoveryModelConfig& config);

/// Fabric seconds to fetch one frame of `frame_bytes` (latency + wire).
[[nodiscard]] double peer_fetch_seconds(const comm::TransportConfig& fabric,
                                        std::int64_t frame_bytes);

}  // namespace easyscale::sim
