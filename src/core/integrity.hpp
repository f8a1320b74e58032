// Re-execution witness: the engine-level SDC detector.
//
// Cross-replica voting (parallel/trainer) needs redundant replicas of the same
// logical thread; an EasyScale engine usually has none to spare.  The
// witness instead exploits D1 determinism directly: every `witness_every`
// steps, after gradients are computed but before all-reduce publishes
// them, the engine replays one EST per physical worker on a clean replica
// (same device variant selection, no post-op hook) and compares gradient
// digests plus loss bits.  Any divergence means the worker's device
// returned different bits for the same deterministic computation — the
// definition of silent data corruption — and surfaces as IntegrityError
// naming the device slot, which FaultSupervisor turns into condemnation,
// quarantine, and a walk-back to the last verified checkpoint.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace easyscale::core {

struct WitnessConfig {
  /// Verify every N global steps (0 = disabled).  With the injector's
  /// default sdc_ops_rate of 1.0 a sticky corrupt device fails the first
  /// witness after corruption begins, so detection latency is at most
  /// `witness_every` steps and every witness-passed step is certifiably
  /// clean (the verified-checkpoint precondition).
  std::int64_t witness_every = 0;
};

struct WitnessStats {
  std::int64_t runs = 0;        // witness steps executed
  std::int64_t replays = 0;     // EST re-executions performed
  std::int64_t mismatches = 0;  // divergences detected
  std::int64_t last_detected_worker = -1;
};

/// A witness replay diverged from the live computation.
class IntegrityError : public Error {
 public:
  IntegrityError(std::int64_t worker, std::int64_t est, std::int64_t step,
                 const std::string& what)
      : Error(what), worker_(worker), est_(est), step_(step) {}

  [[nodiscard]] std::int64_t worker() const { return worker_; }
  [[nodiscard]] std::int64_t est() const { return est_; }
  [[nodiscard]] std::int64_t step() const { return step_; }

 private:
  std::int64_t worker_;
  std::int64_t est_;
  std::int64_t step_;
};

}  // namespace easyscale::core
