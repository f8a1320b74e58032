// Live intra-job scheduler (§3.4, the AIMaster side): bridges the
// companion module's plans to any running parallel::Trainer (an EasyScale
// engine or a plain trainer; the plan's EST counts become its packing).
//
//  Role-1: apply the best configuration available (apply_best_plan);
//  Role-2: form scale-out resource proposals for the inter-job scheduler
//          (make_proposals);
//  Role-3: execute an approved plan immediately (apply_plan) and fall back
//          to the previous plan if the observed throughput regressed
//          (report_throughput).
#pragma once

#include "parallel/trainer.hpp"
#include "fault/controller.hpp"
#include "sched/companion.hpp"

namespace easyscale::sched {

class IntraJobScheduler {
 public:
  IntraJobScheduler(parallel::Trainer& trainer, Companion companion,
                    bool allow_heter);

  /// The companion's best plan under `available` GPUs; one EST per GPU if
  /// the trainer needs one rank per worker.  Invalid when none fits.
  [[nodiscard]] Plan best_plan(const GpuVector& available) const;

  /// Role-1: pick and apply best_plan(available).  Returns false (and
  /// leaves the trainer untouched) when no valid plan exists.
  bool apply_best_plan(const GpuVector& available);

  /// Role-2: top-K scale-out proposals from the current plan (none for a
  /// trainer that needs one rank per worker).
  [[nodiscard]] std::vector<Companion::Proposal> make_proposals(
      const GpuVector& spare, std::size_t top_k = 3) const;

  /// Role-3: reconfigure the trainer onto `plan` (checkpoint + rescale).
  void apply_plan(const Plan& plan);

  /// Report measured throughput (mini-batches/s).  If the most recent
  /// apply_plan was a scale-out and the observation regressed, the
  /// scheduler reverts to the previous plan and returns true.
  bool report_throughput(double observed_mbps);

  /// EST re-balancing on the comm straggler signal: when the worst-stalled
  /// worker's cumulative link-stall time (Trainer::comm_stall_per_worker)
  /// exceeds `threshold_s`, move one of its ESTs to the least-stalled
  /// worker and reconfigure — the EasyScale answer to a persistently slow
  /// link (bitwise neutral, like every remap).  Returns whether a move
  /// happened; requires the trainer's resilient comm substrate.
  bool rebalance_stragglers(double threshold_s);

  /// SDC quarantine: vacate worker `slot` (condemned by the integrity
  /// witness), blocklist its device spec, and deal its orphaned ESTs to the
  /// least-loaded survivors — the same bitwise-neutral remap machinery the
  /// straggler path uses, so quarantining never perturbs training bits.
  /// Returns false (trainer untouched) when the slot cannot be vacated
  /// (out of range, the last worker, or one rank per worker is needed).
  bool quarantine_worker(std::int64_t slot);

  /// Device specs removed by quarantine_worker; a blocklisted spec stands
  /// for a condemned physical device the scheduler must never hand back.
  [[nodiscard]] const std::vector<parallel::WorkerSpec>& quarantine_blocklist()
      const {
    return blocklist_;
  }

  /// Consume COMMITTED kQuarantine entries from the replicated decision
  /// log (fault/controller.hpp): each unseen entry's slot (arg1) is vacated
  /// via quarantine_worker.  An internal cursor makes repeated calls
  /// idempotent — replaying the log after a controller failover applies
  /// each quarantine exactly once.  Returns the number of workers vacated
  /// this call.
  int apply_quarantine_decisions(const fault::DecisionLog& log);

  /// Log entries already consumed by apply_quarantine_decisions.
  [[nodiscard]] std::int64_t quarantine_log_cursor() const {
    return quarantine_cursor_;
  }

  /// Drop the current plan (the job pauses; GPUs return to the pool).  The
  /// trainer keeps its last worker set but the cluster stops stepping it.
  void release() {
    previous_ = Plan{};
    current_ = Plan{};
  }

  [[nodiscard]] const Plan& current_plan() const { return current_; }
  [[nodiscard]] const Companion& companion() const { return companion_; }
  [[nodiscard]] bool allow_heter() const { return allow_heter_; }

 private:
  /// Translate a plan into (worker specs, EST assignment) for the trainer.
  void reconfigure_trainer(const Plan& plan);

  parallel::Trainer* trainer_;
  Companion companion_;
  bool allow_heter_;
  Plan current_;
  Plan previous_;
  double previous_observed_ = 0.0;
  std::vector<parallel::WorkerSpec> blocklist_;
  std::int64_t quarantine_cursor_ = 0;  // decision-log entries consumed
};

}  // namespace easyscale::sched
