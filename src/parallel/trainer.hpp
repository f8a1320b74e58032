// Planner-driven data-parallel trainer: the generalization of the old
// fixed-DoP DDP baseline trainer from pure replicated data parallelism to
// a parallel::Plan of data_replicas × shard_degree.
//
// shard_degree == 1 is exactly the PyTorch-DDP fixed-DoP baseline: one
// model/optimizer replica per rank, bucketed ring all-reduce over the
// physical world, stock rebuild-after-first-iteration buckets.
//
// shard_degree > 1 adds ZeRO-1-style optimizer-state sharding: the
// gradient sync becomes a reduce-scatter (bitwise-identical reduction,
// each rank receives only its shard's averaged elements), the optimizer
// updates only owned chunks (optim::Optimizer::step_slices), and an
// all-gather publishes the owner-updated parameter chunks to every
// replica.  The resulting trajectory is BITWISE IDENTICAL to the
// unsharded run at every step (docs/PARALLELISM.md, proof sketch), and
// reshard() re-assigns chunk ownership mid-run without perturbing a bit.
// Checkpoints are canonical v3 frames (core/checkpoint_io): save at
// shard_degree N, restore at any degree dividing the same world.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "comm/allreduce.hpp"
#include "comm/async_allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/resilient.hpp"
#include "comm/shard.hpp"
#include "core/checkpoint_io.hpp"
#include "data/pipeline.hpp"
#include "kernels/exec_context.hpp"
#include "models/workload.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"
#include "parallel/plan.hpp"

namespace easyscale::parallel {

struct TrainerConfig {
  std::string workload = "ResNet18";
  std::int64_t world_size = 4;
  std::int64_t batch_per_worker = 8;
  std::uint64_t seed = 42;
  kernels::KernelPolicy policy = kernels::KernelPolicy::kDeterministic;
  std::vector<kernels::DeviceType> devices;  // per rank; default all V100
  bool rebuild_buckets = true;
  /// Custom D2 GEMM kernel handle (kernels/custom.hpp), 0 = built-in.
  int custom_d2_gemm = 0;
  /// Bucket capacity in bytes; 0 resolves to EASYSCALE_BUCKET_CAP (when
  /// set and >= the largest parameter) and otherwise to the historical
  /// 4096-byte default.  See comm::resolve_bucket_cap.
  std::int64_t bucket_cap_bytes = 0;
  optim::OptimizerConfig optim;
  std::int64_t lr_step_epochs = 20;
  float gamma = 0.1f;
  /// Run ranks on parallel threads within a step (bitwise identical to
  /// sequential; replicas are disjoint between synchronization points).
  bool parallel_workers = false;
  /// Intra-op compute threads per rank (0 = the EASYSCALE_THREADS process
  /// default); all ranks share one bounded global pool.  Bitwise identical
  /// for every value.
  int intra_op_threads = 0;
  /// Route gradient sync through the failure-aware fabric (one transport
  /// rank per physical rank, identity mapping).  Bitwise identical to the
  /// plain path when no fault fires; a condemned rank throws
  /// comm::RankDeathError out of run_steps (the caller then rolls back
  /// and, when sharded, reshards).
  bool resilient_comm = false;
  comm::TransportConfig transport;
  comm::ResilientConfig resilient;  // on_death is forced to kAbort
  /// Pre-sampled comm fault schedule replayed by the transport.
  std::vector<comm::CommFaultEvent> comm_faults;
  /// Redundant-replica SDC voting (see the PR-5 integrity layer).  Mutually
  /// exclusive with shard_degree > 1: voting needs full gradient replicas.
  std::int64_t logical_world = 0;
  /// Pipelined bucket flush (docs/PERFORMANCE.md): bitwise identical to
  /// the sequential path, including when sharded (the per-bucket
  /// reduce-scatter is subset-aware like the all-reduce).
  bool overlap_comm = false;
  comm::AsyncConfig async_comm;
  /// Optimizer-state shard degree: 1 = replicated (stock DDP), > 1 =
  /// ZeRO-1 sharding.  Must divide world_size and be <= plan_chunks.
  int shard_degree = 1;
  /// Chunk count of the plan's fixed partition over the flattened
  /// parameter space.  A pure function of the parameter count partitions
  /// the same way at every shard_degree — do not change mid-job.
  int plan_chunks = kDefaultPlanChunks;
};

/// Outcome of one gradient-digest vote (logical_world > 0 only).
struct VoteReport {
  std::int64_t buckets_checked = 0;
  std::int64_t digest_bytes_exchanged = 0;
  std::int64_t exchange_retransmits = 0;  // checksum/timeout-triggered
  /// Ranks whose per-bucket digests lost the majority vote.  When a group
  /// of two splits 1-1 there is no majority; both members are listed
  /// (detection without attribution).
  std::vector<std::int64_t> corrupt_ranks;
};

class Trainer {
 public:
  Trainer(TrainerConfig config, const data::Dataset& train,
          const data::AugmentConfig& augment);

  /// Run `n` synchronized global steps; records the last rank's loss.
  void run_steps(std::int64_t n);

  /// Run whole epochs (advances the LR schedule between them).
  void run_epochs(std::int64_t n);

  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }

  /// Bitwise digest of rank-0 model parameters.
  [[nodiscard]] std::uint64_t params_digest() const;

  /// Rank-0 replica (e.g. for evaluation).
  [[nodiscard]] models::Workload& model(std::int64_t rank = 0) {
    return *replicas_[static_cast<std::size_t>(rank)].workload;
  }

  [[nodiscard]] std::int64_t steps_per_epoch() const {
    return steps_per_epoch_;
  }
  [[nodiscard]] std::int64_t global_step() const { return global_step_; }
  [[nodiscard]] const comm::BucketLayout& current_layout() const {
    return layout_;
  }
  [[nodiscard]] optim::StepLR& scheduler(std::int64_t rank = 0) {
    return *replicas_[static_cast<std::size_t>(rank)].scheduler;
  }

  /// Set the LR-schedule epoch on every rank (elastic baselines restart
  /// their world and must carry the schedule across rebuilds).
  void set_epoch_all(std::int64_t epoch) {
    for (auto& rep : replicas_) rep.scheduler->set_epoch(epoch);
  }

  [[nodiscard]] std::int64_t world_size() const { return config_.world_size; }

  // --- Parallelism-plan surface ---

  [[nodiscard]] const Plan& plan() const { return plan_; }
  [[nodiscard]] int shard_degree() const { return plan_.shard_degree; }

  /// Elastic reshard at a step boundary: re-assign chunk ownership to
  /// `new_shard_degree` (which must divide world_size), redistributing
  /// optimizer-state chunks from their canonical owners.  The chunk bounds
  /// are fixed by the plan, so no state is split or re-summed and the
  /// continued trajectory is bitwise unchanged.
  void reshard(int new_shard_degree);

  /// Save a canonical v3 checkpoint: replicated parameters, gathered
  /// canonical optimizer state, schedule, per-rank data/RNG state, bucket
  /// layout — plus the shard frame (plan layout + per-chunk digest chain,
  /// which is shard_degree-independent).
  void save_checkpoint(const std::string& path);

  /// Restore from a v3 checkpoint saved by any trainer with the same
  /// workload and world_size, at ANY shard degree — the canonical payload
  /// carries full optimizer state, re-partitioned here by this trainer's
  /// current plan.  Verifies the stored per-chunk digest chain against the
  /// restored parameters.
  void restore_checkpoint(const std::string& path);

  /// In-memory flavour of save_checkpoint: the same canonical payload,
  /// per-tensor digest chain and shard frame, framed into one byte vector
  /// (the peer-checkpoint pipeline's snapshot unit — no filesystem).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_bytes();

  /// Restore from checkpoint_bytes() output, with the same cross-degree
  /// guarantees and chunk-chain attestation as restore_checkpoint.
  void restore_checkpoint_bytes(const std::vector<std::uint8_t>& bytes);

  // --- Failure-aware comm surface (resilient_comm = true only) ---

  [[nodiscard]] bool resilient_comm_enabled() const {
    return config_.resilient_comm;
  }

  /// Arm a comm fault; `collective < 0` targets the next step's sync.
  void inject_comm_fault(const comm::CommFaultEvent& event);

  /// Report of the most recent resilient gradient sync.
  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return last_comm_report_;
  }

  [[nodiscard]] const comm::TransportStats& transport_stats() const;

  // --- Compute-integrity surface (logical_world > 0) ---

  /// Install (or clear, with nullptr) a post-op hook on one rank's
  /// ExecContext — the SDC injection point for the voting tests.
  void set_post_op_hook(std::int64_t rank, kernels::PostOpHook* hook);

  /// Report of the most recent gradient-digest vote (empty before the
  /// first step or when voting is disabled).
  [[nodiscard]] const std::optional<VoteReport>& last_vote_report() const {
    return last_vote_report_;
  }

  /// Overlap accounting of the most recent pipelined step (empty before
  /// the first overlapped step or with overlap_comm = false).
  [[nodiscard]] const std::optional<comm::OverlapStats>&
  last_overlap_stats() const {
    return last_overlap_stats_;
  }

 private:
  struct Replica {
    std::unique_ptr<models::Workload> workload;
    std::unique_ptr<optim::Optimizer> optimizer;
    std::unique_ptr<optim::StepLR> scheduler;
    std::unique_ptr<data::RankDataPipeline> pipeline;
    rng::StreamSet streams;
    kernels::ExecContext exec;
  };

  void one_step();
  /// Pipelined variant of one_step's sync: per-bucket flush jobs on the
  /// async engine, bitwise identical results.  Requires contrib_counts_.
  void one_step_overlapped();
  /// Digest vote + representative reduction (logical_world > 0).  Throws
  /// core::IntegrityError when a rank loses the vote.
  void vote_and_reduce(std::vector<comm::GradientSet>& sets);
  /// Single-bucket vote + representative reduction for the overlap path:
  /// same group/majority logic as vote_and_reduce restricted to bucket `b`
  /// (local digests; the overlapped control plane never rides the fabric).
  void vote_and_reduce_bucket(std::size_t b,
                              std::vector<comm::GradientSet>& sets,
                              VoteReport& report);
  /// Recompute owned_slices_ / gather_map_ from plan_.
  void rebuild_shard_maps();
  /// Apply the optimizer update: full step when replicated, owned slices
  /// when sharded, then all-gather the published parameter chunks.
  void optimize_and_publish();
  /// Copy every chunk's optimizer-state slices from its canonical owner
  /// under `from` into rank `dst` (used by reshard and checkpoint save).
  void gather_canonical_state_into(const Plan& from, std::int64_t dst);
  /// Serialize the canonical payload, per-tensor chain and shard frame
  /// (the pieces both the file writer and checkpoint_bytes frame).
  void build_checkpoint_image(std::vector<std::uint8_t>* payload,
                              DigestChain* chain,
                              core::ShardFrameMeta* meta);
  /// Apply a verified canonical payload + shard frame to this trainer;
  /// `what` labels error messages (a path or "peer snapshot").
  void apply_checkpoint_image(const std::vector<std::uint8_t>& payload,
                              const core::ShardFrameMeta& meta,
                              const std::string& what);

  TrainerConfig config_;
  std::vector<Replica> replicas_;
  Plan plan_;
  /// Per rank: the flattened-space slices its shard owns (empty lists at
  /// shard_degree == 1 are replaced by full coverage — see ctor).
  std::vector<comm::ShardSlices> owned_slices_;
  GatherMap gather_map_;
  std::unique_ptr<comm::SimTransport> transport_;
  std::unique_ptr<comm::MembershipMonitor> monitor_;
  std::optional<comm::CollectiveReport> last_comm_report_;
  std::optional<VoteReport> last_vote_report_;
  std::optional<comm::OverlapStats> last_overlap_stats_;
  std::unique_ptr<comm::AsyncCollectiveEngine> engine_;
  /// Per-rank overlap flush buffers, built on the first overlapped step.
  std::vector<comm::GradientSet> overlap_sets_;
  /// Per-parameter gradient contribution counts from the recorded first
  /// step; empty until recorded.  Feeds BucketReadyTracker.
  std::vector<int> contrib_counts_;
  comm::BucketLayout layout_;
  bool rebuilt_ = false;
  std::int64_t global_step_ = 0;
  std::int64_t steps_per_epoch_ = 0;
  std::vector<float> losses_;
};

}  // namespace easyscale::parallel
