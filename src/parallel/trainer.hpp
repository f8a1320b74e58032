// The trainer: `world_size` virtual DDP ranks packed onto physical workers,
// the one training loop of the repository.
//
// A virtual rank is what the paper calls an EST (§3).  Each rank owns its
// data pipeline and its core::ESTContext (RNG streams + BatchNorm running
// buffers); each worker owns one replica, optimizer, StepLR and ExecContext
// shared by the ranks it hosts.  With `context_switching` on, a worker swaps
// each hosted rank's context in, runs its local step and swaps gradients and
// context out (§3.2); off, each worker hosts one resident rank.  Gradients
// meet in one sync over one participant per virtual rank, so the result is
// bitwise independent of the packing.  The default packing is the identity
// (worker r hosts rank r on devices[r]): the PyTorch-DDP fixed-DoP baseline.
// The EasyScale engine (core/engine.hpp) is this trainer under EST-named
// config.  Every consumer (fault::FaultSupervisor, sched::IntraJobScheduler
// and sched::InterJobScheduler) drives a Trainer, ZeRO-1 jobs included.
//
// shard_degree > 1 adds ZeRO-1 optimizer-state sharding: a reduce-scatter
// (same reduction bits, owned elements only), owned-chunk optimizer updates
// (optim::Optimizer::step_slices) and an all-gather of the updated chunks.
// The trajectory is BITWISE IDENTICAL to the unsharded run
// (docs/PARALLELISM.md), and reshard() moves chunk ownership mid-run.  The
// re-execution witness and the redundant-replica digest vote are two SDC
// options on the one step body.
//
// One checkpoint image: a canonical payload (parameters, gathered optimizer
// state, schedule, each rank's ESTContext and pipeline, the async loader's
// pending items and, unless `checkpoint_layout` is off, the bucket layout)
// under a per-tensor digest chain and the shard frame, closed by a
// whole-image digest (core/checkpoint_io.hpp).  Save at any packing and
// shard degree, restore at any other over the same virtual world.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/digest.hpp"
#include "core/checkpoint_io.hpp"
#include "core/est_context.hpp"
#include "core/integrity.hpp"
#include "data/loader.hpp"
#include "data/pipeline.hpp"
#include "kernels/exec_context.hpp"
#include "models/workload.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"
#include "parallel/grad_sync.hpp"
#include "parallel/plan.hpp"

namespace easyscale::parallel {

struct WorkerSpec {
  kernels::DeviceType device = kernels::DeviceType::kV100;
};

/// worker -> the virtual ranks it hosts, covering every rank exactly once.
using Assignment = std::vector<std::vector<std::int64_t>>;

struct TrainerConfig {
  std::string workload = "ResNet18";
  std::int64_t world_size = 4;        // virtual ranks (a job's ESTs)
  std::int64_t batch_per_worker = 8;  // per virtual rank
  std::uint64_t seed = 42;
  kernels::KernelPolicy policy = kernels::KernelPolicy::kDeterministic;
  /// Devices of the identity packing, one per rank; default all V100.
  std::vector<kernels::DeviceType> devices;
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
  /// Run workers on parallel threads within a step (bitwise identical to
  /// sequential; workers are disjoint between synchronization points).
  bool parallel_workers = false;
  /// Intra-op compute threads per worker (0 = the EASYSCALE_THREADS process
  /// default); all workers share one bounded global pool.  Bitwise
  /// identical for every value.
  int intra_op_threads = 0;
  /// Route gradient sync through the failure-aware fabric (one transport
  /// rank per worker; co-hosted ranks exchange chunks locally).  Bitwise
  /// identical to the plain path when no fault fires; a condemned worker
  /// throws comm::RankDeathError out of run_steps (the caller then rolls
  /// back and, when sharded, reshards).
  bool resilient_comm = false;
  /// Pre-sampled comm fault schedule replayed by the first fabric (a
  /// configure_workers builds the next one without it).
  std::vector<comm::CommFaultEvent> comm_faults;
  /// Redundant-replica SDC voting (see the PR-5 integrity layer).  Needs
  /// full gradient replicas: exclusive with shard_degree > 1, the witness,
  /// the async loader and more than one rank per worker.
  std::int64_t logical_world = 0;
  /// Pipelined bucket flush (docs/PERFORMANCE.md): bitwise identical to
  /// the sequential path, sharded or not.  The first step (contribution
  /// counts + ready order) and witness-due steps run sequentially.
  bool overlap_comm = false;
  /// Optimizer-state shard degree: 1 = replicated (stock DDP), > 1 =
  /// ZeRO-1 sharding.  Must divide world_size and be <= kDefaultPlanChunks;
  /// needs one rank per worker.
  int shard_degree = 1;
  /// Periodic re-execution witness (core/integrity.hpp): replays one rank
  /// per worker on a clean replica and compares gradient digests; a
  /// divergence throws core::IntegrityError.  Needs a deterministic policy.
  core::WitnessConfig witness;
  /// Route batches through the shared data-worker pool (bitwise identical).
  bool use_async_loader = false;
  data::LoaderConfig loader;
  /// Swap each hosted rank's context and gradients in and out around its
  /// local step.  Off needs one rank per worker (the Fig-11 ablation).
  bool context_switching = false;
  /// Keep the bucket layout in the checkpoint image.  Off (D0) a restore
  /// falls back to the static layout and schedules a rebuild, so the ring
  /// sums re-associate and training diverges bitwise (§5.1.1).
  bool checkpoint_layout = true;
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
  /// Packs the ranks onto `workers` under `assignment` (contiguous balanced
  /// split by default); no workers = the identity packing on `devices`.
  Trainer(TrainerConfig config, const data::Dataset& train,
          const data::AugmentConfig& augment,
          const std::vector<WorkerSpec>& workers = {},
          std::optional<Assignment> assignment = std::nullopt);
  ~Trainer();

  /// Pack the ranks onto a worker set.  The first call builds the job (the
  /// ranks' pipelines and contexts, the workers, the sync and the plan);
  /// every later one repacks it: an on-demand snapshot of the running
  /// state, a rebuild of every worker (clearing post-op hooks), then a
  /// restore — the paper's scale in/out path.
  void configure_workers(const std::vector<WorkerSpec>& workers,
                         std::optional<Assignment> assignment = std::nullopt);

  /// Run `n` synchronized global steps; records the last rank's loss.
  void run_steps(std::int64_t n);
  /// Run whole epochs (advances the LR schedule between them).
  void run_epochs(std::int64_t n);

  /// The losses of the steps this trainer ran; a restore leaves it alone.
  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }
  /// Bitwise digest of the model parameters, and the tamper-evident
  /// per-parameter chain of them (store order) that verified checkpoints
  /// and the determinism audit compare.
  [[nodiscard]] std::uint64_t params_digest() const;
  [[nodiscard]] DigestChain params_digest_chain() const;

  /// The replica hosting `rank`, with that rank's context loaded.
  [[nodiscard]] models::Workload& model(std::int64_t rank = 0);
  [[nodiscard]] optim::StepLR& scheduler(std::int64_t rank = 0) {
    return *host(rank).scheduler;
  }
  /// Set the LR-schedule epoch everywhere (elastic baselines restart their
  /// world and must carry the schedule across rebuilds).
  void set_epoch_all(std::int64_t epoch) {
    for (auto& w : workers_) w.scheduler->set_epoch(epoch);
  }
  [[nodiscard]] std::int64_t steps_per_epoch() const {
    return steps_per_epoch_;
  }
  [[nodiscard]] std::int64_t global_step() const { return global_step_; }
  [[nodiscard]] std::int64_t world_size() const { return config_.world_size; }
  [[nodiscard]] const comm::BucketLayout& current_layout() const {
    return sync_.value().layout();
  }

  // --- Packing surface ---

  [[nodiscard]] std::int64_t num_workers() const {
    return static_cast<std::int64_t>(workers_.size());
  }
  [[nodiscard]] Assignment current_assignment() const;
  [[nodiscard]] std::vector<WorkerSpec> current_worker_specs() const;
  /// Worker `i`'s execution context (tests inspect its scratch arena).
  [[nodiscard]] const kernels::ExecContext& worker_exec(std::int64_t i) const;
  /// Context and gradient swap traffic (context_switching on only).
  [[nodiscard]] const core::SwitchStats& switch_stats() const {
    return stats_;
  }

  // --- Parallelism-plan surface ---

  [[nodiscard]] int shard_degree() const { return plan_.shard_degree; }
  /// Whether worker w must host exactly rank w (shard_degree > 1 or
  /// logical_world > 0): such a trainer takes no packed assignment.
  [[nodiscard]] bool needs_identity_packing() const {
    return plan_.shard_degree > 1 || config_.logical_world > 0;
  }
  /// Elastic reshard at a step boundary: re-assign chunk ownership to
  /// `new_shard_degree` (which must divide world_size), copying optimizer
  /// state chunks from their canonical owners.  The chunk bounds are fixed
  /// by the plan, so the continued trajectory is bitwise unchanged.
  void reshard(int new_shard_degree);

  // --- The checkpoint image ---

  /// The image (core/checkpoint_io.hpp): the on-demand checkpoint of a
  /// scale event, a store generation, a checkpoint file and the peer
  /// pipeline's snapshot unit.  The shard frame carries the plan layout and
  /// the degree-independent per-chunk digest chain.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_bytes();
  /// Restore an image taken by any trainer with the same workload and
  /// world_size, at ANY packing and shard degree; verifies the per-chunk
  /// chain against the restored parameters.  `what` labels errors.
  void restore_checkpoint(const core::CheckpointImage& image,
                          const std::string& what = "checkpoint image");
  /// core::parse_image, then restore_checkpoint.
  void restore_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                const std::string& what = "checkpoint image");

  // --- Failure-aware comm surface (resilient_comm = true only) ---

  [[nodiscard]] bool resilient_comm_enabled() const {
    return config_.resilient_comm;
  }
  /// Arm a comm fault; `collective < 0` targets the next step's sync.
  void inject_comm_fault(const comm::CommFaultEvent& event);
  /// Report of the most recent resilient gradient sync (empty before the
  /// first step, and after configure_workers resets the fabric).
  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return sync_.value().last_comm_report();
  }
  /// Cumulative fabric counters (zeroed by configure_workers).
  [[nodiscard]] const comm::TransportStats& transport_stats() const;
  /// Per-worker cumulative injected stall seconds — the straggler signal
  /// sched/intra_job re-balances ranks on.  Empty when disabled.
  [[nodiscard]] std::vector<double> comm_stall_per_worker() const;
  /// Overlap accounting of the most recent pipelined step (empty before
  /// the first overlapped step or with overlap_comm = false).
  [[nodiscard]] const std::optional<comm::OverlapStats>&
  last_overlap_stats() const {
    return sync_.value().last_overlap_stats();
  }

  // --- Compute-integrity surface ---

  /// Install (or clear, with nullptr) a post-op hook on one worker's
  /// ExecContext — the SDC injection point.
  void set_post_op_hook(std::int64_t worker, kernels::PostOpHook* hook);
  /// Report of the most recent gradient-digest vote (empty before the
  /// first step or when voting is disabled).
  [[nodiscard]] const std::optional<VoteReport>& last_vote_report() const {
    return last_vote_report_;
  }
  /// Change the witness cadence; takes effect at the next global step.
  void set_witness_every(std::int64_t every);
  [[nodiscard]] const core::WitnessStats& witness_stats() const {
    return witness_stats_;
  }
  /// Highest global step whose state passed (or inductively precedes) a
  /// re-execution witness; a checkpoint is only *verified* when taken
  /// exactly here.  Starts at 0 (the initial state anchors the chain) and
  /// survives restores: rolling back to a clean step keeps its certificate.
  [[nodiscard]] std::int64_t last_clean_witness_step() const {
    return last_clean_witness_step_;
  }

 protected:
  struct Unbuilt {};
  /// Holds the job without a worker set: nothing is built until the first
  /// configure_workers, which is the one build path.
  Trainer(Unbuilt, TrainerConfig config, const data::Dataset& train,
          const data::AugmentConfig& augment);

 private:
  struct Worker {
    WorkerSpec spec;
    std::unique_ptr<models::Workload> workload;
    std::unique_ptr<optim::Optimizer> optimizer;
    std::unique_ptr<optim::StepLR> scheduler;
    rng::StreamSet streams;  // the active rank's streams
    kernels::ExecContext exec;
    std::vector<std::int64_t> ranks;
    core::SwitchStats swaps;  // this step's, summed after the join
  };
  /// What a witness replays: a rank's pre-step context and batch, and the
  /// loss its live step produced.
  struct Witnessed {
    std::int64_t rank = -1;  // -1: the worker hosts no rank
    core::ESTContext context;
    data::Batch batch;
    float loss = 0.0f;
  };

  /// The worker hosting `rank` (bounds-checked).
  Worker& host(std::int64_t rank);
  /// A worker's execution context on `device` under this config's policy.
  [[nodiscard]] kernels::ExecContext exec_for(kernels::DeviceType device)
      const;
  /// Validate `assignment` (or build the balanced split) for `workers`,
  /// and the options that need one rank per worker.
  [[nodiscard]] Assignment resolve_packing(
      const std::vector<WorkerSpec>& workers,
      std::optional<Assignment> assignment, int shard_degree) const;
  /// The first configure_workers: the ranks, the workers, the sync and
  /// the plan.
  void build(const std::vector<WorkerSpec>& specs, Assignment packing);
  void build_workers(const std::vector<WorkerSpec>& specs,
                     Assignment packing);
  /// Route the sync over a fresh fabric of the current workers.
  void reset_fabric(std::vector<comm::CommFaultEvent> faults);
  void rebuild_loader();
  /// Copy the resident ranks' live streams and buffers into their
  /// contexts (swapped contexts are current at step boundaries).
  void sync_resident_contexts();
  void one_step();
  /// Replay each worker's witnessed rank on a clean replica; throws
  /// core::IntegrityError when its gradients or loss differ.
  void run_witness(const std::vector<Witnessed>& witnessed);
  /// Digest vote + representative reduction (logical_world > 0) over the
  /// whole layout (`bucket_ids` == nullptr, digests ride the fabric) or
  /// over one overlapped bucket (digests stay local).  Accumulates into
  /// `report`; throws core::IntegrityError when a rank loses the vote.
  void vote_and_reduce(const std::vector<std::size_t>* bucket_ids,
                       VoteReport& report);
  /// Hand the sync the reduce-scatter / all-gather maps of plan_.
  void rebuild_shard_maps();
  /// Apply the optimizer update: full step when replicated, owned slices
  /// when sharded, then all-gather the published parameter chunks.
  void optimize_and_publish();
  /// Copy chunk `chunk`'s optimizer-state slices under `plan` from worker
  /// `src` into worker `dst`.
  void copy_chunk_state(const Plan& plan, std::size_t chunk, std::size_t src,
                        std::size_t dst);
  /// Copy every chunk's optimizer-state slices from its canonical owner
  /// under `from` into worker `dst` (used by checkpoint save).
  void gather_canonical_state_into(const Plan& from, std::int64_t dst);
  /// The one payload writer and reader: the image's payload, and the
  /// snapshot configure_workers carries across the rebuild.
  void save_state(ByteWriter& w);
  void load_state(ByteReader& r);
  TrainerConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;
  std::vector<core::ESTContext> contexts_;         // one per rank
  std::vector<data::RankDataPipeline> pipelines_;  // one per rank
  std::vector<Worker> workers_;
  std::vector<int> host_of_rank_;
  std::unique_ptr<data::SharedDataWorkerPool> pool_;
  Plan plan_;
  /// Gradient sync over one participant per rank.  Contribution counts
  /// stay valid across repackings (they are a property of the model graph).
  std::optional<GradSync> sync_;
  std::optional<VoteReport> last_vote_report_;
  core::SwitchStats stats_;

  // The witness replica is lazy (first witness step) and reused; each
  // replay gets a fresh exec context on the witnessed worker's device.
  std::unique_ptr<models::Workload> witness_replica_;
  rng::StreamSet witness_streams_;
  core::WitnessStats witness_stats_;
  std::int64_t last_clean_witness_step_ = 0;
  std::int64_t witness_round_ = 0;  // rotates which co-hosted rank replays

  std::int64_t global_step_ = 0;
  std::int64_t steps_per_epoch_ = 0;
  std::vector<float> losses_;
};

}  // namespace easyscale::parallel
