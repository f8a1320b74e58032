// The EasyScale engine: EasyScaleThreads time-sliced over elastic workers.
//
// The engine owns `num_ests` logical training workers (ESTs).  At any
// moment they are mapped onto 1..num_ests physical workers (simulated
// GPUs); each physical worker holds ONE model + optimizer replica and ONE
// "CUDA context", shared by all its ESTs (§3.2).  Per global step every
// EST runs one local step (context-switch in -> forward/backward -> swap
// gradients out -> context-switch out); gradients are then all-reduced in
// the exact ring order of `num_ests` *virtual* participants, so the result
// is bitwise independent of the physical mapping (D1).
//
// configure_workers() is the elasticity entry point: it takes an on-demand
// checkpoint (EST contexts + extra states + parameters) and rebuilds the
// worker set from it, exactly as the paper's scale in/out path does.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/digest.hpp"
#include "core/determinism.hpp"
#include "core/est_context.hpp"
#include "core/integrity.hpp"
#include "data/loader.hpp"
#include "data/pipeline.hpp"
#include "models/datasets.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"
#include "parallel/grad_sync.hpp"

namespace easyscale::core {

struct WorkerSpec {
  kernels::DeviceType device = kernels::DeviceType::kV100;
};

struct EasyScaleConfig {
  std::string workload = "ResNet18";
  std::int64_t num_ests = 4;  // maxP: logical DoP fixed at model design time
  std::int64_t batch_per_est = 8;
  std::uint64_t seed = 42;
  DeterminismConfig determinism;
  /// Custom D2 GEMM kernel handle (kernels/custom.hpp), 0 = built-in.
  /// Only meaningful with determinism.d2 = true.
  int custom_d2_gemm = 0;
  /// Bucket capacity in bytes; 0 resolves to EASYSCALE_BUCKET_CAP (when
  /// set and >= the largest parameter) and otherwise to the historical
  /// 4096-byte default.  See comm::resolve_bucket_cap.
  std::int64_t bucket_cap_bytes = 0;
  optim::OptimizerConfig optim;
  std::int64_t lr_step_epochs = 20;
  float gamma = 0.1f;
  /// Route batches through the shared data-worker pool (async) instead of
  /// building them inline.  Bitwise identical either way.
  bool use_async_loader = false;
  data::LoaderConfig loader;
  /// Fig-11 ablation: disable EST context switching (requires exactly one
  /// EST per worker; drops the gradient D2H copy and context save/restore).
  bool context_switching = true;
  /// Execute physical workers on parallel threads within each global step
  /// (real deployments do; the default is sequential for debuggability).
  /// Bitwise identical either way: workers touch disjoint state between
  /// synchronization points.
  bool parallel_workers = false;
  /// Intra-op compute threads per worker (0 = the EASYSCALE_THREADS process
  /// default).  All workers share one bounded global pool, so this composes
  /// with parallel_workers without oversubscription.  Bitwise identical for
  /// every value — see docs/PARALLELISM.md.
  int intra_op_threads = 0;
  /// Route the virtual-rank all-reduce through the failure-aware comm
  /// substrate (comm/resilient.hpp): a simulated Transport with per-link
  /// latency/bandwidth, heartbeat membership, and deadline-based detection.
  /// Bitwise identical to the plain path — the success path executes the
  /// exact same bucketed ring — but faults injected on the transport
  /// surface as retries, stalls, or a RankDeathError out of run_steps().
  bool resilient_comm = false;
  comm::TransportConfig transport;
  /// Retry/backoff policy for the resilient collective.  `on_death` is
  /// forced to kAbort: a dead worker's ESTs lose their gradients, so the
  /// step must roll back (FaultSupervisor recovers via checkpoint).
  comm::ResilientConfig resilient;
  /// Periodic re-execution witness (core/integrity.hpp): replays one EST
  /// per worker on a clean replica and compares gradient digests.  A
  /// divergence throws IntegrityError out of run_steps().  Requires a
  /// deterministic kernel policy (the witness certifies bitwise replay).
  WitnessConfig witness;
  /// Pipelined bucket flush: each EST's finished buckets swap out ("D2H")
  /// and enter the all-reduce on a dedicated communicator slot while the
  /// remaining EST backward still runs.  Bitwise identical to the
  /// sequential sync (docs/PERFORMANCE.md).  Steps that record state run
  /// sequentially: the first step (contribution counts + ready order) and
  /// every witness-due step (the witness must read pre-reduce gradients).
  bool overlap_comm = false;
};

/// Swap-traffic counters for the context-switching experiments.
struct SwitchStats {
  std::int64_t context_switches = 0;
  std::int64_t gradient_bytes_swapped = 0;
  std::int64_t context_bytes_swapped = 0;
};

class EasyScaleEngine {
 public:
  EasyScaleEngine(EasyScaleConfig config, const data::Dataset& train,
                  data::AugmentConfig augment);
  ~EasyScaleEngine();

  /// (Re)map ESTs onto a new physical worker set.  Contiguous balanced
  /// assignment by default; pass `assignment` (worker -> list of EST ranks,
  /// covering every EST exactly once) to control the mapping.
  void configure_workers(
      const std::vector<WorkerSpec>& workers,
      std::optional<std::vector<std::vector<std::int64_t>>> assignment =
          std::nullopt);

  /// Run `n` global steps across all ESTs.
  void run_steps(std::int64_t n);

  /// Run whole epochs, applying the StepLR schedule like the DDP baseline.
  void run_epochs(std::int64_t n);

  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }
  [[nodiscard]] std::int64_t global_step() const { return global_step_; }
  [[nodiscard]] std::int64_t steps_per_epoch() const {
    return steps_per_epoch_;
  }
  [[nodiscard]] std::int64_t num_workers() const {
    return static_cast<std::int64_t>(workers_.size());
  }
  [[nodiscard]] std::int64_t num_ests() const { return config_.num_ests; }
  [[nodiscard]] const SwitchStats& switch_stats() const { return stats_; }
  [[nodiscard]] const comm::BucketLayout& current_layout() const {
    return sync_->layout();
  }

  /// Bitwise digest of the model parameters.
  [[nodiscard]] std::uint64_t params_digest() const;

  /// Tamper-evident per-parameter digest chain (store order), the payload
  /// of verified checkpoints and the determinism audit's comparison unit.
  [[nodiscard]] DigestChain params_digest_chain() const;

  // --- Compute-integrity surface (fault/integrity + core/integrity) ---

  /// Install (or clear, with nullptr) a post-op hook on one physical
  /// worker's ExecContext — the SDC injection point.  Cleared whenever
  /// configure_workers rebuilds the worker set; the installer re-arms.
  void set_post_op_hook(std::int64_t worker, kernels::PostOpHook* hook);

  /// Change the witness cadence (FaultSupervisor arms this when its SDC
  /// defense is enabled).  Takes effect at the next global step.
  void set_witness_every(std::int64_t every) {
    config_.witness.witness_every = every;
  }
  [[nodiscard]] const WitnessStats& witness_stats() const {
    return witness_stats_;
  }

  /// Highest global step whose engine state passed (or inductively
  /// precedes) a re-execution witness.  A checkpoint is only *verified*
  /// when taken exactly at this step; starts at 0 so the initial state
  /// anchors the chain.  Deliberately preserved across restore(): rolling
  /// back to a witness-clean step keeps its certification.
  [[nodiscard]] std::int64_t last_clean_witness_step() const {
    return last_clean_witness_step_;
  }

  /// Execution context of physical worker `i` (tests inspect its scratch
  /// arena to assert allocations stop growing after warm-up).
  [[nodiscard]] const kernels::ExecContext& worker_exec(std::int64_t i) const;

  /// Worker-0 replica with EST-`rank`'s context loaded (for evaluation).
  [[nodiscard]] models::Workload& model_for_eval(std::int64_t est_rank = 0);

  /// On-demand checkpoint: EST contexts + extra states + parameters.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restore from a checkpoint produced by an engine with the same config
  /// shape (worker set may differ; call configure_workers afterwards or
  /// before).
  void restore(std::span<const std::uint8_t> bytes);

  // --- Failure-aware comm surface (resilient_comm = true only) ---

  [[nodiscard]] bool resilient_comm_enabled() const {
    return config_.resilient_comm;
  }

  /// Arm a comm fault on the transport; `collective < 0` targets the next
  /// all-reduce (i.e. the next global step's synchronization).
  void inject_comm_fault(const comm::CommFaultEvent& event);

  /// Report of the most recent resilient all-reduce (empty before the
  /// first step, and after configure_workers resets the fabric).
  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return sync_->last_comm_report();
  }

  /// Cumulative fabric counters (zeroed by configure_workers).
  [[nodiscard]] const comm::TransportStats& transport_stats() const;

  /// Overlap accounting of the most recent pipelined step (empty before
  /// the first overlapped step or with overlap_comm = false; witness-due
  /// and recording steps run sequentially and do not update it).
  [[nodiscard]] const std::optional<comm::OverlapStats>&
  last_overlap_stats() const {
    return sync_->last_overlap_stats();
  }

  /// Per-physical-worker cumulative injected stall seconds — the straggler
  /// signal sched/intra_job re-balances ESTs on.  Empty when disabled.
  [[nodiscard]] std::vector<double> comm_stall_per_worker() const;

  /// Current worker -> EST-ranks mapping (for EST re-balancing).
  [[nodiscard]] std::vector<std::vector<std::int64_t>> current_assignment()
      const;

  /// Specs of the current worker set (for re-applying a modified mapping).
  [[nodiscard]] std::vector<WorkerSpec> current_worker_specs() const;

 private:
  struct Worker {
    WorkerSpec spec;
    std::unique_ptr<models::Workload> replica;
    std::unique_ptr<optim::Optimizer> optimizer;
    std::unique_ptr<optim::StepLR> scheduler;
    rng::StreamSet streams;  // receptacle the active EST's streams load into
    kernels::ExecContext exec;
    std::vector<std::int64_t> ests;
  };

  void one_step();
  void capture_context(Worker& worker, ESTContext& ctx);
  void restore_context(Worker& worker, const ESTContext& ctx);
  void rebuild_loader();
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_locked() const;
  void run_witness(const std::vector<std::int64_t>& witnessed_ests,
                   const std::vector<ESTContext>& pre_contexts,
                   const std::vector<data::Batch>& batches,
                   const std::vector<float>& live_losses);

  EasyScaleConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;

  std::vector<data::RankDataPipeline> pipelines_;  // one per EST
  std::vector<ESTContext> contexts_;               // one per EST
  std::vector<Worker> workers_;
  std::unique_ptr<data::SharedDataWorkerPool> pool_;

  // Gradient sync over one participant per EST.  Contribution counts stay
  // valid across restores (they are a property of the model graph).
  std::optional<parallel::GradSync> sync_;

  // Re-execution witness state.  The replica is lazy (first witness step)
  // and reused; its exec context is re-pointed at the witnessed worker's
  // device/policy per replay so variant selection matches the live run.
  std::unique_ptr<models::Workload> witness_replica_;
  rng::StreamSet witness_streams_;
  WitnessStats witness_stats_;
  std::int64_t last_clean_witness_step_ = 0;
  std::int64_t witness_round_ = 0;  // rotates which co-hosted EST is replayed

  std::int64_t global_step_ = 0;
  std::int64_t steps_per_epoch_ = 0;
  std::vector<float> losses_;
  SwitchStats stats_;
  std::mutex stats_mutex_;  // counters are shared across worker threads
};

}  // namespace easyscale::core
