// The EasyScale engine: EasyScaleThreads time-sliced over elastic workers.
//
// The engine owns `num_ests` logical training workers (ESTs) mapped onto
// 1..num_ests physical workers (simulated GPUs).  An EST is a virtual DDP
// rank time-sliced on a physical worker (§3), so the engine is a mapping of
// EasyScaleConfig onto parallel::Trainer with `num_ests` virtual ranks
// packed onto the workers: each worker holds ONE model + optimizer replica
// and ONE "CUDA context", shared by all its ESTs (§3.2), and gradients are
// all-reduced in the exact ring order of the `num_ests` virtual
// participants, so the result is bitwise independent of the physical
// mapping (D1).
//
// configure_workers() is the elasticity entry point: it takes an on-demand
// checkpoint (EST contexts + extra states + parameters) and rebuilds the
// worker set from it, exactly as the paper's scale in/out path does.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/determinism.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::core {

using WorkerSpec = parallel::WorkerSpec;

/// The job's settings; each maps onto the parallel::TrainerConfig field of
/// the same name (documented there), with the EST-specific names and
/// defaults below.
struct EasyScaleConfig {
  std::string workload = "ResNet18";
  std::int64_t num_ests = 4;  // maxP: logical DoP fixed at model design time
  std::int64_t batch_per_est = 8;
  std::uint64_t seed = 42;
  /// D0/D1 pick whether the checkpoint image keeps the bucket layout; D2
  /// picks the hardware-agnostic kernel policy.
  DeterminismConfig determinism;
  int custom_d2_gemm = 0;  // only meaningful with determinism.d2 = true
  std::int64_t bucket_cap_bytes = 0;
  optim::OptimizerConfig optim;
  std::int64_t lr_step_epochs = 20;
  float gamma = 0.1f;
  bool use_async_loader = false;
  data::LoaderConfig loader;
  /// Fig-11 ablation: off drops the context and gradient swaps and needs
  /// exactly one EST per worker.
  bool context_switching = true;
  bool parallel_workers = false;
  int intra_op_threads = 0;
  /// The failure-aware fabric: a dead worker's ESTs lose their gradients,
  /// so the step aborts and FaultSupervisor recovers via checkpoint.
  bool resilient_comm = false;
  WitnessConfig witness;
  bool overlap_comm = false;
};

/// The job as `num_ests` virtual ranks of parallel::Trainer.  Its identity
/// packing (one rank per worker) is the fixed-DoP DDP run that every
/// packing of the engine equals bit for bit.
[[nodiscard]] parallel::TrainerConfig trainer_config(
    const EasyScaleConfig& config);

class EasyScaleEngine {
 public:
  EasyScaleEngine(EasyScaleConfig config, const data::Dataset& train,
                  data::AugmentConfig augment);
  ~EasyScaleEngine();

  /// (Re)map ESTs onto a new physical worker set.  Contiguous balanced
  /// assignment by default; pass `assignment` (worker -> list of EST ranks,
  /// covering every EST exactly once) to control the mapping.  The first
  /// call builds the trainer on this packing; later ones repack it.
  void configure_workers(
      const std::vector<WorkerSpec>& workers,
      std::optional<std::vector<std::vector<std::int64_t>>> assignment =
          std::nullopt);

  /// The trainer the ESTs run on (after the first configure_workers).
  [[nodiscard]] parallel::Trainer& trainer();
  [[nodiscard]] const parallel::Trainer& trainer() const;

  [[nodiscard]] std::int64_t num_ests() const { return config_.num_ests; }
  [[nodiscard]] std::int64_t num_workers() const {
    return trainer_ ? trainer_->num_workers() : 0;
  }
  /// Change the witness cadence (FaultSupervisor arms this when its SDC
  /// defense is enabled), before or after the first configure_workers.
  void set_witness_every(std::int64_t every);

  // The rest is parallel::Trainer's surface.  checkpoint() is the
  // trainer's image (EST contexts + extra states + parameters); restore()
  // reads it at any worker set.
  void run_steps(std::int64_t n) { trainer().run_steps(n); }
  void run_epochs(std::int64_t n) { trainer().run_epochs(n); }
  [[nodiscard]] const std::vector<float>& loss_history() const {
    return trainer().loss_history();
  }
  [[nodiscard]] std::int64_t global_step() const {
    return trainer().global_step();
  }
  [[nodiscard]] const SwitchStats& switch_stats() const {
    return trainer().switch_stats();
  }
  [[nodiscard]] const comm::BucketLayout& current_layout() const {
    return trainer().current_layout();
  }
  [[nodiscard]] std::uint64_t params_digest() const {
    return trainer().params_digest();
  }
  void set_post_op_hook(std::int64_t worker, kernels::PostOpHook* hook) {
    trainer().set_post_op_hook(worker, hook);
  }
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;
  void restore(std::span<const std::uint8_t> bytes) {
    trainer().restore_checkpoint_bytes(bytes);
  }
  [[nodiscard]] bool resilient_comm_enabled() const {
    return config_.resilient_comm;
  }
  [[nodiscard]] const std::optional<comm::CollectiveReport>&
  last_comm_report() const {
    return trainer().last_comm_report();
  }
  [[nodiscard]] const comm::TransportStats& transport_stats() const {
    return trainer().transport_stats();
  }
  [[nodiscard]] const std::optional<comm::OverlapStats>&
  last_overlap_stats() const {
    return trainer().last_overlap_stats();
  }
  [[nodiscard]] std::vector<WorkerSpec> current_worker_specs() const {
    return trainer().current_worker_specs();
  }

 private:
  EasyScaleConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;
  std::unique_ptr<parallel::Trainer> trainer_;
};

}  // namespace easyscale::core
