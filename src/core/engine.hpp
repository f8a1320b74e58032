// The EasyScale engine: EasyScaleThreads time-sliced over elastic workers.
//
// An EST is a virtual DDP rank time-sliced on a physical worker (§3), so the
// engine IS a parallel::Trainer with `num_ests` virtual ranks: each worker
// holds ONE model + optimizer replica and ONE "CUDA context", shared by all
// its ESTs (§3.2), and gradients are all-reduced in the exact ring order of
// the `num_ests` virtual participants, so the result is bitwise independent
// of the physical mapping (D1).  What the engine adds is the EST-named
// config, mapped onto TrainerConfig, and the checkpoint()/restore() names.
//
// An engine is built by its first configure_workers(); every later call is
// the elasticity entry point: an on-demand checkpoint (EST contexts + extra
// states + parameters) carried across a rebuilt worker set, exactly as the
// paper's scale in/out path does.
#pragma once

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

class EasyScaleEngine : public parallel::Trainer {
 public:
  /// Nothing is built until the first configure_workers.
  EasyScaleEngine(const EasyScaleConfig& config, const data::Dataset& train,
                  const data::AugmentConfig& augment)
      : Trainer(Unbuilt{}, trainer_config(config), train, augment) {}

  /// The on-demand checkpoint: the trainer's image (EST contexts + extra
  /// states + parameters), restorable at any worker set.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() {
    return checkpoint_bytes();
  }
  void restore(std::span<const std::uint8_t> bytes) {
    restore_checkpoint_bytes(bytes);
  }
};

}  // namespace easyscale::core
