// Quickstart: train a model elastically with EasyScale and verify that the
// result is bitwise identical to fixed-DoP PyTorch-style DDP training.
//
//   1. design the model for 4 logical workers (ESTs);
//   2. start training on 2 simulated GPUs;
//   3. scale out to 4, then in to 1, mid-training;
//   4. compare the parameter digest with a DDP run on fixed 4 GPUs.
#include <cstdio>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "models/eval.hpp"
#include "parallel/trainer.hpp"

int main() {
  using namespace easyscale;

  const std::string workload = "ResNet18";
  const std::uint64_t seed = 42;
  auto wd = models::make_dataset_for(workload, /*train=*/512, /*test=*/256,
                                     seed);

  // ---- EasyScale: 4 ESTs, elastic physical workers -----------------------
  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;       // the DoP fixed at model-design time (maxP)
  cfg.batch_per_est = 8;  // per logical worker, like DDP per-GPU batch
  cfg.seed = seed;
  cfg.determinism.level = core::DeterminismLevel::kD1;

  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));  // 2 GPUs
  std::printf("training on 2 GPUs...\n");
  engine.run_epochs(2);

  engine.configure_workers(std::vector<core::WorkerSpec>(4));  // scale out
  std::printf("scaled out to 4 GPUs...\n");
  engine.run_epochs(2);

  engine.configure_workers(std::vector<core::WorkerSpec>(1));  // scale in
  std::printf("scaled in to 1 GPU...\n");
  engine.run_epochs(1);

  // ---- Reference: the same job as DDP on a fixed 4 GPUs ------------------
  parallel::Trainer reference(core::trainer_config(cfg), *wd.train,
                              wd.augment);
  reference.run_epochs(5);

  const auto acc = models::evaluate(engine.model(), *wd.test, 32, 10);
  std::printf("\nvalidation accuracy after 5 epochs: %.1f%%\n",
              100.0 * acc.overall);
  std::printf("EasyScale params digest: %016llx\n",
              static_cast<unsigned long long>(engine.params_digest()));
  std::printf("DDP-4GPU  params digest: %016llx\n",
              static_cast<unsigned long long>(reference.params_digest()));
  if (engine.params_digest() == reference.params_digest()) {
    std::printf("=> bitwise IDENTICAL: elasticity did not change training.\n");
    return 0;
  }
  std::printf("=> MISMATCH (this is a bug)\n");
  return 1;
}
