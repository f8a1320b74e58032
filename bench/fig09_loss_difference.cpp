// Fig 9: loss-curve difference between EasyScale and DDP across three
// resource stages, under the four determinism configurations.
//
//   stage 0: 4x V100      (fresh start)
//   stage 1: 2x V100      (resource elasticity: checkpoint + restart)
//   stage 2: 1x V100 + 2x P100 (resource heterogeneity)
//
// Homogeneous reference  = DDP-homo  (4 workers, deterministic kernels)
// Heterogeneous reference = DDP-heter (4 workers, hardware-agnostic kernels)
//
// Expected shape (paper §5.1.1): D1 matches DDP-homo bitwise through stages
// 0-1 and diverges at stage 2; D0 diverges from stage 1; D1+D2 matches
// DDP-heter bitwise in ALL stages; D0+D2 diverges from stage 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace {

using namespace easyscale;
using core::DeterminismLevel;
using core::WorkerSpec;
using kernels::DeviceType;

constexpr std::int64_t kStageSteps = 100;
constexpr std::uint64_t kSeed = 42;

core::EasyScaleConfig job(const std::string& workload, DeterminismLevel level,
                          bool d2) {
  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = kSeed;
  cfg.determinism.level = level;
  cfg.determinism.d2 = d2;
  cfg.optim.lr = 0.02f;  // keeps VGG19 (no BatchNorm) alive, large enough that
                         // single-step bitwise divergence survives rounding
  return cfg;
}

/// DDP-homo (d2 off) or DDP-heter (d2 on): the job on a fixed 4 workers.
std::vector<float> run_ddp(const std::string& workload, bool d2) {
  auto wd = models::make_dataset_for(workload, 256, 32, kSeed);
  parallel::Trainer trainer(
      core::trainer_config(job(workload, DeterminismLevel::kD1, d2)),
      *wd.train, wd.augment);
  trainer.run_steps(3 * kStageSteps);
  return trainer.loss_history();
}

std::vector<float> run_easyscale(const std::string& workload,
                                 DeterminismLevel level, bool d2) {
  auto wd = models::make_dataset_for(workload, 256, 32, kSeed);
  core::EasyScaleEngine engine(job(workload, level, d2), *wd.train,
                               wd.augment);
  // Stage 0: 4x V100.
  engine.configure_workers(std::vector<WorkerSpec>(4, WorkerSpec{}));
  engine.run_steps(kStageSteps);
  // Stage 1: scale in to 2x V100 (on-demand checkpoint + restart inside).
  engine.configure_workers(std::vector<WorkerSpec>(2, WorkerSpec{}));
  engine.run_steps(kStageSteps);
  // Stage 2: heterogeneous 1x V100 + 2x P100.
  engine.configure_workers({WorkerSpec{DeviceType::kV100},
                            WorkerSpec{DeviceType::kP100},
                            WorkerSpec{DeviceType::kP100}});
  engine.run_steps(kStageSteps);
  return engine.loss_history();
}

void report(const char* config_name, const std::vector<float>& es,
            const std::vector<float>& ref) {
  std::printf("  %-8s", config_name);
  for (int stage = 0; stage < 3; ++stage) {
    float max_diff = 0.0f;
    for (std::int64_t s = stage * kStageSteps; s < (stage + 1) * kStageSteps;
         ++s) {
      max_diff = std::max(
          max_diff,
          std::abs(es[static_cast<std::size_t>(s)] -
                   ref[static_cast<std::size_t>(s)]));
    }
    if (max_diff == 0.0f) {
      std::printf("  stage%d: %-12s", stage, "IDENTICAL");
    } else {
      std::printf("  stage%d: diff=%-7.1e", stage,
                  static_cast<double>(max_diff));
    }
  }
  std::printf("\n");
}

void run_model(const std::string& workload) {
  std::printf("\n%s (loss diff of last worker vs the 4-GPU DDP reference)\n",
              workload.c_str());
  const auto ddp_homo = run_ddp(workload, /*d2=*/false);
  const auto ddp_heter = run_ddp(workload, /*d2=*/true);
  std::printf(" vs DDP-homo:\n");
  report("D0", run_easyscale(workload, core::DeterminismLevel::kD0, false),
         ddp_homo);
  report("D1", run_easyscale(workload, core::DeterminismLevel::kD1, false),
         ddp_homo);
  std::printf(" vs DDP-heter:\n");
  report("D0+D2", run_easyscale(workload, core::DeterminismLevel::kD0, true),
         ddp_heter);
  report("D1+D2", run_easyscale(workload, core::DeterminismLevel::kD1, true),
         ddp_heter);
}

}  // namespace

int main() {
  bench::banner("Fig 9",
                "loss-curve difference of EasyScale vs DDP over 3 stages "
                "(4xV100 -> 2xV100 -> 1xV100+2xP100), 100 mini-batches each");
  run_model("ResNet50");
  run_model("VGG19");
  bench::note(
      "expected: D1 identical in stages 0-1, diverges in stage 2; D0 "
      "diverges from stage 1; D1+D2 identical in ALL stages (paper Fig 9).");
  return 0;
}
