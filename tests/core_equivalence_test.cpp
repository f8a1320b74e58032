// The paper's headline property (§3.1): EasyScale training is bitwise
// identical to PyTorch-DDP training at the model-designed DoP, for ANY
// mapping of ESTs onto physical workers, across scale events, and (with
// D2) across heterogeneous device types.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

using core::DeterminismLevel;
using core::EasyScaleConfig;
using core::EasyScaleEngine;
using core::WorkerSpec;
using kernels::DeviceType;

constexpr std::int64_t kTrainSize = 128;
constexpr std::uint64_t kSeed = 42;

EasyScaleConfig base_config(const std::string& workload) {
  EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = kSeed;
  cfg.determinism.level = DeterminismLevel::kD1;
  return cfg;
}

parallel::TrainerConfig ddp_config(const std::string& workload) {
  parallel::TrainerConfig cfg;
  cfg.workload = workload;
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = kSeed;
  return cfg;
}

std::uint64_t ddp_digest_after(const std::string& workload,
                               std::int64_t steps) {
  auto wd = models::make_dataset_for(workload, kTrainSize, 32, kSeed);
  parallel::Trainer trainer(ddp_config(workload), *wd.train, wd.augment);
  trainer.run_steps(steps);
  return trainer.params_digest();
}

std::uint64_t easyscale_digest_after(const std::string& workload,
                                     const std::vector<WorkerSpec>& workers,
                                     std::int64_t steps) {
  auto wd = models::make_dataset_for(workload, kTrainSize, 32, kSeed);
  EasyScaleEngine engine(base_config(workload), *wd.train, wd.augment);
  engine.configure_workers(workers);
  engine.run_steps(steps);
  return engine.params_digest();
}

TEST(CoreEquivalence, FourWorkersMatchesDDP) {
  const auto ddp = ddp_digest_after("ResNet18", 6);
  const auto es = easyscale_digest_after(
      "ResNet18", std::vector<WorkerSpec>(4, WorkerSpec{}), 6);
  EXPECT_EQ(ddp, es);
}

TEST(CoreEquivalence, TwoWorkersMatchesDDP) {
  const auto ddp = ddp_digest_after("ResNet18", 6);
  const auto es = easyscale_digest_after(
      "ResNet18", std::vector<WorkerSpec>(2, WorkerSpec{}), 6);
  EXPECT_EQ(ddp, es);
}

TEST(CoreEquivalence, OneWorkerMatchesDDP) {
  const auto ddp = ddp_digest_after("ResNet18", 6);
  const auto es = easyscale_digest_after(
      "ResNet18", std::vector<WorkerSpec>(1, WorkerSpec{}), 6);
  EXPECT_EQ(ddp, es);
}

TEST(CoreEquivalence, UnbalancedMappingMatchesDDP) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  EasyScaleEngine engine(base_config("ResNet18"), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2, WorkerSpec{}),
                           std::vector<std::vector<std::int64_t>>{{2, 0, 3},
                                                                  {1}});
  engine.run_steps(6);
  EXPECT_EQ(ddp_digest_after("ResNet18", 6), engine.params_digest());
}

TEST(CoreEquivalence, RescaleMidTrainingMatchesDDP) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  EasyScaleEngine engine(base_config("ResNet18"), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(4, WorkerSpec{}));
  engine.run_steps(3);
  engine.configure_workers(std::vector<WorkerSpec>(2, WorkerSpec{}));
  engine.run_steps(2);
  engine.configure_workers(std::vector<WorkerSpec>(3, WorkerSpec{}));
  engine.run_steps(1);
  EXPECT_EQ(ddp_digest_after("ResNet18", 6), engine.params_digest());
}

TEST(CoreEquivalence, LossHistoryMatchesDDPExactly) {
  auto wd = models::make_dataset_for("VGG19", kTrainSize, 32, kSeed);
  parallel::Trainer ddp(ddp_config("VGG19"), *wd.train, wd.augment);
  ddp.run_steps(5);

  auto wd2 = models::make_dataset_for("VGG19", kTrainSize, 32, kSeed);
  EasyScaleEngine engine(base_config("VGG19"), *wd2.train, wd2.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2, WorkerSpec{}));
  engine.run_steps(5);

  ASSERT_EQ(ddp.loss_history().size(), engine.loss_history().size());
  for (std::size_t i = 0; i < ddp.loss_history().size(); ++i) {
    EXPECT_EQ(ddp.loss_history()[i], engine.loss_history()[i])
        << "loss diverged at step " << i;
  }
}

}  // namespace
}  // namespace easyscale
