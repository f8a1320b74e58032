// Property sweep: the bitwise EasyScale == DDP equivalence must hold for
// EVERY Table-1 workload (conv, detection, recommendation, QA transformer,
// windowed attention), under an uneven physical mapping and a mid-run
// rescale.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

class WorkloadEquivalenceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(WorkloadEquivalenceTest, EasyScaleMatchesDDPBitwise) {
  const std::string workload = GetParam();
  auto wd = models::make_dataset_for(workload, 128, 16, 42);

  parallel::TrainerConfig dcfg;
  dcfg.workload = workload;
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(6);

  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  // Uneven mapping, then a mid-run rescale.
  engine.configure_workers(
      std::vector<core::WorkerSpec>(2),
      std::vector<std::vector<std::int64_t>>{{3, 1, 0}, {2}});
  engine.run_steps(3);
  engine.configure_workers(std::vector<core::WorkerSpec>(3));
  engine.run_steps(3);

  EXPECT_EQ(reference.params_digest(), engine.params_digest())
      << workload << " diverged from fixed-DoP DDP";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadEquivalenceTest,
                         ::testing::ValuesIn(models::workload_names()));

}  // namespace
}  // namespace easyscale
