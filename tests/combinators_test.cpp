// Dataset combinators + a heterogeneous-workload sweep that closes the
// loop: D2-eligible workloads stay bitwise-consistent across GPU-type
// mixes, including when trained on combinator-built datasets.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "data/combinators.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "tensor/ops.hpp"

namespace easyscale::data {
namespace {

TEST(Subset, WindowsIntoBase) {
  SyntheticImageDataset base(32, 10, 3, 8, 8, 1);
  SubsetDataset sub(base, 10, 5);
  EXPECT_EQ(sub.size(), 5);
  EXPECT_EQ(tensor::max_abs_diff(sub.get(0).x, base.get(10).x), 0.0f);
  EXPECT_EQ(sub.get(4).label, base.get(14).label);
  EXPECT_THROW(sub.get(5), Error);
  EXPECT_THROW(SubsetDataset(base, 30, 5), Error);
}

TEST(Concat, RunsThroughPartsInOrder) {
  SyntheticImageDataset a(8, 10, 3, 8, 8, 1);
  SyntheticImageDataset b(4, 10, 3, 8, 8, 2);
  ConcatDataset cat({&a, &b});
  EXPECT_EQ(cat.size(), 12);
  EXPECT_EQ(tensor::max_abs_diff(cat.get(7).x, a.get(7).x), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(cat.get(8).x, b.get(0).x), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(cat.get(11).x, b.get(3).x), 0.0f);
  EXPECT_THROW(cat.get(12), Error);
}

TEST(Concat, TrainingOnCombinatorsStaysConsistent) {
  // Train/val carved from one dataset via Subset; training through the
  // whole stack must remain bitwise-equal to DDP on the same subset.
  SyntheticImageDataset base(192, 10, 3, 8, 8, 42);
  SubsetDataset train(base, 0, 128);
  AugmentConfig augment;

  parallel::TrainerConfig dcfg;
  dcfg.workload = "ResNet18";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, train, augment);
  reference.run_steps(4);

  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  core::EasyScaleEngine engine(cfg, train, augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(3));
  engine.run_steps(4);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

/// Heterogeneous sweep over every D2-eligible workload.
class HeterWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HeterWorkloadTest, D2KeepsMixedDevicesBitwiseConsistent) {
  const std::string workload = GetParam();
  auto wd = models::make_dataset_for(workload, 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = workload;
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.policy = kernels::KernelPolicy::kHardwareAgnostic;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);

  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.determinism.d2 = true;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{kernels::DeviceType::kT4},
                            core::WorkerSpec{kernels::DeviceType::kP100},
                            core::WorkerSpec{kernels::DeviceType::kV100}});
  engine.run_steps(2);
  engine.configure_workers({core::WorkerSpec{kernels::DeviceType::kP100}});
  engine.run_steps(2);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

INSTANTIATE_TEST_SUITE_P(D2Eligible, HeterWorkloadTest,
                         ::testing::Values("NeuMF", "Bert", "Electra",
                                           "SwinTransformer"));

}  // namespace
}  // namespace easyscale::data
