// Elastic-baseline behaviour: the hyper-parameter re-derivation rules and
// the restart semantics that produce the §2.2 accuracy inconsistency.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/elastic_baselines.hpp"
#include "common/digest.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::baselines {
namespace {

ElasticBaselineConfig config() {
  ElasticBaselineConfig cfg;
  cfg.workload = "ResNet18";
  cfg.base_world = 4;
  cfg.base_batch = 8;
  cfg.base_lr = 0.1f;
  cfg.seed = 42;
  return cfg;
}

TEST(TorchElastic, LinearLRScalingRule) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  TorchElasticTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(8);
  EXPECT_FLOAT_EQ(t.current_lr(), 0.2f);  // 8/4 * 0.1
  EXPECT_EQ(t.current_batch(), 8);        // per-worker batch fixed
  t.reconfigure(1);
  EXPECT_FLOAT_EQ(t.current_lr(), 0.025f);
  EXPECT_EQ(t.current_batch(), 8);
}

TEST(Pollux, AdaptiveBatchKeepsGlobalBatchNearDesign) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  PolluxTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(1);
  EXPECT_EQ(t.current_batch(), 32);  // 4*8 designed global / 1 worker
  EXPECT_FLOAT_EQ(t.current_lr(), 0.1f);
  t.reconfigure(8);
  EXPECT_EQ(t.current_batch(), 4);
  EXPECT_FLOAT_EQ(t.current_lr(), 0.1f);
}

TEST(Pollux, SqrtScalingForResidualGlobalBatchChange) {
  auto cfg = config();
  cfg.base_world = 3;
  cfg.base_batch = 5;  // designed global 15; at world 2: batch 7, global 14
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  PolluxTrainer t(cfg, *wd.train, wd.augment);
  t.reconfigure(2);
  EXPECT_EQ(t.current_batch(), 7);
  EXPECT_NEAR(t.current_lr(), 0.1f * std::sqrt(14.0f / 15.0f), 1e-6f);
}

TEST(Baselines, ParametersCarryAcrossRestart) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  TorchElasticTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(4);
  t.run_steps(4);
  const auto before = t.params_digest();
  t.reconfigure(2);  // restart, params must carry over
  EXPECT_EQ(t.params_digest(), before);
}

TEST(Baselines, DifferentWorldsProduceDifferentModels) {
  auto run = [&](std::int64_t world) {
    auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
    TorchElasticTrainer t(config(), *wd.train, wd.augment);
    t.reconfigure(world);
    t.run_steps(6);
    return t.params_digest();
  };
  EXPECT_NE(run(1), run(4));
  EXPECT_NE(run(2), run(4));
}

TEST(Baselines, BaselineAtDesignWorldStillDiffersFromDDPAfterRescale) {
  // Even returning to the designed world after an excursion leaves the
  // model off the fixed-DoP trajectory.
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  TorchElasticTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(4);
  t.run_steps(3);
  t.reconfigure(2);
  t.run_steps(2);
  t.reconfigure(4);
  t.run_steps(3);

  parallel::TrainerConfig dcfg;
  dcfg.workload = "ResNet18";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 8;
  dcfg.seed = 42;
  auto wd2 = models::make_dataset_for("ResNet18", 128, 16, 42);
  parallel::Trainer ref(dcfg, *wd2.train, wd2.augment);
  ref.run_steps(8);
  EXPECT_NE(t.params_digest(), ref.params_digest());
}

TEST(Baselines, LossHistoryAccumulatesAcrossRescales) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  PolluxTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(2);
  t.run_steps(3);
  t.reconfigure(1);
  t.run_steps(2);
  EXPECT_EQ(t.loss_history().size(), 5u);
}

TEST(Baselines, RunBeforeReconfigureThrows) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  TorchElasticTrainer t(config(), *wd.train, wd.augment);
  EXPECT_THROW(t.run_steps(1), Error);
}

}  // namespace
}  // namespace easyscale::baselines
