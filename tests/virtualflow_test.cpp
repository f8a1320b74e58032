// VirtualFlow baseline: gradient accumulation gives elasticity but not
// bitwise consistency — the gap EasyScale's EST contexts close.
#include <gtest/gtest.h>

#include "baselines/virtualflow.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::baselines {
namespace {

VirtualFlowConfig config(const std::string& workload = "ResNet18") {
  VirtualFlowConfig cfg;
  cfg.workload = workload;
  cfg.virtual_nodes = 4;
  cfg.batch_per_virtual = 4;
  cfg.seed = 42;
  return cfg;
}

std::uint64_t run(std::int64_t world, std::int64_t steps,
                  const std::string& workload = "ResNet18") {
  auto wd = models::make_dataset_for(workload, 128, 16, 42);
  VirtualFlowTrainer t(config(workload), *wd.train, wd.augment);
  t.reconfigure(world);
  t.run_steps(steps);
  return t.params_digest();
}

TEST(VirtualFlow, ReproducibleAtFixedWorld) {
  EXPECT_EQ(run(2, 5), run(2, 5));
}

TEST(VirtualFlow, MatchesDDPWhenOneVirtualPerWorker) {
  // With world == virtual_nodes there is no accumulation and the physical
  // streams coincide with the per-virtual streams: this IS plain DDP.
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "ResNet18";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);
  EXPECT_EQ(run(4, 4), reference.params_digest());
}

TEST(VirtualFlow, DivergesFromDDPWhenAccumulating) {
  // world < virtual_nodes: the dropout stream and BN buffers are shared by
  // the accumulated micro-batches, so training is bitwise different from
  // the designed 4-worker run — unlike EasyScale.
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "ResNet18";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);
  EXPECT_NE(run(2, 4), reference.params_digest());
  EXPECT_NE(run(1, 4), reference.params_digest());
}

TEST(VirtualFlow, DifferentWorldsDiverge) {
  EXPECT_NE(run(1, 4), run(2, 4));
}

TEST(VirtualFlow, SamplePartitionMatchesVirtualNodes) {
  // Loss histories track the last virtual node's micro-batch: it is the
  // same data at any world size; only the model state drifts.
  auto wd = models::make_dataset_for("VGG19", 128, 16, 42);
  VirtualFlowTrainer a(config("VGG19"), *wd.train, wd.augment);
  a.reconfigure(4);
  a.run_steps(1);
  VirtualFlowTrainer b(config("VGG19"), *wd.train, wd.augment);
  b.reconfigure(2);
  b.run_steps(1);
  // First step starts from identical weights; VGG19 has dropout only in
  // the classifier head, so differences stay small but the data is shared.
  EXPECT_EQ(a.loss_history().size(), 1u);
  EXPECT_EQ(b.loss_history().size(), 1u);
}

TEST(VirtualFlow, ParametersCarryAcrossRescale) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  VirtualFlowTrainer t(config(), *wd.train, wd.augment);
  t.reconfigure(4);
  t.run_steps(3);
  const auto before = t.params_digest();
  t.reconfigure(2);
  EXPECT_EQ(t.params_digest(), before);
}

TEST(VirtualFlow, RejectsImpossibleWorlds) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  VirtualFlowTrainer t(config(), *wd.train, wd.augment);
  EXPECT_THROW(t.reconfigure(0), Error);
  EXPECT_THROW(t.reconfigure(5), Error);
}

}  // namespace
}  // namespace easyscale::baselines
