// Live intra-job scheduler: Eq.-1 plans applied to a running engine, with
// bitwise-consistency preserved across scheduler-driven rescales and the
// Role-3 slowdown fallback.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "sched/intra_job.hpp"

namespace easyscale::sched {
namespace {

core::EasyScaleConfig engine_config() {
  core::EasyScaleConfig cfg;
  cfg.workload = "Bert";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.determinism.d2 = true;  // heterogeneous plans allowed
  return cfg;
}

TEST(IntraJob, AppliesBestPlanAndMatchesWorkerCount) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), /*allow_heter=*/true);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{2, 1, 0}));
  EXPECT_EQ(engine.num_workers(), total(sched.current_plan().gpus));
  engine.run_steps(2);
}

// The scheduler drives any parallel::Trainer: a ZeRO-1 job placed on four
// V100s, one EST each, trains to the bits of its unsharded twin.  A pool
// too small for one EST per GPU has no plan for it, and its workers cannot
// be quarantined onto each other: both leave the job as it was.
TEST(IntraJob, SchedulesAShardedTrainer) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  auto cfg = core::EasyScaleConfig{};
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  parallel::TrainerConfig tcfg = core::trainer_config(cfg);
  parallel::Trainer unsharded(tcfg, *wd.train, wd.augment);
  tcfg.shard_degree = 4;
  parallel::Trainer sharded(tcfg, *wd.train, wd.augment);
  IntraJobScheduler sched(sharded, Companion("NeuMF", 4), false);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{4, 0, 0}));
  EXPECT_EQ(sharded.num_workers(), 4);
  sharded.run_steps(3);
  unsharded.run_steps(3);
  EXPECT_EQ(sharded.params_digest(), unsharded.params_digest());
  EXPECT_FALSE(sched.best_plan(GpuVector{2, 0, 0}).valid());
  EXPECT_FALSE(sched.apply_best_plan(GpuVector{3, 0, 0}));
  EXPECT_FALSE(sched.quarantine_worker(1));
  EXPECT_EQ(sharded.num_workers(), 4);
  EXPECT_EQ(total(sched.current_plan().gpus), 4);
  // The unsharded twin packs two ESTs per GPU on the same pool.
  IntraJobScheduler packed(unsharded, Companion("NeuMF", 4), false);
  ASSERT_TRUE(packed.apply_best_plan(GpuVector{2, 0, 0}));
  EXPECT_EQ(unsharded.num_workers(), 2);
  sharded.run_steps(1);
  unsharded.run_steps(1);
  EXPECT_EQ(sharded.params_digest(), unsharded.params_digest());
}

// A heterogeneous sharded job gets one EST on each of the fastest GPUs of
// a mixed pool, where the companion's own best plan would pack the V100s.
TEST(IntraJob, ShardedTrainerTakesOneEstPerGpuOnAMixedPool) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  auto cfg = core::EasyScaleConfig{};
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.determinism.d2 = true;
  parallel::TrainerConfig tcfg = core::trainer_config(cfg);
  tcfg.shard_degree = 4;
  parallel::Trainer sharded(tcfg, *wd.train, wd.augment);
  IntraJobScheduler sched(sharded, Companion("NeuMF", 4), true);
  const Plan plan = sched.best_plan(GpuVector{3, 0, 3});
  ASSERT_TRUE(plan.valid());
  EXPECT_EQ(plan.ests, (std::vector<std::int64_t>{1, 1, 1, 1}));
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{3, 0, 3}));
  EXPECT_EQ(sharded.num_workers(), 4);
  sharded.run_steps(1);
  EXPECT_TRUE(sched.make_proposals(GpuVector{4, 4, 4}).empty());
}

TEST(IntraJob, NoPlanOnEmptyPool) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);
  EXPECT_FALSE(sched.apply_best_plan(GpuVector{0, 0, 0}));
}

TEST(IntraJob, SchedulerDrivenRescalesStayBitwiseConsistent) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "Bert";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.policy = kernels::KernelPolicy::kHardwareAgnostic;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(6);

  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{1, 0, 0}));
  engine.run_steps(2);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{2, 0, 2}));  // scale out, mixed
  engine.run_steps(2);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{0, 1, 0}));  // scale in, P100
  engine.run_steps(2);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

TEST(IntraJob, ProposalsComeFromCurrentPlan) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{1, 0, 0}));
  const auto props = sched.make_proposals(GpuVector{3, 0, 0});
  ASSERT_FALSE(props.empty());
  for (const auto& p : props) {
    EXPECT_GT(p.plan.throughput, sched.current_plan().throughput);
  }
}

TEST(IntraJob, SlowdownFallbackRevertsScaleOut) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{2, 0, 0}));
  sched.report_throughput(10.0);  // healthy baseline observation
  const auto before = sched.current_plan();

  const auto props = sched.make_proposals(GpuVector{2, 0, 0});
  ASSERT_FALSE(props.empty());
  sched.apply_plan(props[0].plan);
  EXPECT_GT(total(sched.current_plan().gpus), total(before.gpus));
  // Observed throughput regressed -> Role-3 fallback to the old plan.
  EXPECT_TRUE(sched.report_throughput(5.0));
  EXPECT_EQ(total(sched.current_plan().gpus), total(before.gpus));
  EXPECT_EQ(engine.num_workers(), total(before.gpus));
  // Training continues fine after the revert.
  engine.run_steps(1);
}

TEST(IntraJob, HealthyScaleOutIsKept) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  core::EasyScaleEngine engine(engine_config(), *wd.train, wd.augment);
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);
  ASSERT_TRUE(sched.apply_best_plan(GpuVector{2, 0, 0}));
  sched.report_throughput(10.0);
  const auto props = sched.make_proposals(GpuVector{2, 0, 0});
  ASSERT_FALSE(props.empty());
  sched.apply_plan(props[0].plan);
  EXPECT_FALSE(sched.report_throughput(19.0));  // faster: keep it
  EXPECT_EQ(engine.num_workers(), total(props[0].plan.gpus));
}

TEST(IntraJob, RebalancesESTsOffAStalledWorkerBitwiseNeutrally) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  // Reference: the same engine run with no fabric and no rebalancing.
  core::EasyScaleEngine reference(engine_config(), *wd.train, wd.augment);
  reference.configure_workers(std::vector<core::WorkerSpec>(2));
  reference.run_steps(6);

  auto cfg = engine_config();
  cfg.resilient_comm = true;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));
  IntraJobScheduler sched(engine, Companion("Bert", 4), true);

  // No straggler signal yet: nothing to move.
  EXPECT_FALSE(sched.rebalance_stragglers(0.1));

  // Worker 1's link stalls (within the receive deadline, so the steps
  // succeed on the first attempt) across three consecutive syncs.
  for (int s = 0; s < 3; ++s) {
    comm::CommFaultEvent stall;
    stall.kind = comm::LinkFaultKind::kStallLink;
    stall.rank = 1;
    stall.stall_s = 0.2;
    engine.inject_comm_fault(stall);
    engine.run_steps(1);
  }
  const auto stalls = engine.comm_stall_per_worker();
  ASSERT_EQ(stalls.size(), 2u);
  EXPECT_GT(stalls[1], 0.5);

  const auto before = engine.current_assignment();
  ASSERT_TRUE(sched.rebalance_stragglers(0.5));
  const auto after = engine.current_assignment();
  EXPECT_EQ(after[0].size(), before[0].size() + 1);
  EXPECT_EQ(after[1].size(), before[1].size() - 1);
  // The remap rebuilt the fabric: stall counters start over.
  EXPECT_EQ(engine.comm_stall_per_worker(), std::vector<double>(2, 0.0));
  // ... so an immediate second call has no straggler to act on.
  EXPECT_FALSE(sched.rebalance_stragglers(0.5));

  // Bitwise-neutral, like every EST remap.
  engine.run_steps(3);
  EXPECT_EQ(engine.params_digest(), reference.params_digest());
}

}  // namespace
}  // namespace easyscale::sched
