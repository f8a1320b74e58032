// Live inter-job scheduler over real EasyScale engines: two jobs share a
// small GPU pool, serving demand revokes capacity, and — crucially — every
// job still trains bitwise-identically to its fixed-DoP reference.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "sched/inter_job.hpp"

namespace easyscale::sched {
namespace {

core::EasyScaleConfig engine_config(const std::string& workload,
                                    std::uint64_t seed) {
  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = seed;
  cfg.determinism.d2 = true;
  return cfg;
}

TEST(InterJob, AllocatesWithinCapacity) {
  auto wd1 = models::make_dataset_for("Bert", 128, 16, 1);
  auto wd2 = models::make_dataset_for("NeuMF", 128, 16, 2);
  core::EasyScaleEngine e1(engine_config("Bert", 1), *wd1.train, wd1.augment);
  core::EasyScaleEngine e2(engine_config("NeuMF", 2), *wd2.train, wd2.augment);
  InterJobScheduler cluster(GpuVector{4, 2, 0});
  cluster.add_job("bert", e1, Companion("Bert", 4), true);
  cluster.add_job("neumf", e2, Companion("NeuMF", 4), true);
  cluster.reschedule();
  const auto free = cluster.free_pool();
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    EXPECT_GE(free[static_cast<std::size_t>(t)], 0);
  }
  EXPECT_GT(total(cluster.allocation("bert")), 0);
  EXPECT_GT(total(cluster.allocation("neumf")), 0);
  e1.run_steps(1);
  e2.run_steps(1);
}

TEST(InterJob, CapacityShrinkForcesScaleIn) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 1);
  core::EasyScaleEngine e(engine_config("Bert", 1), *wd.train, wd.augment);
  InterJobScheduler cluster(GpuVector{4, 0, 0});
  cluster.add_job("bert", e, Companion("Bert", 4), true);
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("bert")), 4);
  // A serving job claims 3 of the 4 GPUs.
  cluster.set_capacity(GpuVector{1, 0, 0});
  cluster.reschedule();
  EXPECT_LE(total(cluster.allocation("bert")), 1);
  e.run_steps(1);  // the job keeps training, scaled in (never fails)
  // Serving leaves: the job refills.
  cluster.set_capacity(GpuVector{4, 0, 0});
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("bert")), 4);
}

// A sharded job cannot pack two ESTs on one GPU: when the pool shrinks
// below one GPU per EST it pauses instead of failing mid-round, and it
// resumes on one EST per GPU when capacity returns.
TEST(InterJob, ShardedJobPausesWhenThePoolShrinks) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 2);
  parallel::TrainerConfig tcfg =
      core::trainer_config(engine_config("NeuMF", 2));
  tcfg.shard_degree = 4;
  parallel::Trainer sharded(tcfg, *wd.train, wd.augment);
  InterJobScheduler cluster(GpuVector{4, 0, 0});
  cluster.add_job("zero1", sharded, Companion("NeuMF", 4), true);
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("zero1")), 4);
  sharded.run_steps(1);
  cluster.revoke(GpuVector{2, 0, 0});
  EXPECT_EQ(total(cluster.allocation("zero1")), 0);
  EXPECT_EQ(sharded.num_workers(), 4);
  cluster.set_capacity(GpuVector{4, 0, 0});
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("zero1")), 4);
  sharded.run_steps(1);
}

TEST(InterJob, SpotRevocationScalesInWithinTheCall) {
  // revoke() is the spot-reclamation entry point: capacity shrinks and the
  // reschedule happens inside the call (grace-period semantics), without a
  // separate set_capacity + reschedule round.
  auto wd = models::make_dataset_for("Bert", 128, 16, 1);
  core::EasyScaleEngine e(engine_config("Bert", 1), *wd.train, wd.augment);
  InterJobScheduler cluster(GpuVector{4, 0, 0});
  cluster.add_job("bert", e, Companion("Bert", 4), true);
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("bert")), 4);
  EXPECT_GT(cluster.revoke(GpuVector{3, 0, 0}), 0);
  EXPECT_EQ(cluster.capacity()[0], 1);
  EXPECT_LE(total(cluster.allocation("bert")), 1);
  e.run_steps(1);  // still training on the survivor
  // Revoking more than remains clamps at zero instead of going negative.
  cluster.revoke(GpuVector{5, 0, 0});
  EXPECT_EQ(cluster.capacity()[0], 0);
  EXPECT_EQ(total(cluster.allocation("bert")), 0);
}

TEST(InterJob, FullRevocationPausesInsteadOfFailing) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 1);
  core::EasyScaleEngine e(engine_config("Bert", 1), *wd.train, wd.augment);
  InterJobScheduler cluster(GpuVector{2, 0, 0});
  cluster.add_job("bert", e, Companion("Bert", 4), true);
  cluster.reschedule();
  cluster.set_capacity(GpuVector{0, 0, 0});
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("bert")), 0);
  cluster.set_capacity(GpuVector{2, 0, 0});
  cluster.reschedule();
  EXPECT_EQ(total(cluster.allocation("bert")), 2);
}

TEST(InterJob, TrainingThroughReschedulesStaysBitwiseConsistent) {
  // The end-to-end paper story in one test: two jobs trained under cluster
  // churn finish with exactly the digests of their fixed-DoP references.
  auto wd1 = models::make_dataset_for("Bert", 128, 16, 1);
  auto wd2 = models::make_dataset_for("NeuMF", 128, 16, 2);
  core::EasyScaleEngine e1(engine_config("Bert", 1), *wd1.train, wd1.augment);
  core::EasyScaleEngine e2(engine_config("NeuMF", 2), *wd2.train, wd2.augment);
  InterJobScheduler cluster(GpuVector{3, 1, 2});
  cluster.add_job("bert", e1, Companion("Bert", 4), true);
  cluster.add_job("neumf", e2, Companion("NeuMF", 4), true);
  const GpuVector capacities[] = {
      {3, 1, 2}, {1, 1, 1}, {2, 0, 0}, {3, 1, 2}};
  for (const auto& cap : capacities) {
    cluster.set_capacity(cap);
    cluster.reschedule();
    if (total(cluster.allocation("bert")) > 0) e1.run_steps(2);
    if (total(cluster.allocation("neumf")) > 0) e2.run_steps(2);
  }
  // References run the same number of steps each engine actually took.
  auto reference = [&](const std::string& workload, std::uint64_t seed,
                       std::int64_t steps) {
    auto wd = models::make_dataset_for(workload, 128, 16, seed);
    parallel::TrainerConfig dcfg;
    dcfg.workload = workload;
    dcfg.world_size = 4;
    dcfg.batch_per_worker = 4;
    dcfg.seed = seed;
    dcfg.policy = kernels::KernelPolicy::kHardwareAgnostic;
    parallel::Trainer t(dcfg, *wd.train, wd.augment);
    t.run_steps(steps);
    return t.params_digest();
  };
  EXPECT_EQ(e1.params_digest(), reference("Bert", 1, e1.global_step()));
  EXPECT_EQ(e2.params_digest(), reference("NeuMF", 2, e2.global_step()));
}

TEST(InterJob, DuplicateNameRejected) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 1);
  core::EasyScaleEngine e(engine_config("Bert", 1), *wd.train, wd.augment);
  InterJobScheduler cluster(GpuVector{2, 0, 0});
  cluster.add_job("a", e, Companion("Bert", 4), true);
  EXPECT_THROW(cluster.add_job("a", e, Companion("Bert", 4), true), Error);
  cluster.remove_job("a");
  EXPECT_THROW(cluster.remove_job("a"), Error);
  EXPECT_EQ(cluster.num_jobs(), 0u);
}

}  // namespace
}  // namespace easyscale::sched
