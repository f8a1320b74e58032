// The overlap contract (docs/PERFORMANCE.md): the pipelined bucket
// all-reduce produces BITWISE-identical parameters to the sequential sync
// for every configuration — thread counts, bucket caps, parallel workers,
// D1 restarts mid-run, injected comm faults, and the DDP digest vote — and
// its OverlapStats model is strictly better than flush-at-the-end whenever
// there is more than one bucket.  Plus the EASYSCALE_BUCKET_CAP resolution
// rules and unit tests of the pipeline building blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "comm/async_allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/transport.hpp"
#include "core/engine.hpp"
#include "fault/integrity.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

using core::EasyScaleConfig;
using core::EasyScaleEngine;
using core::WorkerSpec;

constexpr std::uint64_t kSeed = 42;

models::WorkloadData& shared_data() {
  static auto wd = models::make_dataset_for("ResNet18", 128, 16, kSeed);
  return wd;
}

EasyScaleConfig engine_config(bool overlap, std::int64_t cap_bytes = 0,
                              int intra_op_threads = 0) {
  EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = kSeed;
  cfg.overlap_comm = overlap;
  cfg.bucket_cap_bytes = cap_bytes;
  cfg.intra_op_threads = intra_op_threads;
  return cfg;
}

std::uint64_t engine_digest(const EasyScaleConfig& cfg, std::size_t workers,
                            std::int64_t steps) {
  auto& wd = shared_data();
  EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(workers));
  engine.run_steps(steps);
  return engine.params_digest();
}

// ---------------------------------------------------------------------------
// Engine: overlapped == sequential, bit for bit.

TEST(OverlapEquivalence, EngineMatchesSequentialAcrossCapsAndThreads) {
  for (const std::int64_t cap : {std::int64_t{4096}, std::int64_t{65536}}) {
    for (const int threads : {1, 4}) {
      const auto seq = engine_digest(engine_config(false, cap, threads), 2, 5);
      const auto ovl = engine_digest(engine_config(true, cap, threads), 2, 5);
      EXPECT_EQ(seq, ovl) << "cap=" << cap << " threads=" << threads;
    }
  }
}

TEST(OverlapEquivalence, EngineMatchesUnderParallelWorkers) {
  auto cfg = engine_config(true);
  cfg.parallel_workers = true;
  cfg.intra_op_threads = 2;
  const auto ovl = engine_digest(cfg, 3, 5);
  EXPECT_EQ(engine_digest(engine_config(false), 3, 5), ovl);
}

TEST(OverlapEquivalence, EngineOverlapStatsAreSane) {
  auto& wd = shared_data();
  EasyScaleEngine engine(engine_config(true), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  engine.run_steps(1);  // sequential: records contribution counts
  EXPECT_FALSE(engine.last_overlap_stats().has_value());
  engine.run_steps(2);
  const auto& stats = engine.last_overlap_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->buckets, static_cast<std::int64_t>(
                                engine.current_layout().num_buckets()));
  ASSERT_GE(stats->buckets, 2);  // the default cap multi-buckets ResNet18
  EXPECT_GT(stats->overlap_frac, 0.0);
  EXPECT_LE(stats->overlap_frac, 1.0);
  EXPECT_LT(stats->modeled_overlap_s, stats->modeled_seq_s);
  EXPECT_GT(stats->compute_s, 0.0);
}

TEST(OverlapEquivalence, EngineD1RestartMidRunMatchesSequential) {
  auto& wd = shared_data();
  // Overlapped run, checkpointed mid-way, restored into a FRESH engine on a
  // different worker set (which must redo its sequential recording step —
  // counts are engine-local, the layout rides the checkpoint).
  EasyScaleEngine a(engine_config(true), *wd.train, wd.augment);
  a.configure_workers(std::vector<WorkerSpec>(2));
  a.run_steps(3);
  const auto ckpt = a.checkpoint();
  a.run_steps(4);

  EasyScaleEngine b(engine_config(true), *wd.train, wd.augment);
  b.configure_workers(std::vector<WorkerSpec>(3));
  b.restore(ckpt);
  b.run_steps(4);
  EXPECT_EQ(a.params_digest(), b.params_digest());
  EXPECT_EQ(engine_digest(engine_config(false), 2, 7), b.params_digest());
}

TEST(OverlapEquivalence, EngineCommFaultAbortsAndReexecutesBitwise) {
  auto& wd = shared_data();
  auto cfg = engine_config(true);
  cfg.resilient_comm = true;
  EasyScaleEngine victim(cfg, *wd.train, wd.augment);
  victim.configure_workers(std::vector<WorkerSpec>(2));
  victim.run_steps(2);
  comm::CommFaultEvent drop;
  drop.kind = comm::LinkFaultKind::kDropChunk;
  drop.rank = 1;  // collective = -1: hits an in-flight bucket next step
  victim.inject_comm_fault(drop);
  victim.run_steps(3);
  ASSERT_TRUE(victim.last_comm_report().has_value());
  EXPECT_GT(victim.transport_stats().drops, 0);
  EXPECT_GT(victim.last_comm_report()->overlap_frac, 0.0);
  // The aborted bucket re-executed from untouched gradients: same bits as
  // the plain sequential run.
  EXPECT_EQ(engine_digest(engine_config(false), 2, 5),
            victim.params_digest());
}

// ---------------------------------------------------------------------------
// DDP trainer: overlapped == sequential, including the digest vote.

parallel::TrainerConfig ddp_config(bool overlap, std::int64_t world = 4,
                          std::int64_t logical = 0) {
  parallel::TrainerConfig cfg;
  cfg.workload = "ResNet18";
  cfg.world_size = world;
  cfg.batch_per_worker = 4;
  cfg.seed = kSeed;
  cfg.overlap_comm = overlap;
  cfg.logical_world = logical;
  return cfg;
}

std::uint64_t ddp_digest(const parallel::TrainerConfig& cfg,
                         std::int64_t steps) {
  auto& wd = shared_data();
  parallel::Trainer trainer(cfg, *wd.train, wd.augment);
  trainer.run_steps(steps);
  return trainer.params_digest();
}

TEST(OverlapEquivalence, DDPMatchesSequential) {
  EXPECT_EQ(ddp_digest(ddp_config(false), 5), ddp_digest(ddp_config(true), 5));
}

TEST(OverlapEquivalence, DDPVoteCleanRunMatchesSequentialVote) {
  const auto seq = ddp_digest(ddp_config(false, 4, 2), 4);
  const auto ovl = ddp_digest(ddp_config(true, 4, 2), 4);
  EXPECT_EQ(seq, ovl);
  // Voting reduces over one representative per logical rank: equal to the
  // plain run at the logical world size, overlapped or not.
  EXPECT_EQ(ddp_digest(ddp_config(false, 2, 0), 4), ovl);
}

TEST(OverlapEquivalence, DDPVoteDetectsCorruptionBeforePublish) {
  auto& wd = shared_data();
  // One group of four replicas: a single corrupt rank loses 3-1, so the
  // vote attributes it (a group of two would only detect, not attribute).
  parallel::Trainer trainer(ddp_config(true, 4, 1), *wd.train, wd.augment);
  trainer.run_steps(1);  // sequential recording step, clean
  fault::SdcProfile profile;
  profile.seed = 0xE51;
  fault::SdcCorruptor corr(profile);
  trainer.set_post_op_hook(3, &corr);
  EXPECT_THROW(trainer.run_steps(1), core::IntegrityError);
  const auto& report = trainer.last_vote_report();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->corrupt_ranks, (std::vector<std::int64_t>{3}));
}

// ---------------------------------------------------------------------------
// EASYSCALE_BUCKET_CAP resolution.

class BucketCapEnv : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("EASYSCALE_BUCKET_CAP"); }
};

TEST_F(BucketCapEnv, UnsetResolvesToHistoricalDefault) {
  ::unsetenv("EASYSCALE_BUCKET_CAP");
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::env_default_bucket_cap(), 0);
  EXPECT_EQ(comm::resolve_bucket_cap(0, model->params()), 4096);
}

TEST_F(BucketCapEnv, EnvOverrideWinsOverDefault) {
  ::setenv("EASYSCALE_BUCKET_CAP", "1048576", 1);
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::env_default_bucket_cap(), 1048576);
  EXPECT_EQ(comm::resolve_bucket_cap(0, model->params()), 1048576);
}

TEST_F(BucketCapEnv, ConfigCapBeatsEnv) {
  ::setenv("EASYSCALE_BUCKET_CAP", "1048576", 1);
  auto model = models::make_workload("NeuMF");
  EXPECT_EQ(comm::resolve_bucket_cap(8192, model->params()), 8192);
}

TEST_F(BucketCapEnv, EnvCapSmallerThanLargestParameterIsRejected) {
  ::setenv("EASYSCALE_BUCKET_CAP", "4", 1);  // smaller than any parameter
  auto model = models::make_workload("NeuMF");
  EXPECT_THROW(comm::resolve_bucket_cap(0, model->params()), Error);
}

TEST_F(BucketCapEnv, GarbageEnvIsRejectedWithNamedError) {
  // A typo'd override must fail loudly (naming the variable), never train
  // silently with the built-in default (common/env.hpp strict parsing).
  ::setenv("EASYSCALE_BUCKET_CAP", "not-a-number", 1);
  auto model = models::make_workload("NeuMF");
  EXPECT_THROW(comm::env_default_bucket_cap(), Error);
  EXPECT_THROW(comm::resolve_bucket_cap(0, model->params()), Error);
}

TEST_F(BucketCapEnv, EngineLayoutRespectsEnvCap) {
  ::unsetenv("EASYSCALE_BUCKET_CAP");
  auto& wd = shared_data();
  EasyScaleEngine tight(engine_config(false), *wd.train, wd.augment);
  tight.configure_workers(std::vector<WorkerSpec>(1));
  ::setenv("EASYSCALE_BUCKET_CAP", "16777216", 1);  // everything fits one
  EasyScaleEngine wide(engine_config(false), *wd.train, wd.augment);
  wide.configure_workers(std::vector<WorkerSpec>(1));
  EXPECT_GT(tight.current_layout().num_buckets(),
            wide.current_layout().num_buckets());
  EXPECT_EQ(wide.current_layout().num_buckets(), 1u);
}

// ---------------------------------------------------------------------------
// Unit tests of the pipeline building blocks.

TEST(OverlapUnits, TrackerFiresEachBucketOnItsLastContribution) {
  comm::BucketLayout layout;
  layout.buckets = {{0, 1}, {2}};
  const std::vector<int> counts = {1, 2, 1};  // param 1 is shared (2 hits)
  std::vector<std::size_t> fired;
  comm::BucketReadyTracker tracker(layout, counts,
                                   [&](std::size_t b) { fired.push_back(b); });
  tracker.grad_ready(2);
  EXPECT_EQ(fired, (std::vector<std::size_t>{1}));
  tracker.grad_ready(1);
  tracker.grad_ready(0);
  EXPECT_TRUE(fired.size() == 1) << "shared param flushed too early";
  tracker.grad_ready(1);  // the LAST contribution completes bucket 0
  EXPECT_EQ(fired, (std::vector<std::size_t>{1, 0}));
  tracker.finish();  // everything already fired: no duplicates
  EXPECT_EQ(fired.size(), 2u);
}

TEST(OverlapUnits, TrackerFinishFlushesStragglersInLayoutOrder) {
  comm::BucketLayout layout;
  layout.buckets = {{0}, {1}, {2}};
  const std::vector<int> counts = {1, 0, 1};  // bucket 1 never contributes
  std::vector<std::size_t> fired;
  comm::BucketReadyTracker tracker(layout, counts,
                                   [&](std::size_t b) { fired.push_back(b); });
  tracker.grad_ready(0);
  tracker.finish();  // bucket 1 (zero-contribution) and bucket 2 (missed)
  EXPECT_EQ(fired, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OverlapUnits, EngineExecutesJobsInSubmissionOrder) {
  comm::AsyncCollectiveEngine engine(comm::AsyncConfig{.max_in_flight = 1});
  // Written by whichever thread runs each job (the comm slot or the
  // draining caller); the engine's mutex orders every job, and drain()'s
  // return orders the last one before the reads below.
  std::vector<std::size_t> executed;
  engine.begin_step([&](std::size_t b) {
    executed.push_back(b);
    return 0.0;
  });
  for (std::size_t b = 0; b < 6; ++b) engine.submit(b);
  const auto stats = engine.drain();
  EXPECT_EQ(executed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.buckets, 6);
  EXPECT_GE(stats.modeled_seq_s, stats.modeled_overlap_s);
}

TEST(OverlapUnits, EngineNeverRunsTwoJobsAtOnceWhenTheCallerHelps) {
  comm::AsyncCollectiveEngine engine(comm::AsyncConfig{.max_in_flight = 4});
  const auto caller = std::this_thread::get_id();
  int caller_jobs = 0;
  for (int step = 0; step < 20; ++step) {
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::atomic<int> on_caller{0};
    std::vector<std::size_t> executed;
    engine.begin_step([&](std::size_t b) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      executed.push_back(b);
      running.fetch_sub(1);
      return 0.0;
    });
    for (std::size_t b = 0; b < 8; ++b) engine.submit(b);
    const auto stats = engine.drain();
    EXPECT_EQ(peak.load(), 1) << "step " << step;
    EXPECT_EQ(executed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "step " << step;
    EXPECT_EQ(stats.buckets, 8);
    // Backpressure holds the caller until at most 4 jobs are left, so the
    // slot runs at least 4; the caller runs what is queued at drain entry.
    EXPECT_LE(on_caller.load(), 4);
    caller_jobs += on_caller.load();
  }
  EXPECT_GT(caller_jobs, 0);  // the caller did help
}

TEST(OverlapUnits, EngineCallerThreadFailureDiscardsQueuedJobs) {
  comm::AsyncCollectiveEngine engine(comm::AsyncConfig{.max_in_flight = 4});
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> executed;
  std::thread::id failed_on;
  engine.begin_step([&](std::size_t b) -> double {
    // Should the slot win bucket 0, hold it long enough for the caller to
    // enter drain(), which then owns the queue.
    if (b == 0 && std::this_thread::get_id() != caller) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    executed.push_back(b);
    if (b == 1) {
      failed_on = std::this_thread::get_id();
      throw Error("bucket 1 failed");
    }
    return 0.0;
  });
  for (std::size_t b = 0; b < 4; ++b) engine.submit(b);
  EXPECT_THROW(engine.drain(), Error);
  EXPECT_EQ(failed_on, caller);
  EXPECT_EQ(executed, (std::vector<std::size_t>{0, 1}));  // 2, 3 discarded
  // The engine recovers: the next step runs every job.
  executed.clear();
  engine.begin_step([&](std::size_t b) {
    executed.push_back(b);
    return 0.0;
  });
  for (std::size_t b = 0; b < 3; ++b) engine.submit(b);
  EXPECT_EQ(engine.drain().buckets, 3);
  EXPECT_EQ(executed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OverlapUnits, EngineSubmitBackpressureUnblocksAtDepthOne) {
  comm::AsyncCollectiveEngine engine(comm::AsyncConfig{.max_in_flight = 1});
  std::atomic<int> done{0};
  engine.begin_step([&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    done.fetch_add(1);
    return 0.0;
  });
  // Each submit past the first waits for the slot to finish the job ahead.
  for (std::size_t b = 0; b < 5; ++b) engine.submit(b);
  EXPECT_GE(done.load(), 4);
  EXPECT_EQ(engine.drain().buckets, 5);
  EXPECT_EQ(done.load(), 5);
}

TEST(OverlapUnits, EngineReportsVirtualCommSeconds) {
  comm::AsyncCollectiveEngine engine;
  engine.begin_step([](std::size_t) { return 0.25; });
  engine.submit(0);
  engine.submit(1);
  const auto stats = engine.drain();
  EXPECT_DOUBLE_EQ(stats.comm_virtual_s, 0.5);
  EXPECT_DOUBLE_EQ(stats.modeled_seq_s, stats.compute_s + 0.5);
}

TEST(OverlapUnits, EngineDrainRethrowsTheFirstJobFailure) {
  comm::AsyncCollectiveEngine engine;
  engine.begin_step([](std::size_t b) -> double {
    if (b == 1) throw Error("bucket 1 failed");
    return 0.0;
  });
  engine.submit(0);
  engine.submit(1);
  engine.submit(2);  // discarded once the failure lands
  EXPECT_THROW(engine.drain(), Error);
  // The engine recovers: the next step runs normally.
  engine.begin_step([](std::size_t) { return 0.0; });
  engine.submit(0);
  EXPECT_EQ(engine.drain().buckets, 1);
}

}  // namespace
}  // namespace easyscale
