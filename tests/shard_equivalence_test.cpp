// End-to-end sharding equivalence: a ZeRO-1 sharded run (reduce-scatter +
// sliced optimizer + parameter all-gather) is bitwise identical to the
// replicated run, for Table-1 workloads at shard degrees 2 and 4, across
// intra-op thread counts, through a mid-run elastic reshard, and through
// injected communication faults on the resilient fabric.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/checkpoint_io.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

using parallel::Trainer;
using parallel::TrainerConfig;

constexpr std::int64_t kTrainSize = 128;
constexpr std::uint64_t kSeed = 42;
constexpr std::int64_t kSteps = 6;

TrainerConfig config(const std::string& workload, int shard_degree,
                     int intra_op_threads = 0) {
  TrainerConfig cfg;
  cfg.workload = workload;
  cfg.world_size = 4;
  cfg.batch_per_worker = 4;
  cfg.seed = kSeed;
  cfg.shard_degree = shard_degree;
  cfg.intra_op_threads = intra_op_threads;
  return cfg;
}

/// Run `steps` and return (params digest, loss history).
std::pair<std::uint64_t, std::vector<float>> run(const TrainerConfig& cfg,
                                                 std::int64_t steps) {
  auto wd = models::make_dataset_for(cfg.workload, kTrainSize, 32, kSeed);
  Trainer t(cfg, *wd.train, wd.augment);
  t.run_steps(steps);
  return {t.params_digest(), t.loss_history()};
}

void expect_sharded_matches_unsharded(const std::string& workload) {
  const auto [ref_digest, ref_losses] = run(config(workload, 1), kSteps);
  for (const int degree : {2, 4}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(workload + " degree " + std::to_string(degree) +
                   " threads " + std::to_string(threads));
      const auto [digest, losses] =
          run(config(workload, degree, threads), kSteps);
      EXPECT_EQ(digest, ref_digest);
      ASSERT_EQ(losses.size(), ref_losses.size());
      for (std::size_t i = 0; i < losses.size(); ++i) {
        EXPECT_EQ(losses[i], ref_losses[i]) << "loss diverged at step " << i;
      }
    }
  }
}

// Three Table-1 workloads spanning the model families (CNN, deep CNN,
// embedding MLP); degrees {2, 4} at two intra-op thread counts each.

TEST(ShardEquivalence, ShuffleNetMatchesUnshardedBitwise) {
  expect_sharded_matches_unsharded("ShuffleNetv2");
}

TEST(ShardEquivalence, VGG19MatchesUnshardedBitwise) {
  expect_sharded_matches_unsharded("VGG19");
}

TEST(ShardEquivalence, NeuMFMatchesUnshardedBitwise) {
  expect_sharded_matches_unsharded("NeuMF");
}

TEST(ShardEquivalence, OverlappedShardedStepMatchesSequential) {
  // The pipelined bucket path drives reduce_scatter_average_bucket per
  // flushed bucket; the result must not depend on flush order.
  const auto [ref_digest, ref_losses] =
      run(config("ResNet18", 1), kSteps);
  auto cfg = config("ResNet18", 2);
  cfg.overlap_comm = true;
  const auto [digest, losses] = run(cfg, kSteps);
  EXPECT_EQ(digest, ref_digest);
  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], ref_losses[i]);
  }
}

TEST(ShardEquivalence, InjectedCommFaultsAreAbsorbedBitwise) {
  const auto [ref_digest, ref_losses] =
      run(config("ResNet18", 1), kSteps);
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapped" : "sequential");
    // Degree-2 resilient run with a dropped chunk and a hard stall firing
    // inside the sharded collectives: abort + bitwise re-execution.
    auto cfg = config("ResNet18", 2);
    cfg.resilient_comm = true;
    cfg.overlap_comm = overlap;
    comm::CommFaultEvent drop;
    drop.kind = comm::LinkFaultKind::kDropChunk;
    drop.collective = 1;
    drop.rank = 0;
    comm::CommFaultEvent stall;
    stall.kind = comm::LinkFaultKind::kStallLink;
    stall.collective = 4;
    stall.rank = 2;
    stall.stall_s = 5.0;  // beyond recv_deadline_s: forces a retry
    if (overlap) {
      // Collectives 0 and 1 are the sequential recording step's
      // reduce-scatter and all-gather; collective 2 opens the first
      // overlapped step's per-bucket reduce-scatters, so both faults
      // fire inside pipelined bucket jobs.
      drop.collective = 3;
      stall.collective = 6;
    }
    cfg.comm_faults = {drop, stall};

    auto wd = models::make_dataset_for(cfg.workload, kTrainSize, 32, kSeed);
    Trainer t(cfg, *wd.train, wd.augment);
    if (overlap) {
      t.run_steps(1);
      ASSERT_EQ(t.transport_stats().collectives, 2);
      ASSERT_GT(t.current_layout().num_buckets(), 5u);
      t.run_steps(1);  // both faults fire in this step's bucket jobs
      EXPECT_GT(t.transport_stats().drops, 0);
      EXPECT_GT(t.transport_stats().timeouts, 0);
    }
    t.run_steps(overlap ? kSteps - 2 : kSteps);
    EXPECT_EQ(t.params_digest(), ref_digest);
    for (std::size_t i = 0; i < t.loss_history().size(); ++i) {
      EXPECT_EQ(t.loss_history()[i], ref_losses[i]);
    }
    EXPECT_GT(t.transport_stats().drops, 0);
    EXPECT_GT(t.transport_stats().timeouts, 0);
    ASSERT_TRUE(t.last_comm_report().has_value());
    EXPECT_EQ(t.last_overlap_stats().has_value(), overlap);
  }
}

TEST(ShardEquivalence, ShardOwnerDeathAbortsLoudly) {
  // A shard owner's optimizer-state chunks have no live replica inside the
  // collective: death cannot shrink away, the step must abort.
  auto cfg = config("ResNet18", 4);
  cfg.resilient_comm = true;
  auto wd = models::make_dataset_for(cfg.workload, kTrainSize, 32, kSeed);
  Trainer t(cfg, *wd.train, wd.augment);
  t.run_steps(2);
  comm::CommFaultEvent death;
  death.kind = comm::LinkFaultKind::kRankDeath;
  death.rank = 1;
  t.inject_comm_fault(death);
  EXPECT_THROW(t.run_steps(1), comm::RankDeathError);
}

TEST(ReshardEquivalence, MidRunReshardIsBitwiseInvisible) {
  const auto [ref_digest, ref_losses] =
      run(config("ResNet18", 1), kSteps);
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  Trainer t(config("ResNet18", 2), *wd.train, wd.augment);
  t.run_steps(2);
  t.reshard(4);  // scale the shard dimension up...
  EXPECT_EQ(t.shard_degree(), 4);
  t.run_steps(2);
  t.reshard(1);  // ...and collapse back to fully replicated
  EXPECT_EQ(t.shard_degree(), 1);
  t.run_steps(2);
  EXPECT_EQ(t.params_digest(), ref_digest);
  ASSERT_EQ(t.loss_history().size(), ref_losses.size());
  for (std::size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_EQ(t.loss_history()[i], ref_losses[i]);
  }
}

TEST(ReshardEquivalence, ChunkDigestChainsMatchAcrossDegrees) {
  // The per-chunk digest chain is computed over canonical parameter bytes
  // under the FIXED partition — equal-bit runs yield equal chains no
  // matter the degree.
  auto wd = models::make_dataset_for("VGG19", kTrainSize, 32, kSeed);
  Trainer a(config("VGG19", 1), *wd.train, wd.augment);
  a.run_steps(3);
  const auto image_a = a.checkpoint_bytes();
  Trainer b(config("VGG19", 4), *wd.train, wd.augment);
  b.run_steps(3);
  const auto image_b = b.checkpoint_bytes();
  const core::CheckpointImage pa = core::parse_image(image_a, "degree 1");
  const core::CheckpointImage pb = core::parse_image(image_b, "degree 4");
  EXPECT_TRUE(pa.shard.chunk_chain == pb.shard.chunk_chain);
  EXPECT_TRUE(pa.chain == pb.chain);  // per-tensor chains agree too
}

TEST(ReshardEquivalence, RejectsDegreeNotDividingWorld) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  Trainer t(config("ResNet18", 2), *wd.train, wd.augment);
  EXPECT_THROW(t.reshard(3), Error);
}

TEST(ShardEquivalence, ShardingExcludesSdcVoting) {
  // ZeRO-1 sharding removes the full gradient replicas that redundant-
  // replica voting compares; the combination must be rejected up front.
  auto cfg = config("ResNet18", 2);
  cfg.logical_world = 4;
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  EXPECT_THROW(Trainer(cfg, *wd.train, wd.augment), Error);
}

}  // namespace
}  // namespace easyscale
