// v3 (shard-aware) checkpoint frames: cross-degree restores, the
// per-chunk digest chain, and torn-write detection at every byte offset.
//
// The load-bearing property: chunk bounds are a pure function of the
// model, NOT of shard_degree, so a checkpoint saved at degree N restores
// bitwise at ANY degree dividing the same world — and the per-chunk
// digest chain of the restored run is identical to the saved one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint_io.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

using core::ShardFrameMeta;
using parallel::Trainer;
using parallel::TrainerConfig;

constexpr std::int64_t kTrainSize = 128;
constexpr std::uint64_t kSeed = 42;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TrainerConfig config(int shard_degree, std::int64_t world = 8) {
  TrainerConfig cfg;
  cfg.workload = "ResNet18";
  cfg.world_size = world;
  cfg.batch_per_worker = 4;
  cfg.seed = kSeed;
  cfg.shard_degree = shard_degree;
  return cfg;
}

std::unique_ptr<Trainer> make_trainer(const models::WorkloadData& wd,
                                      int shard_degree,
                                      std::int64_t world = 8) {
  return std::make_unique<Trainer>(config(shard_degree, world), *wd.train,
                                   wd.augment);
}

TEST(ShardCheckpoint, FrameMetaSerializationRoundTrip) {
  ShardFrameMeta meta;
  meta.world_size = 8;
  meta.shard_degree = 4;
  meta.total_numel = 100;
  meta.chunk_begin = {0, 25, 50, 75};
  meta.chunk_end = {25, 50, 75, 100};
  meta.chunk_chain.push(0, 0x1111);
  meta.chunk_chain.push(1, 0x2222);
  ByteWriter w;
  meta.save(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(ShardFrameMeta::load(r), meta);
}

TEST(ShardCheckpoint, FrameMetaRejectsBadFactorization) {
  ShardFrameMeta meta;
  meta.world_size = 8;
  meta.shard_degree = 3;  // does not divide 8
  ByteWriter w;
  meta.save(w);
  ByteReader r(w.bytes());
  EXPECT_THROW(ShardFrameMeta::load(r), Error);
}

/// Save at shard_degree N = 4, restore at every M in {1, N/2, N, 2N} of
/// the same world, continue training: every trajectory must land on the
/// unsharded sequential run's exact parameter bits, and the chunk digest
/// chain a restored trainer writes must equal the one it read.
TEST(ShardCheckpoint, SaveAtDegreeFourRestoresBitwiseAtEveryDegree) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);

  // Unsharded reference trajectory, 6 steps straight through.
  auto ref = make_trainer(wd, 1);
  ref->run_steps(6);
  const auto ref_digest = ref->params_digest();

  // Saver: degree 4, 3 steps, checkpoint.
  const auto path = temp_path("deg4.ckpt");
  auto saver = make_trainer(wd, 4);
  saver->run_steps(3);
  saver->save_checkpoint(path);

  DigestChain chain;
  std::optional<ShardFrameMeta> saved_meta;
  (void)core::load_checkpoint_file(path, &chain, &saved_meta);
  ASSERT_TRUE(saved_meta.has_value());
  EXPECT_EQ(saved_meta->shard_degree, 4);
  EXPECT_EQ(saved_meta->world_size, 8);

  for (const int degree : {1, 2, 4, 8}) {
    SCOPED_TRACE("restore degree " + std::to_string(degree));
    auto restored = make_trainer(wd, degree);
    restored->restore_checkpoint(path);
    EXPECT_EQ(restored->global_step(), 3);
    // The restored trainer's own checkpoint carries the SAME chunk chain:
    // the partition is degree-independent, so the canonical bytes are too.
    const auto repath = temp_path("restored.ckpt");
    restored->save_checkpoint(repath);
    std::optional<ShardFrameMeta> remeta;
    DigestChain rechain;
    (void)core::load_checkpoint_file(repath, &rechain, &remeta);
    ASSERT_TRUE(remeta.has_value());
    EXPECT_EQ(remeta->shard_degree, degree);
    EXPECT_TRUE(remeta->chunk_chain == saved_meta->chunk_chain);
    std::remove(repath.c_str());

    restored->run_steps(3);
    EXPECT_EQ(restored->params_digest(), ref_digest)
        << "degree " << degree << " diverged after restore";
  }
  std::remove(path.c_str());
}

TEST(ShardCheckpoint, RestoreRejectsWorldSizeMismatch) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  const auto path = temp_path("world8.ckpt");
  auto saver = make_trainer(wd, 2, /*world=*/8);
  saver->run_steps(1);
  saver->save_checkpoint(path);
  auto other = make_trainer(wd, 2, /*world=*/4);
  EXPECT_THROW(other->restore_checkpoint(path), Error);
  std::remove(path.c_str());
}

TEST(ShardCheckpoint, RestoreRejectsPreShardFrames) {
  // A v2 file (no shard frame) cannot answer a planner restore: the
  // trainer needs the chunk chain to attest the canonical bytes.
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  const auto path = temp_path("v2only.ckpt");
  core::save_checkpoint_file(path, {1, 2, 3}, DigestChain());
  auto t = make_trainer(wd, 2);
  EXPECT_THROW(t->restore_checkpoint(path), Error);
  std::remove(path.c_str());
}

/// Crash-point sweep over the v3 frame: kill the writer after exactly k
/// bytes, for EVERY k — header, tensor chain, shard frame, chunk-bound
/// arrays, payload.  A torn v3 file must never load.
TEST(ShardCheckpoint, WriterKilledAtEveryByteOffsetIsDetected) {
  const auto path = temp_path("torn_v3.ckpt");
  DigestChain chain;
  chain.push(0, 0xABCD);
  chain.push(1, 0xEF01);
  ShardFrameMeta meta;
  meta.world_size = 4;
  meta.shard_degree = 2;
  meta.total_numel = 64;
  meta.chunk_begin = {0, 16, 32, 48};
  meta.chunk_end = {16, 32, 48, 64};
  for (std::uint64_t c = 0; c < 4; ++c) meta.chunk_chain.push(c, 0x100 + c);
  const std::vector<std::uint8_t> payload(57, 0x5A);
  core::save_checkpoint_file(path, payload, chain, &meta);

  std::ifstream in(path, std::ios::binary);
  const std::vector<char> full((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(full.size(), payload.size());

  for (std::size_t k = 0; k < full.size(); ++k) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(k));
    }
    EXPECT_THROW((void)core::load_checkpoint_file(path), Error)
        << "torn v3 frame accepted at crash point " << k;
  }
  // The complete file round-trips with frame intact.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  DigestChain chain2;
  std::optional<ShardFrameMeta> meta2;
  EXPECT_EQ(core::load_checkpoint_file(path, &chain2, &meta2), payload);
  ASSERT_TRUE(meta2.has_value());
  EXPECT_EQ(*meta2, meta);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easyscale
