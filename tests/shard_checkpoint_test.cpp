// The checkpoint image's shard frame: cross-degree restores, the per-chunk
// digest chain, and torn-write detection at every byte offset.
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

  // Saver: degree 4, 3 steps, checkpoint file.
  const auto path = temp_path("deg4.ckpt");
  auto saver = make_trainer(wd, 4);
  saver->run_steps(3);
  core::save_checkpoint_file(path, saver->checkpoint_bytes());

  const auto saved = core::load_checkpoint_file(path);
  const ShardFrameMeta saved_meta = core::parse_image(saved, path).shard;
  EXPECT_EQ(saved_meta.shard_degree, 4);
  EXPECT_EQ(saved_meta.world_size, 8);

  for (const int degree : {1, 2, 4, 8}) {
    SCOPED_TRACE("restore degree " + std::to_string(degree));
    auto restored = make_trainer(wd, degree);
    restored->restore_checkpoint_bytes(core::load_checkpoint_file(path), path);
    EXPECT_EQ(restored->global_step(), 3);
    // The restored trainer's own image carries the SAME chunk chain: the
    // partition is degree-independent, so the canonical bytes are too.
    const auto reimage = restored->checkpoint_bytes();
    const ShardFrameMeta remeta = core::parse_image(reimage, "re-image").shard;
    EXPECT_EQ(remeta.shard_degree, degree);
    EXPECT_TRUE(remeta.chunk_chain == saved_meta.chunk_chain);

    restored->run_steps(3);
    EXPECT_EQ(restored->params_digest(), ref_digest)
        << "degree " << degree << " diverged after restore";
  }
  std::remove(path.c_str());
}

TEST(ShardCheckpoint, RestoreRejectsWorldSizeMismatch) {
  auto wd = models::make_dataset_for("ResNet18", kTrainSize, 32, kSeed);
  auto saver = make_trainer(wd, 2, /*world=*/8);
  saver->run_steps(1);
  const auto image = saver->checkpoint_bytes();
  auto other = make_trainer(wd, 2, /*world=*/4);
  EXPECT_THROW(other->restore_checkpoint_bytes(image), Error);
}

/// Crash-point sweep over the image: kill the writer after exactly k
/// bytes, for EVERY k — tensor chain, shard frame, chunk-bound arrays,
/// payload, trailer.  A torn image file must never parse.
TEST(ShardCheckpoint, WriterKilledAtEveryByteOffsetIsDetected) {
  const auto path = temp_path("torn_image.ckpt");
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
  const auto image = core::serialize_image(chain, meta, [&](ByteWriter& w) {
    for (const std::uint8_t b : payload) w.write(b);
  });
  core::save_checkpoint_file(path, image);

  std::ifstream in(path, std::ios::binary);
  const std::vector<char> full((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(full.size(), image.size());

  for (std::size_t k = 0; k < full.size(); ++k) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(k));
    }
    EXPECT_THROW((void)core::parse_image(core::load_checkpoint_file(path), path),
                 Error)
        << "torn image accepted at crash point " << k;
  }
  // The complete file round-trips with frame intact.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  const auto loaded = core::load_checkpoint_file(path);
  const core::CheckpointImage parsed = core::parse_image(loaded, path);
  EXPECT_EQ(std::vector<std::uint8_t>(parsed.payload.begin(),
                                      parsed.payload.end()),
            payload);
  EXPECT_EQ(parsed.chain, chain);
  EXPECT_EQ(parsed.shard, meta);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easyscale
