// Checkpoint persistence + failure injection: crash/restore at arbitrary
// points, corrupt files, and end-to-end resume through disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/checkpoint_io.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"

namespace easyscale::core {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CheckpointIO, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 250, 0, 7};
  const auto path = temp_path("roundtrip.ckpt");
  save_checkpoint_file(path, bytes);
  EXPECT_EQ(load_checkpoint_file(path), bytes);
  std::remove(path.c_str());
}

TEST(CheckpointIO, EmptyPayload) {
  const auto path = temp_path("empty.ckpt");
  save_checkpoint_file(path, {});
  EXPECT_TRUE(load_checkpoint_file(path).empty());
  std::remove(path.c_str());
}

TEST(CheckpointIO, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint_file(temp_path("no_such.ckpt")), Error);
}

TEST(CheckpointIO, CorruptPayloadDetected) {
  const std::vector<std::uint8_t> bytes(100, 42);
  const auto path = temp_path("corrupt.ckpt");
  save_checkpoint_file(path, bytes);
  // Flip a byte in the payload region.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    const char zero = 0;
    f.write(&zero, 1);
  }
  EXPECT_THROW(load_checkpoint_file(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointIO, TruncatedFileDetected) {
  const std::vector<std::uint8_t> bytes(100, 9);
  const auto path = temp_path("trunc.ckpt");
  save_checkpoint_file(path, bytes);
  {
    // Rewrite the file shorter than its declared size.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(all.size() - 30));
  }
  EXPECT_THROW(load_checkpoint_file(path), Error);
  std::remove(path.c_str());
}

/// Crash-point sweep: kill the checkpoint writer at EVERY byte offset of
/// the newest generation.  A torn write of generation B must never be
/// accepted — recovery walks back to the previous valid generation A; only
/// the complete file yields B.  This is the torn-write contract the
/// supervisor's recovery path depends on.
TEST(CheckpointManager, WriterKilledAtEveryByteOffsetRecoversPreviousGen) {
  const auto prefix = temp_path("crashpoint");
  CheckpointManager mgr(prefix, 3);
  mgr.clear();
  const std::vector<std::uint8_t> gen_a = {0xA1, 0xA2, 0xA3, 0xA4, 0xA5};
  const std::vector<std::uint8_t> gen_b = {0xB1, 0xB2, 0xB3};
  mgr.save(gen_a);  // lands at .1 after the next save
  mgr.save(gen_b);  // newest, at .0
  ASSERT_EQ(mgr.generations_on_disk(), 2);
  const auto newest = mgr.path_for(0);

  // The intact bytes of .0, to restore between crash points.
  std::ifstream in(newest, std::ios::binary);
  const std::vector<char> full((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(full.size(), gen_b.size());  // framing header is on disk too

  for (std::size_t k = 0; k < full.size(); ++k) {
    // The writer died after flushing exactly k bytes of the new generation.
    {
      std::ofstream out(newest, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(k));
    }
    const auto recovered = mgr.load_latest(Trust::kIntact);
    ASSERT_TRUE(recovered.has_value()) << "crash point " << k;
    EXPECT_EQ(recovered->bytes, gen_a)
        << "torn generation accepted at crash point " << k;
  }
  // The complete file is the newest generation again.
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  const auto recovered = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->bytes, gen_b);
  mgr.clear();
}

TEST(CheckpointIO, NotACheckpointDetected) {
  const auto path = temp_path("garbage.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint, far too short header..";
  }
  EXPECT_THROW(load_checkpoint_file(path), Error);
  std::remove(path.c_str());
}

TEST(CheckpointManager, RotatesGenerations) {
  CheckpointManager mgr(temp_path("rot"), 3);
  mgr.clear();
  mgr.save({1});
  mgr.save({2});
  mgr.save({3});
  mgr.save({4});
  EXPECT_EQ(mgr.generations_on_disk(), 3);
  EXPECT_EQ(mgr.load_latest(Trust::kIntact).value().bytes,
            (std::vector<std::uint8_t>{4}));
  EXPECT_EQ(load_checkpoint_file(mgr.path_for(2)),
            (std::vector<std::uint8_t>{2}));  // oldest kept = 2
  mgr.clear();
  EXPECT_EQ(mgr.generations_on_disk(), 0);
}

TEST(CheckpointManager, FallsBackPastCorruptNewest) {
  CheckpointManager mgr(temp_path("fb"), 3);
  mgr.clear();
  mgr.save({10, 11});
  mgr.save({20, 21});
  // Corrupt the newest generation's payload.
  {
    std::fstream f(mgr.path_for(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);  // inside the payload (header is 24 bytes)
    const char junk = 99;
    f.write(&junk, 1);
  }
  const auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->bytes, (std::vector<std::uint8_t>{10, 11}));
  mgr.clear();
}

TEST(CheckpointManager, TornDigestFallsBackAndKeepsBothGenerations) {
  // Torn-write model: the crash mangles the newest generation's stored
  // digest (header bytes 16..23: magic(4) + version(4) + size(8) precede
  // it).  The manager must fall back to the previous generation while
  // still reporting both files on disk.
  CheckpointManager mgr(temp_path("torn"), 3);
  mgr.clear();
  mgr.save({7, 7, 7});    // becomes generation 1 after the next save
  mgr.save({9, 9, 9, 9});  // generation 0, about to be torn
  {
    std::fstream f(mgr.path_for(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    const char junk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    f.write(junk, sizeof(junk));
  }
  const auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->bytes, (std::vector<std::uint8_t>{7, 7, 7}));
  EXPECT_EQ(mgr.generations_on_disk(), 2);
  mgr.clear();
}

TEST(CheckpointManager, EmptyWhenNothingOnDisk) {
  CheckpointManager mgr(temp_path("none"), 2);
  mgr.clear();
  EXPECT_FALSE(mgr.load_latest(Trust::kIntact).has_value());
}

TEST(CheckpointManager, EndToEndCrashRecoveryThroughRotation) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  CheckpointManager mgr(temp_path("e2e"), 2);
  mgr.clear();
  EasyScaleEngine reference(cfg, *wd.train, wd.augment);
  reference.configure_workers(std::vector<WorkerSpec>(2));
  reference.run_steps(6);
  {
    EasyScaleEngine victim(cfg, *wd.train, wd.augment);
    victim.configure_workers(std::vector<WorkerSpec>(2));
    victim.run_steps(2);
    mgr.save(victim.checkpoint());
    victim.run_steps(2);
    mgr.save(victim.checkpoint());  // newest: step 4
  }
  // Tear the newest file; recovery lands on step 2 and retrains.
  {
    std::fstream f(mgr.path_for(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    const char junk = 1;
    f.write(&junk, 1);
  }
  EasyScaleEngine revived(cfg, *wd.train, wd.augment);
  revived.configure_workers(std::vector<WorkerSpec>(1));
  const auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  revived.restore(loaded->bytes);
  EXPECT_EQ(revived.global_step(), 2);
  revived.run_steps(4);
  EXPECT_EQ(revived.params_digest(), reference.params_digest());
  mgr.clear();
}

/// Failure-injection property sweep: crash the job after K steps, restore
/// from disk onto a different worker set, and require bitwise equality
/// with the uninterrupted run.
class CrashRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryTest, DiskRestoreIsBitwiseExact) {
  const std::int64_t crash_step = GetParam();
  const std::int64_t total_steps = 8;
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;

  EasyScaleEngine reference(cfg, *wd.train, wd.augment);
  reference.configure_workers(std::vector<WorkerSpec>(2));
  reference.run_steps(total_steps);

  // Unique per crash point: ctest runs the instances as concurrent
  // processes sharing one temp dir.
  const auto path =
      temp_path(("crash_" + std::to_string(crash_step) + ".ckpt").c_str());
  {
    EasyScaleEngine victim(cfg, *wd.train, wd.augment);
    victim.configure_workers(std::vector<WorkerSpec>(2));
    victim.run_steps(crash_step);
    save_checkpoint_file(path, victim.checkpoint());
    // victim "crashes" here (destroyed without further progress)
  }
  EasyScaleEngine revived(cfg, *wd.train, wd.augment);
  revived.configure_workers(std::vector<WorkerSpec>(3));  // new hardware
  revived.restore(load_checkpoint_file(path));
  revived.run_steps(total_steps - crash_step);
  EXPECT_EQ(revived.params_digest(), reference.params_digest());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashRecoveryTest,
                         ::testing::Values(1, 2, 3, 5, 7));

}  // namespace
}  // namespace easyscale::core
