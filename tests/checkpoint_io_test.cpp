// Checkpoint persistence + failure injection: crash/restore at arbitrary
// points, corrupt files, and end-to-end resume through disk.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <type_traits>

#include "core/checkpoint_io.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"

namespace easyscale::core {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A small image around `payload`: a two-record tensor chain and a
/// one-chunk shard frame, so every section of the frame is on disk.
std::vector<std::uint8_t> image_of(const std::vector<std::uint8_t>& payload) {
  DigestChain chain;
  chain.push(0, 0xABCD);
  chain.push(1, 0xEF01);
  ShardFrameMeta shard;
  shard.total_numel = 8;
  shard.chunk_begin = {0};
  shard.chunk_end = {8};
  shard.chunk_chain.push(0, 0x100);
  return serialize_image(chain, shard, [&](ByteWriter& w) {
    for (const std::uint8_t b : payload) w.write(b);
  });
}

std::vector<std::uint8_t> payload_of(std::span<const std::uint8_t> image) {
  const auto payload = parse_image(image, "test image").payload;
  return {payload.begin(), payload.end()};
}

std::vector<std::uint8_t> read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_raw(const std::string& path, const std::vector<std::uint8_t>& bytes,
               std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
}

/// Expects parse_image to reject `bytes` with an Error naming `path`.
void expect_rejected_naming(const std::vector<std::uint8_t>& bytes,
                            const std::string& path) {
  try {
    (void)parse_image(bytes, path);
    FAIL() << "damaged image accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(CheckpointIO, RoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  const auto image = image_of(payload);
  const auto path = temp_path("roundtrip.ckpt");
  save_checkpoint_file(path, image);
  // The file holds the image verbatim.
  const auto loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded, image);
  const CheckpointImage parsed = parse_image(loaded, path);
  EXPECT_EQ(std::vector<std::uint8_t>(parsed.payload.begin(),
                                      parsed.payload.end()),
            payload);
  EXPECT_EQ(parsed.chain.size(), 2u);
  EXPECT_EQ(parsed.shard.chunk_end, std::vector<std::int64_t>{8});
  EXPECT_EQ(parsed.digest,
            digest_bytes(std::span(image).first(image.size() - 8)));
  std::remove(path.c_str());
}

TEST(CheckpointIO, EmptyPayload) {
  const auto path = temp_path("empty.ckpt");
  save_checkpoint_file(path, image_of({}));
  EXPECT_TRUE(payload_of(load_checkpoint_file(path)).empty());
  std::remove(path.c_str());
}

TEST(CheckpointIO, MissingFileThrows) {
  EXPECT_THROW((void)load_checkpoint_file(temp_path("no_such.ckpt")), Error);
}

TEST(CheckpointIO, CorruptPayloadDetected) {
  const auto image = image_of(std::vector<std::uint8_t>(100, 42));
  const auto path = temp_path("corrupt.ckpt");
  save_checkpoint_file(path, image);
  // Flip a byte in the payload region.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(image.size() - 40));
    const char zero = 0;
    f.write(&zero, 1);
  }
  expect_rejected_naming(load_checkpoint_file(path), path);
  std::remove(path.c_str());
}

TEST(CheckpointIO, TruncatedFileDetected) {
  const auto image = image_of(std::vector<std::uint8_t>(100, 9));
  const auto path = temp_path("trunc.ckpt");
  write_raw(path, image, image.size() - 30);
  expect_rejected_naming(load_checkpoint_file(path), path);
  std::remove(path.c_str());
}

/// Crash-point sweep: kill the checkpoint writer at EVERY byte offset of
/// the newest generation, and flip EVERY single byte of it.  A torn or
/// corrupted generation B must never be accepted — recovery walks back to
/// the previous valid generation A; only the intact file yields B.  This
/// is the torn-write contract the supervisor's recovery path depends on.
TEST(CheckpointManager, WriterKilledAtEveryByteOffsetRecoversPreviousGen) {
  const auto prefix = temp_path("crashpoint");
  CheckpointManager mgr(prefix, 3);
  mgr.clear();
  const auto gen_a = image_of({0xA1, 0xA2, 0xA3, 0xA4, 0xA5});
  const auto gen_b = image_of({0xB1, 0xB2, 0xB3});
  mgr.save(gen_a);  // lands at .1 after the next save
  mgr.save(gen_b);  // newest, at .0
  ASSERT_EQ(mgr.generations_on_disk(), 2);
  const auto newest = mgr.path_for(0);

  // The intact bytes of .0, to restore between crash points.
  const std::vector<std::uint8_t> full = read_raw(newest);
  ASSERT_EQ(full, gen_b);  // the generation is the image verbatim

  for (std::size_t k = 0; k < full.size(); ++k) {
    // The writer died after flushing exactly k bytes of the new generation.
    write_raw(newest, full, k);
    const auto recovered = mgr.load_latest(Trust::kIntact);
    ASSERT_TRUE(recovered.has_value()) << "crash point " << k;
    EXPECT_EQ(recovered->bytes, gen_a)
        << "torn generation accepted at crash point " << k;
  }
  for (std::size_t k = 0; k < full.size(); ++k) {
    // The complete file with byte k flipped.
    auto flipped = full;
    flipped[k] ^= 0xFF;
    write_raw(newest, flipped, flipped.size());
    const auto recovered = mgr.load_latest(Trust::kIntact);
    ASSERT_TRUE(recovered.has_value()) << "flipped byte " << k;
    EXPECT_EQ(recovered->bytes, gen_a)
        << "corrupt generation accepted with byte " << k << " flipped";
  }
  // The complete file is the newest generation again.
  write_raw(newest, full, full.size());
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
  expect_rejected_naming(load_checkpoint_file(path), path);
  std::remove(path.c_str());
  // A directory is no file to read: the error names it too.
  const std::string dir = ::testing::TempDir();
  try {
    (void)load_checkpoint_file(dir);
    FAIL() << "directory read as a checkpoint";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
}

TEST(CheckpointManager, RotatesGenerations) {
  CheckpointManager mgr(temp_path("rot"), 3);
  mgr.clear();
  for (int g = 1; g <= 4; ++g) {
    mgr.save(image_of({static_cast<std::uint8_t>(g)}));
  }
  EXPECT_EQ(mgr.generations_on_disk(), 3);
  EXPECT_EQ(mgr.load_latest(Trust::kIntact).value().bytes, image_of({4}));
  EXPECT_EQ(load_checkpoint_file(mgr.path_for(2)),
            image_of({2}));  // oldest kept = 2
  mgr.clear();
  EXPECT_EQ(mgr.generations_on_disk(), 0);
}

/// The disk store's retention rule: the `keep` newest generations, blessed
/// or not (an unblessed one still serves crash recovery).  Its cost: `keep`
/// unblessed saves in a row rotate the last blessed generation out.  The
/// peer store instead retains committed epochs only (docs/FAULT_TOLERANCE.md).
TEST(CheckpointManager, RetentionCountsUnblessedGenerations) {
  CheckpointManager mgr(temp_path("retention"), 2);
  mgr.clear();
  mgr.save(image_of({1}));
  ASSERT_TRUE(mgr.bless_newest());
  mgr.save(image_of({2}));  // unblessed, takes the second slot
  EXPECT_EQ(mgr.load_latest(Trust::kBlessed).value().bytes, image_of({1}));
  mgr.save(image_of({3}));  // unblessed, rotates the blessed one out
  EXPECT_EQ(mgr.generations_on_disk(), 2);
  EXPECT_FALSE(mgr.load_latest(Trust::kBlessed).has_value());
  EXPECT_EQ(mgr.load_latest(Trust::kIntact).value().bytes, image_of({3}));
  mgr.clear();
}

TEST(CheckpointManager, FallsBackPastCorruptNewest) {
  CheckpointManager mgr(temp_path("fb"), 3);
  mgr.clear();
  mgr.save(image_of({10, 11}));
  mgr.save(image_of({20, 21}));
  // Corrupt the newest generation's payload (the trailer and the payload's
  // two bytes end the file).
  {
    std::fstream f(mgr.path_for(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-10, std::ios::end);
    const char junk = 99;
    f.write(&junk, 1);
  }
  const auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(payload_of(loaded->bytes), (std::vector<std::uint8_t>{10, 11}));
  mgr.clear();
}

TEST(CheckpointManager, TornDigestFallsBackAndKeepsBothGenerations) {
  // Torn-write model: the crash mangles the newest generation's trailing
  // image digest (its last 8 bytes).  The manager must fall back to the
  // previous generation while still reporting both files on disk.
  CheckpointManager mgr(temp_path("torn"), 3);
  mgr.clear();
  mgr.save(image_of({7, 7, 7}));     // becomes generation 1 after the next
  mgr.save(image_of({9, 9, 9, 9}));  // generation 0, about to be torn
  {
    std::fstream f(mgr.path_for(0),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-8, std::ios::end);
    const char junk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    f.write(junk, sizeof(junk));
  }
  const auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(payload_of(loaded->bytes), (std::vector<std::uint8_t>{7, 7, 7}));
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

// A disk restore parses the image once: the parsed image load_latest hands
// back restores exactly what its raw bytes restore, and survives a move.
TEST(CheckpointManager, LoadedImageRestoresLikeItsRawBytes) {
  static_assert(!std::is_copy_constructible_v<LoadedCheckpoint>,
                "a copy would leave the payload view on the old bytes");
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  CheckpointManager mgr(temp_path("parsed_once"), 2);
  mgr.clear();
  EasyScaleEngine source(cfg, *wd.train, wd.augment);
  source.configure_workers(std::vector<WorkerSpec>(2));
  source.run_steps(3);
  mgr.save(source.checkpoint());
  auto loaded = mgr.load_latest(Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  const LoadedCheckpoint moved = std::move(*loaded);

  EasyScaleEngine from_image(cfg, *wd.train, wd.augment);
  from_image.configure_workers(std::vector<WorkerSpec>(4));
  from_image.restore_checkpoint(moved.image);
  EasyScaleEngine from_bytes(cfg, *wd.train, wd.augment);
  from_bytes.configure_workers(std::vector<WorkerSpec>(4));
  from_bytes.restore(moved.bytes);
  EXPECT_EQ(from_image.params_digest_chain(), from_bytes.params_digest_chain());
  EXPECT_EQ(from_image.params_digest_chain(), source.params_digest_chain());
  from_image.run_steps(1);
  from_bytes.run_steps(1);
  source.run_steps(1);
  EXPECT_EQ(from_image.params_digest(), from_bytes.params_digest());
  EXPECT_EQ(from_image.params_digest(), source.params_digest());
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
