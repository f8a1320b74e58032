// Peer-replicated checkpointing (fault/peer_checkpoint.hpp): frame
// integrity under every single-byte corruption and truncation, replica
// placement rules, the two-phase epoch commit protocol, and the crash-point
// sweep — whatever state the pipeline dies in (frame torn at any byte
// offset in flight, staged-only, prepared-but-unblessed, aborted), recovery
// must never surface a torn or unblessed epoch.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common/error.hpp"
#include "core/checkpoint_io.hpp"
#include "core/checkpoint_manager.hpp"
#include "fault/injector.hpp"
#include "fault/peer_checkpoint.hpp"

namespace easyscale::fault {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xFF);
  }
  return out;
}

comm::TransportConfig fast_fabric() {
  comm::TransportConfig cfg;
  cfg.recv_deadline_s = 0.05;
  return cfg;
}

PeerFrame sample_frame(std::size_t payload_size) {
  PeerFrame frame;
  frame.epoch = 7;
  frame.owner = 1;
  frame.world = 4;
  frame.payload = pattern_bytes(payload_size, 0x5A);
  return frame;
}

TEST(PeerCheckpointFrame, SerializeParseRoundTrip) {
  const PeerFrame frame = sample_frame(10000);  // > 2 slabs
  const auto wire = frame.serialize();
  const PeerFrame back = PeerFrame::parse(wire);
  EXPECT_EQ(back.epoch, frame.epoch);
  EXPECT_EQ(back.owner, frame.owner);
  EXPECT_EQ(back.world, frame.world);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(PeerCheckpointFrame, EmptyPayloadRoundTrips) {
  PeerFrame frame;
  frame.epoch = 1;
  frame.owner = 0;
  frame.world = 2;
  const PeerFrame back = PeerFrame::parse(frame.serialize());
  EXPECT_TRUE(back.payload.empty());
}

// The satellite crash-point sweep, corruption axis: flip EVERY byte of a
// serialized frame, one at a time; parse must reject every variant.  This
// is the property that makes a torn in-flight frame harmless — whatever
// byte the crash mangled, the frame cannot enter a recovery.
TEST(PeerCheckpointCrashSweep, EveryFlippedByteFailsParse) {
  const auto wire = sample_frame(700).serialize();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto torn = wire;
    torn[i] ^= 0x40;
    EXPECT_THROW((void)PeerFrame::parse(torn), Error)
        << "flipped byte " << i << " of " << wire.size() << " parsed";
  }
}

// Truncation axis: a crash mid-transfer leaves a prefix.  Every proper
// prefix must fail the parse.
TEST(PeerCheckpointCrashSweep, EveryTruncationFailsParse) {
  const auto wire = sample_frame(300).serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::uint8_t> torn(wire.begin(), wire.begin() + len);
    EXPECT_THROW((void)PeerFrame::parse(torn), Error)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(PeerCheckpointPlacement, RingOrderSkipsOwnNodeAndExcluded) {
  // 8 ranks, 2 per node.  Owner 0's node holds {0,1}.
  EXPECT_EQ(choose_peers(0, 8, 2, 2, {}), (std::vector<int>{2, 3}));
  // Excluding 2 shifts to the next off-node candidates.
  EXPECT_EQ(choose_peers(0, 8, 2, 2, {2}), (std::vector<int>{3, 4}));
  // Wrap-around: owner 7's node holds {6,7}.
  EXPECT_EQ(choose_peers(7, 8, 2, 2, {}), (std::vector<int>{0, 1}));
  // One rank per node: only the owner itself is skipped.
  EXPECT_EQ(choose_peers(1, 4, 3, 1, {}), (std::vector<int>{2, 3, 0}));
}

TEST(PeerCheckpointPlacement, DegradesWhenClusterTooSmall) {
  // Everyone shares the owner's node: nowhere safe to place.
  EXPECT_TRUE(choose_peers(0, 4, 2, 4, {}).empty());
  // Exclusions can starve the set below `replicas`.
  EXPECT_EQ(choose_peers(0, 4, 3, 1, {2, 3}), (std::vector<int>{1}));
  EXPECT_TRUE(choose_peers(0, 2, 1, 1, {1}).empty());
}

TEST(PeerCheckpointStore, PutFindDropAndGc) {
  PeerReplicaStore store;
  store.put(0, 5, pattern_bytes(8, 1));
  store.put(1, 5, pattern_bytes(8, 2));
  store.put(0, 9, pattern_bytes(8, 3));
  ASSERT_NE(store.find(0, 5), nullptr);
  EXPECT_EQ(store.find(2, 5), nullptr);
  EXPECT_TRUE(store.drop(1, 5));
  EXPECT_FALSE(store.drop(1, 5));  // already gone
  store.put(1, 5, pattern_bytes(8, 2));
  store.gc_below(9);
  // Epoch 5 fell below the floor; epoch 9 sits on it and survives.
  EXPECT_EQ(store.find(0, 5), nullptr);
  EXPECT_EQ(store.find(1, 5), nullptr);
  EXPECT_NE(store.find(0, 9), nullptr);
  store.gc_below(10);
  EXPECT_EQ(store.size(), 0u);
}

PeerCheckpointConfig service_config(int replicas) {
  PeerCheckpointConfig cfg;
  cfg.replicas = replicas;
  cfg.keep_epochs = 2;
  return cfg;
}

TEST(PeerCheckpointService, SnapshotRecoverRoundTrip) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const auto snapshot = pattern_bytes(5000, 0x11);
  ASSERT_TRUE(svc.snapshot(1, snapshot, {}));
  EXPECT_EQ(svc.stats().epochs_committed, 1);
  // Every rank can reassemble, with or without fetches.
  for (int requester = 0; requester < 4; ++requester) {
    const auto rec = svc.recover(requester, {});
    ASSERT_TRUE(rec.has_value()) << "requester " << requester;
    EXPECT_EQ(rec->epoch, 1);
    EXPECT_EQ(rec->snapshot, snapshot);
  }
}

TEST(PeerCheckpointService, SurvivesOwnerDeath) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const auto snapshot = pattern_bytes(4096, 0x22);
  ASSERT_TRUE(svc.snapshot(3, snapshot, {}));
  // Rank 2 dies; its owner copy and every replica it held are gone.
  svc.mark_dead(2);
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->snapshot, snapshot);
  EXPECT_GT(rec->frames_fetched, 0);  // some frames were not requester-local
}

TEST(PeerCheckpointService, QuorumLossWalksBackOneEpoch) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointConfig cfg = service_config(1);  // one peer copy per frame
  PeerCheckpointService svc(fabric, cfg);
  const auto old_snapshot = pattern_bytes(2048, 0x33);
  const auto new_snapshot = pattern_bytes(2048, 0x44);
  ASSERT_TRUE(svc.snapshot(1, old_snapshot, {}));
  ASSERT_TRUE(svc.snapshot(2, new_snapshot, {}));
  // Wipe every copy of epoch 2's frame owned by rank 1 (owner + 1 peer).
  for (int holder = 0; holder < 4; ++holder) {
    auto& store = const_cast<PeerReplicaStore&>(svc.store(holder));
    store.drop(/*owner=*/1, /*epoch=*/2);
  }
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1) << "must fall back to the older committed epoch";
  EXPECT_EQ(rec->snapshot, old_snapshot);
  EXPECT_GE(svc.stats().quorum_failures, 1);
}

// Crash-point sweep, protocol axis: kill the pipeline at each commit state
// and check recovery never sees the unfinished epoch.
TEST(PeerCheckpointCrashSweep, StagedOnlyEpochIsInvisible) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x55), {}));
  svc.stage(2, pattern_bytes(1024, 0x66));  // crash before replicate
  EXPECT_TRUE(svc.has_staged());
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1);  // epoch 2 never replicated, never visible
}

TEST(PeerCheckpointCrashSweep, PreparedButUnblessedEpochIsInvisible) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x77), {}));
  svc.stage(2, pattern_bytes(1024, 0x88));
  ASSERT_TRUE(svc.replicate_staged({}));  // crash between phases 1 and 2
  EXPECT_TRUE(svc.has_prepared());
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1) << "phase-1-complete epoch must stay invisible "
                              "until the bless";
  EXPECT_EQ(svc.commits().size(), 1u);
}

TEST(PeerCheckpointCrashSweep, AbortedEpochIsDrainedEverywhere) {
  comm::SimTransport fabric(2, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(1));
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(1024, 0x99), {}));
  // Drop every push attempt rank 1 will make for its epoch-2 frame: the
  // frame ends with zero peer copies while a peer was placeable → abort.
  for (int attempt = 0; attempt < 4; ++attempt) {
    comm::CommFaultEvent drop;
    drop.kind = comm::LinkFaultKind::kDropChunk;
    drop.rank = 1;
    fabric.inject(drop);
  }
  fabric.begin_collective();  // arm the injected events
  svc.stage(2, pattern_bytes(1024, 0xAA));
  EXPECT_FALSE(svc.replicate_staged({}));
  EXPECT_EQ(svc.stats().epochs_aborted, 1);
  EXPECT_FALSE(svc.has_prepared());
  // No store anywhere may hold a byte of the drained epoch — including the
  // owner copies that were stored before the abort was discovered.
  for (int holder = 0; holder < 2; ++holder) {
    for (int owner = 0; owner < 2; ++owner) {
      EXPECT_EQ(svc.store(holder).find(owner, 2), nullptr)
          << "holder " << holder << " kept owner " << owner
          << "'s frame of the aborted epoch";
    }
  }
  // The committed epoch is untouched by the abort.
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 1);
}

TEST(PeerCheckpointService, RetentionKeepsLastKeepEpochs) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));  // keep_epochs = 2
  for (std::int64_t e = 1; e <= 5; ++e) {
    ASSERT_TRUE(svc.snapshot(e, pattern_bytes(512, static_cast<std::uint8_t>(e)),
                             {}));
  }
  EXPECT_EQ(svc.commits().size(), 2u);
  EXPECT_EQ(svc.commits().front().epoch, 4);
  EXPECT_EQ(svc.commits().back().epoch, 5);
  for (int holder = 0; holder < 4; ++holder) {
    for (const auto& [owner, epoch] : svc.store(holder).entries()) {
      EXPECT_GE(epoch, 4) << "GC left epoch " << epoch << " at " << holder;
    }
  }
}

TEST(PeerCheckpointService, RecoverAfterGcServesNewestRetainedEpoch) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  for (std::int64_t e = 1; e <= 5; ++e) {
    ASSERT_TRUE(svc.snapshot(e, pattern_bytes(512, static_cast<std::uint8_t>(e)),
                             {}));
  }
  const auto rec = svc.recover(0, {});
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 5);
  EXPECT_EQ(rec->snapshot, pattern_bytes(512, 5));
  // Retention reclaimed the oldest epoch's record along with its frames.
  for (const auto& c : svc.commits()) EXPECT_NE(c.epoch, 1);
}

TEST(PeerCheckpointService, DropRandomReplicaIsSeededAndCounted) {
  comm::SimTransport fabric_a(4, fast_fabric());
  comm::SimTransport fabric_b(4, fast_fabric());
  PeerCheckpointService a(fabric_a, service_config(2));
  PeerCheckpointService b(fabric_b, service_config(2));
  for (auto* svc : {&a, &b}) {
    ASSERT_TRUE(svc->snapshot(1, pattern_bytes(2048, 0xBC), {}));
  }
  ASSERT_TRUE(a.drop_random_replica(2, 0xDEAD));
  ASSERT_TRUE(b.drop_random_replica(2, 0xDEAD));
  EXPECT_EQ(a.store(2).entries(), b.store(2).entries())
      << "the same seed must evict the same frame";
  EXPECT_EQ(a.stats().replicas_dropped, 1);
  // An empty shelf and a dead rank both decline the drop.
  while (a.store(0).size() > 0) ASSERT_TRUE(a.drop_random_replica(0, 9));
  EXPECT_FALSE(a.drop_random_replica(0, 9));
  a.mark_dead(3);
  EXPECT_FALSE(a.drop_random_replica(3, 9));
}

TEST(PeerCheckpointService, ExcludedRanksHoldNothingAndServeNothing) {
  comm::SimTransport fabric(4, fast_fabric());
  PeerCheckpointService svc(fabric, service_config(2));
  const std::set<int> quarantined{2};
  ASSERT_TRUE(svc.snapshot(1, pattern_bytes(3000, 0xCD), quarantined));
  // Placement never handed rank 2 a replica (its own frame's owner copy is
  // also withheld — nothing an SDC-quarantined device holds is trusted).
  EXPECT_EQ(svc.store(2).size(), 0u);
  const auto rec = svc.recover(0, quarantined);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->snapshot, pattern_bytes(3000, 0xCD));
}

// --- The on-disk half of the commit protocol: CheckpointManager's rotating
// generations, saved unblessed (phase 1) and blessed by bless_newest (phase
// 2).  A kBlessed restore sees only phase-2 generations.

/// A checkpoint image around pattern_bytes: a generation is an image.
std::vector<std::uint8_t> pattern_image(std::size_t n, std::uint8_t salt) {
  return core::serialize_image({}, {}, [&](ByteWriter& w) {
    for (const std::uint8_t b : pattern_bytes(n, salt)) w.write(b);
  });
}

core::CheckpointManager fresh_manager(const char* name) {
  core::CheckpointManager mgr(std::string(::testing::TempDir()) + "/" + name,
                              3);
  mgr.clear();  // reap leftovers from earlier runs of this binary
  return mgr;
}

TEST(PeerCheckpointEpochDisk, TwoPhaseBlessRoundTrip) {
  auto mgr = fresh_manager("epoch_roundtrip");
  const auto bytes = pattern_image(256, 0x10);
  mgr.save(bytes);
  EXPECT_FALSE(mgr.is_blessed(0)) << "phase 1 must not bless";
  EXPECT_FALSE(mgr.load_latest(core::Trust::kBlessed).has_value());
  EXPECT_TRUE(mgr.bless_newest());
  EXPECT_TRUE(mgr.is_blessed(0));
  const auto loaded = mgr.load_latest(core::Trust::kBlessed);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 0);
  EXPECT_EQ(loaded->bytes, bytes);
  mgr.clear();
}

TEST(PeerCheckpointEpochDisk, TornEpochFileIsSkippedAndSurvivorsLoad) {
  auto mgr = fresh_manager("epoch_torn");
  mgr.save(pattern_image(256, 0x21));
  ASSERT_TRUE(mgr.bless_newest());
  mgr.save(pattern_image(256, 0x22));
  ASSERT_TRUE(mgr.bless_newest());
  // The torn-write sweep on a survivor: mangle the NEWEST blessed
  // generation at a seeded offset; the walk-back must land on the older
  // intact one.
  FaultInjector::tear_file(mgr.path_for(0), /*seed=*/7);
  const auto loaded = mgr.load_latest(core::Trust::kBlessed);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1);
  EXPECT_EQ(loaded->bytes, pattern_image(256, 0x21));
  mgr.clear();
}

TEST(PeerCheckpointEpochDisk, CrashBetweenPhasesLeavesEpochInvisible) {
  auto mgr = fresh_manager("epoch_crash");
  mgr.save(pattern_image(64, 0x31));
  ASSERT_TRUE(mgr.bless_newest());
  // Phase 1 of the next generation lands, then the process dies before
  // the bless.
  mgr.save(pattern_image(64, 0x32));
  const auto loaded = mgr.load_latest(core::Trust::kBlessed);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1) << "unblessed generation must be invisible";
  EXPECT_EQ(loaded->bytes, pattern_image(64, 0x31));
  mgr.clear();
}

TEST(PeerCheckpointEpochDisk, StaleSidecarCannotBlessNewBytes) {
  auto mgr = fresh_manager("epoch_stale");
  mgr.save(pattern_image(64, 0x41));
  ASSERT_TRUE(mgr.bless_newest());
  // The same step is saved again with different bytes (a rollback replay).
  mgr.save(pattern_image(64, 0x42));
  EXPECT_FALSE(mgr.is_blessed(0))
      << "save must not let the previous generation's sidecar bless it";
  EXPECT_TRUE(mgr.is_blessed(1)) << "the blessing rotates with its file";
  mgr.clear();
}

}  // namespace
}  // namespace easyscale::fault
