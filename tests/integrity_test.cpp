// Silent-data-corruption defense: deterministic SDC injection (the sticky
// faulty device), the three detection layers — cross-replica gradient
// voting, the engine's re-execution witness, verified checkpoints — and
// the respond path: device condemnation, quarantine, and a walk-back that
// ends BITWISE equal to a fault-free run on the surviving devices.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "core/integrity.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/streams.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "sched/intra_job.hpp"

namespace easyscale {
namespace {

using core::CheckpointManager;
using core::EasyScaleConfig;
using core::EasyScaleEngine;
using core::Trust;
using core::WorkerSpec;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlanConfig;
using fault::FaultSupervisor;
using fault::SdcCorruptor;
using fault::SdcMode;
using fault::SdcProfile;
using fault::SupervisorConfig;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

EasyScaleConfig small_config() {
  EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;  // D1 (bitwise-deterministic) is the default
  return cfg;
}

models::WorkloadData& shared_data() {
  static auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  return wd;
}

std::uint64_t fault_free_digest(std::int64_t workers, std::int64_t steps) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(
      std::vector<WorkerSpec>(static_cast<std::size_t>(workers)));
  engine.run_steps(steps);
  return engine.params_digest();
}

// ---------------------------------------------------------------------------
// Philox stream registry: families must never share a stream.

TEST(FaultStreams, SaltsAreDistinct) {
  const auto classic = fault::stream_salt(fault::StreamId::kFaultPlan);
  const auto comm = fault::stream_salt(fault::StreamId::kCommFaultPlan);
  const auto sdc = fault::stream_salt(fault::StreamId::kSdcPlan);
  EXPECT_NE(classic, comm);
  EXPECT_NE(classic, sdc);
  EXPECT_NE(comm, sdc);
  // Salt 0 is load-bearing: the classic family drew from the raw plan seed
  // before the registry existed, and PR-1 schedules must stay identical.
  EXPECT_EQ(classic, 0u);
}

// ---------------------------------------------------------------------------
// DigestChain: the tamper-evident unit of verified checkpoints.

TEST(DigestChain, LinksAreOrderSensitive) {
  DigestChain a;
  a.push(0, 0x1111);
  a.push(1, 0x2222);
  DigestChain b;
  b.push(1, 0x2222);
  b.push(0, 0x1111);
  EXPECT_TRUE(a.verify());
  EXPECT_TRUE(b.verify());
  EXPECT_NE(a.tail(), b.tail());
  EXPECT_NE(a, b);
}

TEST(DigestChain, SaveLoadRoundTrips) {
  DigestChain chain;
  for (std::uint64_t i = 0; i < 5; ++i) chain.push(i, 0x9000 + i * 17);
  ByteWriter w;
  chain.save(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto loaded = DigestChain::load(r);
  EXPECT_EQ(loaded, chain);
  EXPECT_EQ(loaded.tail(), chain.tail());
}

TEST(DigestChain, AnyFlippedByteBreaksTheLoad) {
  DigestChain chain;
  for (std::uint64_t i = 0; i < 4; ++i) chain.push(i, 0xABC0 + i);
  ByteWriter w;
  chain.save(w);
  auto bytes = w.take();
  // Flip one byte in the record region (past any length header).
  bytes[bytes.size() / 2] ^= 0x40;
  ByteReader r(bytes);
  EXPECT_THROW((void)DigestChain::load(r), Error);
}

// ---------------------------------------------------------------------------
// SdcCorruptor: the sticky faulty device is deterministic and silent.

TEST(SdcCorruptor, CorruptionIsDeterministicPerProfile) {
  SdcProfile profile;
  profile.mode = SdcMode::kBitFlip;
  profile.seed = 0xB17;
  SdcCorruptor c1(profile);
  SdcCorruptor c2(profile);
  rng::Philox gen(5);
  std::vector<float> a(64);
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  const auto original = a;
  auto b = a;
  for (int call = 0; call < 3; ++call) {
    c1.on_output(kernels::KernelFamily::kGemm, a);
    c2.on_output(kernels::KernelFamily::kGemm, b);
  }
  EXPECT_EQ(a, b);  // same device profile => bit-identical corruption
  EXPECT_NE(a, original);
  EXPECT_EQ(c1.ops_seen(), 3);
  EXPECT_EQ(c1.ops_corrupted(), 3);  // default ops_rate = 1.0
  // Silence requirement: corrupted values stay finite so nothing NaN-traps.
  for (const float v : a) EXPECT_TRUE(std::isfinite(v));
}

TEST(SdcCorruptor, ZeroRateIsANoOp) {
  SdcProfile profile;
  profile.ops_rate = 0.0;
  SdcCorruptor corr(profile);
  rng::Philox gen(6);
  std::vector<float> data(32);
  rng::fill_normal(gen, data, 0.0f, 1.0f);
  const auto original = data;
  corr.on_output(kernels::KernelFamily::kReduce, data);
  EXPECT_EQ(data, original);
  EXPECT_EQ(corr.ops_seen(), 1);
  EXPECT_EQ(corr.ops_corrupted(), 0);
}

TEST(SdcCorruptor, PerturbInjectsBoundedRelativeError) {
  SdcProfile profile;
  profile.mode = SdcMode::kPerturb;
  profile.seed = 0xD81F7;
  profile.magnitude = 1e-3;
  SdcCorruptor corr(profile);
  rng::Philox gen(7);
  std::vector<float> data(48);
  rng::fill_normal(gen, data, 1.0f, 0.25f);  // keep values away from zero
  const auto original = data;
  corr.on_output(kernels::KernelFamily::kConv, data);
  int changed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] == original[i]) continue;
    ++changed;
    const float rel = std::abs(data[i] - original[i]) /
                      std::max(std::abs(original[i]), 1e-6f);
    EXPECT_LT(rel, 4e-3f) << "element " << i;
  }
  EXPECT_EQ(changed, 1);  // one element per corrupted kernel output
}

// ---------------------------------------------------------------------------
// Injector: SDC rates ride a fresh stream; existing schedules never move.

TEST(FaultSdcSchedule, SdcRatesNeverPerturbOtherFamilies) {
  FaultPlanConfig cfg;
  cfg.seed = 0xCAFE;
  cfg.horizon_steps = 300;
  cfg.crash_rate = 0.05;
  cfg.revocation_rate = 0.03;
  cfg.straggler_rate = 0.05;
  cfg.chunk_drop_rate = 0.04;
  const auto base = FaultInjector::from_config(cfg);

  cfg.sdc_bitflip_rate = 0.05;
  cfg.sdc_perturb_rate = 0.05;
  const auto with_sdc = FaultInjector::from_config(cfg);

  std::vector<FaultEvent> classic;
  std::vector<FaultEvent> sdc;
  for (const auto& e : with_sdc.schedule()) {
    if (e.kind == FaultKind::kSdcBitFlip || e.kind == FaultKind::kSdcPerturb) {
      sdc.push_back(e);
    } else {
      classic.push_back(e);
    }
  }
  // The pre-existing families are bitwise unchanged by enabling SDC.
  EXPECT_EQ(classic, base.schedule());
  EXPECT_FALSE(sdc.empty());
  for (const auto& e : sdc) {
    EXPECT_GE(e.step, 1);
    EXPECT_LT(e.step, cfg.horizon_steps);
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, cfg.num_workers);
    EXPECT_NE(e.payload_seed, 0u);  // keys the corruption pattern
  }
  // And the SDC stream itself is seed-deterministic.
  const auto again = FaultInjector::from_config(cfg);
  EXPECT_EQ(with_sdc.schedule(), again.schedule());
}

// ---------------------------------------------------------------------------
// Engine re-execution witness.

TEST(EngineWitness, CleanRunPassesAndDoesNotPerturbTraining) {
  auto& wd = shared_data();
  auto cfg = small_config();
  cfg.witness.witness_every = 2;
  EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  engine.run_steps(6);
  const auto& stats = engine.witness_stats();
  EXPECT_EQ(stats.runs, 3);          // steps 2, 4, 6
  EXPECT_EQ(stats.replays, 6);       // one EST per worker per witness step
  EXPECT_EQ(stats.mismatches, 0);
  EXPECT_EQ(engine.last_clean_witness_step(), 6);
  // The witness replays on a separate replica: training bits are untouched.
  EXPECT_EQ(engine.params_digest(), fault_free_digest(2, 6));
}

TEST(EngineWitness, CorruptWorkerIsDetectedAndNamed) {
  auto& wd = shared_data();
  auto cfg = small_config();
  cfg.witness.witness_every = 1;
  EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  SdcProfile profile;
  profile.seed = 0xBAD;
  SdcCorruptor corr(profile);
  engine.set_post_op_hook(1, &corr);
  try {
    engine.run_steps(2);
    FAIL() << "corrupt worker went undetected";
  } catch (const core::IntegrityError& e) {
    EXPECT_EQ(e.worker(), 1);
    EXPECT_GE(e.est(), 0);
    EXPECT_GE(e.step(), 0);  // 0-based: the step that was in progress
  }
  EXPECT_GE(engine.witness_stats().mismatches, 1);
  EXPECT_EQ(engine.witness_stats().last_detected_worker, 1);
  EXPECT_GT(corr.ops_corrupted(), 0);
}

// ---------------------------------------------------------------------------
// Verified checkpoints: the .ok sidecar lifecycle.

TEST(CheckpointManagerVerify, SidecarLifecycle) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  engine.run_steps(2);
  const auto bytes = engine.checkpoint();
  const auto chain = engine.params_digest_chain();

  CheckpointManager mgr(temp_path("verify_lifecycle"), 3);
  mgr.clear();
  mgr.save(bytes);
  // A fresh generation is intact but UNBLESSED until re-read and checked.
  EXPECT_TRUE(mgr.load_latest(Trust::kIntact).has_value());
  EXPECT_FALSE(mgr.is_blessed(0));
  EXPECT_FALSE(mgr.load_latest(Trust::kBlessed).has_value());

  EXPECT_TRUE(mgr.bless_newest());
  EXPECT_TRUE(mgr.is_blessed(0));
  const auto verified = mgr.load_latest(Trust::kBlessed);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(verified->bytes, bytes);
  EXPECT_EQ(verified->image.chain, chain);  // the image's own chain
  mgr.clear();
}

TEST(CheckpointManagerVerify, UnverifiedNewestIsSkipped) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  engine.run_steps(2);
  const auto old_bytes = engine.checkpoint();

  CheckpointManager mgr(temp_path("verify_skip"), 3);
  mgr.clear();
  mgr.save(old_bytes);
  EXPECT_TRUE(mgr.bless_newest());

  engine.run_steps(2);
  mgr.save(engine.checkpoint());
  // The sidecar rotated along with its generation: gen 0 (newest) is
  // unblessed, gen 1 keeps its blessing.
  EXPECT_FALSE(mgr.is_blessed(0));
  EXPECT_TRUE(mgr.is_blessed(1));
  const auto verified = mgr.load_latest(Trust::kBlessed);
  ASSERT_TRUE(verified.has_value());
  EXPECT_EQ(verified->bytes, old_bytes);
  // A kIntact read still prefers the (well-formed) newest generation.
  EXPECT_NE(mgr.load_latest(Trust::kIntact).value().bytes, old_bytes);
  mgr.clear();
}

TEST(CheckpointManagerVerify, TamperedGenerationLosesVerification) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(2));
  engine.run_steps(2);

  CheckpointManager mgr(temp_path("verify_tamper"), 3);
  mgr.clear();
  mgr.save(engine.checkpoint());
  EXPECT_TRUE(mgr.bless_newest());
  EXPECT_TRUE(mgr.is_blessed(0));

  // Mangle the file AFTER verification: the stale sidecar must not vouch
  // for bytes it no longer matches.
  ASSERT_TRUE(FaultInjector::tear_file(mgr.path_for(0), 0x7EA2));
  EXPECT_FALSE(mgr.is_blessed(0));
  EXPECT_FALSE(mgr.bless_newest());
  EXPECT_FALSE(mgr.load_latest(Trust::kBlessed).has_value());
  mgr.clear();
}

// ---------------------------------------------------------------------------
// DDP cross-replica gradient-digest voting.

parallel::TrainerConfig ddp_config(std::int64_t world, std::int64_t logical) {
  parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = world;
  cfg.batch_per_worker = 4;
  cfg.seed = 42;
  cfg.logical_world = logical;
  return cfg;
}

TEST(DDPVote, RedundantGroupsMatchPlainDDPBitwise) {
  auto& wd = shared_data();
  parallel::Trainer voted(ddp_config(4, 2), *wd.train, wd.augment);
  voted.run_steps(3);
  // Physical ranks {0,2} replay logical 0 and {1,3} logical 1; the
  // published reduction must equal a clean 2-rank DDP run bit for bit.
  parallel::Trainer plain(ddp_config(2, 0), *wd.train, wd.augment);
  plain.run_steps(3);
  EXPECT_EQ(voted.params_digest(), plain.params_digest());

  const auto& report = voted.last_vote_report();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->corrupt_ranks.empty());
  EXPECT_GT(report->buckets_checked, 0);
}

/// The vote config with the pipelined flush on or off.  An overlapped
/// trainer runs its first (recording) step sequentially, so it runs that
/// step clean before the corruption is armed: the vote under test is then
/// the per-bucket one.
std::unique_ptr<parallel::Trainer> voting_trainer(std::int64_t world,
                                                  std::int64_t logical,
                                                  bool overlap) {
  auto& wd = shared_data();
  auto cfg = ddp_config(world, logical);
  cfg.overlap_comm = overlap;
  auto trainer =
      std::make_unique<parallel::Trainer>(cfg, *wd.train, wd.augment);
  if (overlap) trainer->run_steps(1);
  return trainer;
}

/// Whether a vote failure was raised by the overlapped per-bucket vote.
bool raised_by_overlapped_vote(const core::IntegrityError& e) {
  return std::string(e.what()).find("overlapped flush") != std::string::npos;
}

TEST(DDPVote, CorruptRankLosesTheVote) {
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapped" : "sequential");
    auto trainer = voting_trainer(3, 1, overlap);
    SdcProfile profile;
    profile.seed = 0xE51;  // arbitrary nonzero pattern seed
    SdcCorruptor corr(profile);
    trainer->set_post_op_hook(2, &corr);
    try {
      trainer->run_steps(1);
      FAIL() << "corrupt rank survived the vote";
    } catch (const core::IntegrityError& e) {
      EXPECT_EQ(e.worker(), 2);
      EXPECT_EQ(raised_by_overlapped_vote(e), overlap);
    }
    const auto& report = trainer->last_vote_report();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->corrupt_ranks, (std::vector<std::int64_t>{2}));
  }
}

TEST(DDPVote, TwoWaySplitDetectsWithoutAttribution) {
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapped" : "sequential");
    auto trainer = voting_trainer(2, 1, overlap);
    SdcProfile profile;
    profile.seed = 0x5117;
    SdcCorruptor corr(profile);
    trainer->set_post_op_hook(1, &corr);
    try {
      trainer->run_steps(1);
      FAIL() << "a 1-1 split passed the vote";
    } catch (const core::IntegrityError& e) {
      EXPECT_EQ(raised_by_overlapped_vote(e), overlap);
    }
    const auto& report = trainer->last_vote_report();
    ASSERT_TRUE(report.has_value());
    // A 1-1 split has no majority: both group members are reported.
    EXPECT_EQ(report->corrupt_ranks, (std::vector<std::int64_t>{0, 1}));
  }
}

TEST(DDPVote, DigestExchangeRidesTheCheckedTransport) {
  auto& wd = shared_data();
  auto cfg = ddp_config(4, 2);
  cfg.resilient_comm = true;
  parallel::Trainer voted(cfg, *wd.train, wd.augment);
  voted.run_steps(2);
  const auto& report = voted.last_vote_report();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->corrupt_ranks.empty());
  EXPECT_GT(report->digest_bytes_exchanged, 0);
  // Shipping digests over the fabric must not change what gets published.
  parallel::Trainer plain(ddp_config(2, 0), *wd.train, wd.augment);
  plain.run_steps(2);
  EXPECT_EQ(voted.params_digest(), plain.params_digest());
}

// ---------------------------------------------------------------------------
// Transport payload checksums (satellite: catching length-preserving
// corruption at delivery).

TEST(TransportPayload, IntactDeliveryPassesTheChecksum) {
  comm::SimTransport transport(2, comm::TransportConfig{});
  transport.begin_collective();
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  const auto d = transport.send_payload(0, 1, payload);
  EXPECT_EQ(d.status, comm::DeliveryStatus::kDelivered);
  EXPECT_EQ(d.bytes, payload);
}

TEST(TransportPayload, InFlightCorruptionIsCaughtAtDelivery) {
  comm::SimTransport transport(2, comm::TransportConfig{});
  comm::CommFaultEvent event;
  event.kind = comm::LinkFaultKind::kCorruptChunk;
  event.collective = -1;  // the next collective
  event.rank = 0;
  event.payload_seed = 0xC0DE;
  transport.inject(event);
  transport.begin_collective();
  const std::vector<std::uint8_t> payload(64, 0xA5);
  const auto corrupt = transport.send_payload(0, 1, payload);
  // The byte-flip is real and length-preserving; only the checksum
  // recomputed at delivery reveals it.
  EXPECT_EQ(corrupt.status, comm::DeliveryStatus::kCorrupt);
  EXPECT_EQ(corrupt.bytes.size(), payload.size());
  EXPECT_NE(corrupt.bytes, payload);
  // The event is spent: a retransmit within the same collective delivers.
  const auto retry = transport.send_payload(0, 1, payload);
  EXPECT_EQ(retry.status, comm::DeliveryStatus::kDelivered);
  EXPECT_EQ(retry.bytes, payload);
  EXPECT_EQ(transport.stats().corruptions, 1);
}

TEST(TransportPayload, DeadSenderTimesOutWithEmptyPayload) {
  comm::SimTransport transport(2, comm::TransportConfig{});
  transport.kill(0);
  transport.begin_collective();
  const auto d = transport.send_payload(0, 1, {9, 9, 9});
  EXPECT_EQ(d.status, comm::DeliveryStatus::kTimedOut);
  EXPECT_TRUE(d.bytes.empty());
}

// ---------------------------------------------------------------------------
// Scheduler quarantine: vacating a condemned device is bitwise neutral.

TEST(SchedQuarantine, RemapIsBitwiseNeutral) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(3));
  engine.run_steps(2);
  sched::IntraJobScheduler scheduler(engine, sched::Companion("NeuMF", 4),
                                     /*allow_heter=*/false);
  ASSERT_TRUE(scheduler.quarantine_worker(1));
  EXPECT_EQ(engine.num_workers(), 2);
  ASSERT_EQ(scheduler.quarantine_blocklist().size(), 1u);
  engine.run_steps(2);
  EXPECT_EQ(engine.params_digest(), fault_free_digest(3, 4));
}

TEST(SchedQuarantine, LastWorkerIsRefused) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(1));
  sched::IntraJobScheduler scheduler(engine, sched::Companion("NeuMF", 4),
                                     false);
  EXPECT_FALSE(scheduler.quarantine_worker(0));
  EXPECT_FALSE(scheduler.quarantine_worker(5));
  EXPECT_EQ(engine.num_workers(), 1);
  EXPECT_TRUE(scheduler.quarantine_blocklist().empty());
}

// ---------------------------------------------------------------------------
// End-to-end SDC defense: detect -> condemn -> quarantine -> walk back to
// the last VERIFIED checkpoint -> bitwise-equal finish.  The acceptance
// test of the whole subsystem.

std::vector<FaultEvent> sdc_events() {
  FaultEvent bitflip;
  bitflip.kind = FaultKind::kSdcBitFlip;
  bitflip.step = 3;
  bitflip.worker = 1;
  bitflip.payload_seed = 0xB17F11;
  FaultEvent perturb;
  perturb.kind = FaultKind::kSdcPerturb;
  perturb.step = 11;
  perturb.worker = 2;
  perturb.payload_seed = 0xD81F72;
  return {bitflip, perturb};
}

TEST(FaultSdcDefense, DetectQuarantineWalkBackEndsBitwiseEqual) {
  auto& wd = shared_data();
  const std::uint64_t clean = fault_free_digest(4, 24);
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("sdc_defense"), 4);
  mgr.clear();
  SupervisorConfig scfg;
  scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.sdc_defense = true;
  scfg.witness_every = 1;
  FaultSupervisor sup(engine, mgr, FaultInjector(sdc_events()), scfg);
  const auto stats = sup.run_to(24, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.sdc_events, 2);
  EXPECT_EQ(stats.sdc_detections, 2);
  EXPECT_EQ(stats.devices_quarantined, 2);
  EXPECT_EQ(sup.condemned_devices().size(), 2u);
  EXPECT_GE(stats.verified_checkpoints, 1);
  EXPECT_GT(stats.witness_replays, 0);
  EXPECT_GT(stats.witness_wall_s, 0.0);
  // With witness_every = 1 every corrupt step is caught before it can be
  // checkpointed: at most one in-flight step per detection rolls back.
  EXPECT_LE(stats.sdc_detect_latency_steps, 2);
  // The keystone: the SDC-recovered run is bitwise equal to a clean run.
  EXPECT_EQ(engine.params_digest(), clean);
  mgr.clear();
}

TEST(FaultSdcDefense, UndefendedRunIsSilentlyPoisoned) {
  auto& wd = shared_data();
  const std::uint64_t clean = fault_free_digest(4, 24);
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("sdc_undefended"), 4);
  mgr.clear();
  SupervisorConfig scfg;
  scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.sdc_defense = false;  // corruption still fires; nobody is watching
  FaultSupervisor sup(engine, mgr, FaultInjector(sdc_events()), scfg);
  const auto stats = sup.run_to(24, 4);
  EXPECT_FALSE(stats.failed);  // that is the problem: it "succeeds"
  EXPECT_EQ(stats.sdc_events, 2);
  EXPECT_EQ(stats.sdc_detections, 0);
  EXPECT_EQ(stats.devices_quarantined, 0);
  EXPECT_NE(engine.params_digest(), clean);
  mgr.clear();
}

TEST(FaultSdcDefense, QuarantineRoutesThroughTheScheduler) {
  auto& wd = shared_data();
  const std::uint64_t clean = fault_free_digest(4, 16);
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("sdc_sched"), 4);
  mgr.clear();
  sched::IntraJobScheduler scheduler(engine, sched::Companion("NeuMF", 4),
                                     false);
  SupervisorConfig scfg;
  scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
  scfg.checkpoint_every = 4;
  scfg.sdc_defense = true;
  scfg.witness_every = 1;
  FaultSupervisor sup(engine, mgr, FaultInjector({sdc_events()[0]}), scfg);
  sup.set_quarantine([&scheduler](std::int64_t slot) {
    return scheduler.quarantine_worker(slot);
  });
  const auto stats = sup.run_to(16, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.sdc_detections, 1);
  // The scheduler carried out the quarantine: the condemned device's spec
  // sits on its blocklist so it is never handed back.
  EXPECT_EQ(scheduler.quarantine_blocklist().size(), 1u);
  EXPECT_EQ(engine.params_digest(), clean);
  mgr.clear();
}

}  // namespace
}  // namespace easyscale
