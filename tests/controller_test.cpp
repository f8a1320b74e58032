// Replicated control plane: lease election, the deterministic decision
// log, majority commit, epoch fencing, and bitwise failover.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/lease.hpp"
#include "core/checkpoint_io.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "common/error.hpp"
#include "fault/controller.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"
#include "sched/intra_job.hpp"
#include "sim/failover_model.hpp"

namespace easyscale::fault {
namespace {

// --- Lease protocol -------------------------------------------------------

comm::LeaseService make_lease(int world) {
  return comm::LeaseService(world, comm::LeaseConfig{});
}

TEST(Lease, LowestRankWinsTheBootstrapElectionDeterministically) {
  auto lease = make_lease(5);
  const std::vector<std::uint8_t> alive(5, 1);
  const auto reach = [](int, int) { return true; };
  const auto st = lease.elect(0.0, alive, reach);
  EXPECT_EQ(st.holder, 0);  // rank tie-break: lowest live rank
  EXPECT_EQ(st.epoch, 1);
  EXPECT_GT(st.expires_s, 0.0);
}

TEST(Lease, DeadLowRanksCedeToTheLowestLiveCandidate) {
  auto lease = make_lease(5);
  std::vector<std::uint8_t> alive(5, 1);
  alive[0] = alive[1] = 0;
  const auto st = lease.elect(0.0, alive, [](int, int) { return true; });
  EXPECT_EQ(st.holder, 2);
}

TEST(Lease, NoQuorumMeansHonestVacancyNeverAMinorityLeader) {
  auto lease = make_lease(5);
  std::vector<std::uint8_t> alive(5, 0);
  alive[0] = alive[1] = 1;  // 2 of 5 < quorum 3
  const auto st = lease.elect(0.0, alive, [](int, int) { return true; });
  EXPECT_EQ(st.holder, -1);
}

TEST(Lease, RenewExtendsWhileQuorumHoldsAndVacatesWhenItBreaks) {
  auto lease = make_lease(3);
  const std::vector<std::uint8_t> all(3, 1);
  const auto reach = [](int, int) { return true; };
  ASSERT_EQ(lease.elect(0.0, all, reach).holder, 0);
  const double before = lease.state().expires_s;
  EXPECT_TRUE(lease.renew(0.5, all, reach));
  EXPECT_GT(lease.state().expires_s, before);
  // Holder partitioned alone: renewal fails and the lease is vacated.
  EXPECT_FALSE(lease.renew(1.0, all, [](int a, int b) { return a == b; }));
  EXPECT_EQ(lease.state().holder, -1);
}

TEST(Lease, ReElectionAfterVacancyBumpsTheEpoch) {
  auto lease = make_lease(3);
  std::vector<std::uint8_t> alive(3, 1);
  const auto reach = [](int, int) { return true; };
  ASSERT_EQ(lease.elect(0.0, alive, reach).epoch, 1);
  lease.vacate();
  alive[0] = 0;
  const auto st = lease.elect(5.0, alive, reach);
  EXPECT_EQ(st.holder, 1);
  EXPECT_EQ(st.epoch, 2);  // max visible promise + 1: fences the old epoch
}

// --- Decision records and the log ----------------------------------------

TEST(DecisionLog, RecordRoundTripsThroughTheFixedWireFormat) {
  DecisionLog log;
  const auto& rec = log.append_new(/*epoch=*/3, /*seq=*/7,
                                   DecisionKind::kQuarantine, /*step=*/12,
                                   /*arg0=*/5, /*arg1=*/1, /*arg2=*/-0);
  const auto wire = rec.serialize();
  ASSERT_EQ(wire.size(), DecisionRecord::kWireBytes);
  const auto back = DecisionRecord::parse(wire);
  EXPECT_EQ(back, rec);
  EXPECT_EQ(back.content_digest(), rec.payload_digest);
}

TEST(DecisionLog, AppendRejectsNonDenseEpochRegressedAndBrokenChain) {
  DecisionLog log;
  log.append_new(1, 0, DecisionKind::kMembershipEpoch, 0, 4);
  log.append_new(1, 1, DecisionKind::kBlessCheckpoint, 0);

  DecisionRecord dup = log.records()[1];  // duplicated index
  EXPECT_THROW(log.append(dup), Error);

  DecisionRecord regressed = log.records()[1];
  regressed.index = 2;
  regressed.epoch = 0;  // below last_epoch() == 1
  regressed.chain = regressed.link_after(log.tail());
  EXPECT_THROW(log.append(regressed), Error);

  DecisionRecord broken = log.records()[1];
  broken.index = 2;
  broken.chain = 0xDEADBEEF;  // not link_after(tail)
  EXPECT_THROW(log.append(broken), Error);
}

TEST(DecisionLog, LogRoundTripsAndContentTailIgnoresEpochs) {
  DecisionLog a;
  a.append_new(1, 0, DecisionKind::kMembershipEpoch, 0, 4);
  a.append_new(1, 1, DecisionKind::kBlessCheckpoint, 4);
  const auto back = DecisionLog::parse(a.serialize());
  EXPECT_EQ(back.tail(), a.tail());
  EXPECT_EQ(back.size(), a.size());

  // Same decisions committed under a different failover history (epochs
  // 2 and 5): the chain tails differ, the content tails match.
  DecisionLog b;
  b.append_new(2, 0, DecisionKind::kMembershipEpoch, 0, 4);
  b.append_new(5, 1, DecisionKind::kBlessCheckpoint, 4);
  EXPECT_NE(b.tail(), a.tail());
  EXPECT_EQ(b.content_tail(), a.content_tail());
}

// --- ControlPlane commit, failover, fencing, unavailability ---------------

ControllerConfig small_plane(int replicas = 3) {
  ControllerConfig cfg;
  cfg.replicas = replicas;
  return cfg;
}

TEST(ControlPlane, CommitsOnMajorityAndReplicatesToEveryLiveReplica) {
  ControlPlane cp(small_plane());
  const auto rec = cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  EXPECT_EQ(rec.index, 0);
  EXPECT_EQ(cp.leader(), 0);
  EXPECT_EQ(cp.epoch(), 1);
  cp.propose(DecisionKind::kBlessCheckpoint, 0);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cp.replica_log(r).size(), 2u) << "replica " << r;
    EXPECT_EQ(cp.replica_log(r).tail(), cp.log().tail()) << "replica " << r;
  }
  EXPECT_EQ(cp.stats().decisions_committed, 2);
  EXPECT_EQ(cp.stats().failovers, 0);
}

TEST(ControlPlane, LeaderCrashFailsOverAndTheLogContinuesBitwise) {
  // Reference: the same decision stream with no controller faults.
  ControlPlane clean(small_plane());
  clean.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  clean.propose(DecisionKind::kBlessCheckpoint, 0);
  clean.propose(DecisionKind::kBlessCheckpoint, 4);

  ControlPlane cp(small_plane());
  cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  cp.propose(DecisionKind::kBlessCheckpoint, 0);
  cp.crash_replica(0);  // the leader dies
  const auto rec = cp.propose(DecisionKind::kBlessCheckpoint, 4);
  EXPECT_EQ(cp.leader(), 1);  // next-lowest live rank won the lease
  EXPECT_GE(cp.epoch(), 2);
  EXPECT_EQ(cp.stats().failovers, 1);
  EXPECT_GT(cp.stats().last_failover_s, 0.0);
  EXPECT_EQ(rec.index, 2);
  // The decision stream matches the clean run bit for bit (content view;
  // the chain differs only through the bumped fencing epoch).
  EXPECT_EQ(cp.log().content_tail(), clean.log().content_tail());
  EXPECT_EQ(cp.log().size(), clean.log().size());
}

TEST(ControlPlane, StaleEpochWritesAreFencedOut) {
  ControlPlane cp(small_plane());
  cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  cp.crash_replica(0);
  cp.propose(DecisionKind::kBlessCheckpoint, 0);  // epoch now >= 2
  // A record stamped with the deposed epoch 1 arrives at a replica that
  // promised a newer epoch: rejected, counted, never appended.
  DecisionRecord stale;
  stale.index = static_cast<std::int64_t>(cp.replica_log(2).size());
  stale.epoch = 1;
  stale.seq = 99;
  stale.kind = DecisionKind::kReshard;
  stale.payload_digest = stale.content_digest();
  stale.chain = stale.link_after(cp.replica_log(2).tail());
  const auto before = cp.stats().stale_rejections;
  EXPECT_FALSE(cp.offer_to_replica(2, stale));
  EXPECT_EQ(cp.stats().stale_rejections, before + 1);
  EXPECT_EQ(cp.replica_log(2).records().back().kind,
            DecisionKind::kBlessCheckpoint);
}

TEST(ControlPlane, PartitionStallsButNeverForksTheLog) {
  ControllerConfig cfg = small_plane(5);
  ControlPlane cp(cfg);
  cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  cp.partition(0xFEED);
  // The majority side still commits (possibly after a failover if the
  // leader was isolated); no exception, one linear history.
  const auto rec = cp.propose(DecisionKind::kBlessCheckpoint, 0);
  EXPECT_EQ(rec.index, 1);
  EXPECT_EQ(cp.stats().partitions, 1);
  cp.heal_partitions();
  cp.propose(DecisionKind::kBlessCheckpoint, 4);
  for (int r = 0; r < 5; ++r) {
    const auto& log = cp.replica_log(r);
    // Every replica's log is a prefix of the leader's — never a fork.
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log.records()[i], cp.log().records()[i])
          << "replica " << r << " index " << i;
    }
  }
}

TEST(ControlPlane, MoreThanFFailuresRaisesHonestUnavailability) {
  ControlPlane cp(small_plane());
  cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  cp.crash_replica(1);
  cp.crash_replica(2);  // f+1 = 2 of 3 dead: no quorum anywhere
  EXPECT_FALSE(cp.available());
  try {
    cp.propose(DecisionKind::kBlessCheckpoint, 0);
    FAIL() << "expected ControllerUnavailableError";
  } catch (const ControllerUnavailableError& e) {
    EXPECT_NE(std::string(e.what()).find("no quorum"), std::string::npos);
  }
}

// --- Checkpoint fencing ---------------------------------------------------

TEST(ControllerFence, CheckpointManagerRejectsDeposedWriters) {
  core::CheckpointManager mgr(
      std::string(::testing::TempDir()) + "/ctrl_fence", 2);
  mgr.clear();
  const auto bytes = core::serialize_image(
      {}, {}, [](ByteWriter& w) { w.write<std::uint32_t>(0x04030201u); });
  mgr.save(bytes, /*fence=*/2);
  EXPECT_EQ(mgr.fence_epoch(), 2);
  ASSERT_TRUE(mgr.bless_newest(2));
  // A deposed leader (epoch 1) can neither write, bless nor drive a
  // restore at either trust level.
  EXPECT_THROW(mgr.save(bytes, 1), Error);
  EXPECT_THROW((void)mgr.bless_newest(1), Error);
  EXPECT_THROW((void)mgr.load_latest(core::Trust::kIntact, 1), Error);
  EXPECT_THROW((void)mgr.load_latest(core::Trust::kBlessed, 1), Error);
  // The current epoch passes every one.
  EXPECT_TRUE(mgr.load_latest(core::Trust::kIntact, 2).has_value());
  EXPECT_TRUE(mgr.load_latest(core::Trust::kBlessed, 2).has_value());
  mgr.save(bytes, 3);
  EXPECT_EQ(mgr.fence_epoch(), 3);
  mgr.clear();
}

// --- Scheduler quarantine feed through the log ----------------------------

TEST(ControllerSched, QuarantineDecisionsApplyExactlyOnceViaTheCursor) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleConfig ecfg;
  ecfg.workload = "NeuMF";
  ecfg.num_ests = 4;
  ecfg.batch_per_est = 4;
  ecfg.seed = 7;
  core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(4));
  sched::IntraJobScheduler sched(engine, sched::Companion("NeuMF", 4),
                                 /*allow_heter=*/false);

  DecisionLog log;
  log.append_new(1, 0, DecisionKind::kMembershipEpoch, 0, 4);
  log.append_new(1, 1, DecisionKind::kQuarantine, 2, /*device=*/3,
                 /*slot=*/3);
  EXPECT_EQ(sched.apply_quarantine_decisions(log), 1);
  EXPECT_EQ(engine.num_workers(), 3);
  EXPECT_EQ(sched.quarantine_blocklist().size(), 1u);
  // Replaying the SAME log (a follower that just took over re-applies its
  // committed history) vacates nothing twice.
  EXPECT_EQ(sched.apply_quarantine_decisions(log), 0);
  EXPECT_EQ(engine.num_workers(), 3);
  // A later entry past the cursor still applies.
  log.append_new(1, 2, DecisionKind::kQuarantine, 4, /*device=*/1,
                 /*slot=*/1);
  EXPECT_EQ(sched.apply_quarantine_decisions(log), 1);
  EXPECT_EQ(engine.num_workers(), 2);
  EXPECT_EQ(sched.quarantine_log_cursor(), 3);
}

// --- Failover-latency model ----------------------------------------------

TEST(ControllerModel, FailoverDecomposesAndDetectionIsTheFloor) {
  sim::FailoverModelConfig mcfg;
  mcfg.replicas = 3;
  mcfg.log_entries = 10;
  const auto m = sim::model_failover(mcfg);
  EXPECT_NEAR(m.total_s,
              m.detect_s + m.lease_wait_s + m.election_s + m.sync_s, 1e-12);
  EXPECT_GT(m.detect_s, 0.0);
  EXPECT_GT(m.commit_round_s, 0.0);
  EXPECT_GT(m.decisions_per_second(), 0.0);

  // The measured failover of a real ControlPlane can never beat the
  // model's detection floor.
  ControlPlane cp(small_plane());
  cp.propose(DecisionKind::kMembershipEpoch, 0, 4, -1, 0);
  cp.crash_replica(0);
  cp.propose(DecisionKind::kBlessCheckpoint, 0);
  ASSERT_EQ(cp.stats().failovers, 1);
  EXPECT_GE(cp.stats().last_failover_s, m.detect_s);

  // More log to sync, longer modelled failover.
  sim::FailoverModelConfig big = mcfg;
  big.log_entries = 10000;
  EXPECT_GT(sim::model_failover(big).sync_s, m.sync_s);
}

// --- Supervised runs: bitwise failover ------------------------------------

TEST(ControllerSupervisor, FailoverKeepsTrainingBitwiseEqual) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 21);
  core::EasyScaleConfig ecfg;
  ecfg.workload = "NeuMF";
  ecfg.num_ests = 4;
  ecfg.batch_per_est = 4;
  ecfg.seed = 21;
  constexpr std::int64_t kSteps = 8;

  // Training faults only, identical in both runs.
  FaultPlanConfig pcfg;
  pcfg.seed = 0xC0117;
  pcfg.horizon_steps = kSteps;
  pcfg.num_workers = 3;
  pcfg.crash_rate = 0.15;

  const auto run = [&](const std::vector<FaultEvent>& controller_events,
                       GoodputStats* out) {
    auto events = FaultInjector::from_config(pcfg).schedule();
    events.insert(events.end(), controller_events.begin(),
                  controller_events.end());
    core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
    core::CheckpointManager mgr(std::string(::testing::TempDir()) +
                                    "/ctrl_failover",
                                4);
    mgr.clear();
    SupervisorConfig scfg;
    scfg.controller_replicas = 5;  // f = 2
    FaultSupervisor sup(engine, mgr, FaultInjector(std::move(events)), scfg);
    *out = sup.run_to(kSteps, 3);
    const std::uint64_t digest = engine.params_digest();
    const std::uint64_t decisions = sup.control_plane()->log().content_tail();
    mgr.clear();
    return std::make_pair(digest, decisions);
  };

  GoodputStats quiet_stats;
  const auto quiet = run({}, &quiet_stats);
  ASSERT_FALSE(quiet_stats.failed);
  EXPECT_GT(quiet_stats.controller_decisions, 0);
  EXPECT_EQ(quiet_stats.controller_failovers, 0);

  // Storm bounded by f: exactly 2 replica crashes among 2f+1 = 5, one of
  // them the bootstrap leader (rank 0), composed with two partitions.
  const std::vector<FaultEvent> storm = {
      FaultEvent{.kind = FaultKind::kControllerPartition,
                 .step = 1,
                 .payload_seed = 0x51D5u},
      FaultEvent{.kind = FaultKind::kControllerCrash, .step = 2, .worker = 0},
      FaultEvent{.kind = FaultKind::kControllerPartition,
                 .step = 4,
                 .payload_seed = 0xA11Cu},
      FaultEvent{.kind = FaultKind::kControllerCrash, .step = 5, .worker = 3},
  };
  GoodputStats stormy_stats;
  const auto stormy = run(storm, &stormy_stats);
  ASSERT_FALSE(stormy_stats.failed);
  EXPECT_EQ(stormy_stats.controller_crashes, 2);
  EXPECT_EQ(stormy_stats.controller_partitions, 2);
  EXPECT_GT(stormy_stats.controller_failovers, 0)
      << "killing the bootstrap leader must force a real failover";

  // Same params bits, same decision stream — failovers are invisible to
  // training.
  EXPECT_EQ(stormy.first, quiet.first);
  EXPECT_EQ(stormy.second, quiet.second);
}

// SDC defense under the control plane: the blessed-trust walk-back reads
// behind the leader's fence.  The adversary tears the newest (blessed)
// generation, then a device turns silently corrupt; the witness detection
// must skip the torn file — or restore a committed peer epoch when peers
// are on — and still finish bitwise equal to the fault-free run.
class ControllerSdc : public ::testing::TestWithParam<int> {};

TEST_P(ControllerSdc, TornNewestGenerationWalksBackToBlessedBitwise) {
  const int peer_replicas = GetParam();
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  core::EasyScaleConfig ecfg;
  ecfg.workload = "NeuMF";
  ecfg.num_ests = 4;
  ecfg.batch_per_est = 4;
  ecfg.seed = 42;
  constexpr std::int64_t kSteps = 16;
  core::EasyScaleEngine ref(ecfg, *wd.train, wd.augment);
  ref.configure_workers(std::vector<core::WorkerSpec>(4));
  ref.run_steps(kSteps);

  // Both fire at step 9: the step-8 generation is torn, then device 1
  // turns corrupt and the witness catches it on the next step.
  const std::vector<FaultEvent> events = {
      FaultEvent{.kind = FaultKind::kTornCheckpoint,
                 .step = 9,
                 .payload_seed = 0x7EA2u},
      FaultEvent{.kind = FaultKind::kSdcBitFlip,
                 .step = 9,
                 .worker = 1,
                 .payload_seed = 0xB17F11u},
  };
  core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
  core::CheckpointManager mgr(std::string(::testing::TempDir()) +
                                  "/ctrl_sdc_" + std::to_string(peer_replicas),
                              4);
  mgr.clear();
  SupervisorConfig scfg;
  scfg.checkpoint_every = 4;
  scfg.sdc_defense = true;
  scfg.witness_every = 1;
  scfg.peer_replicas = peer_replicas;
  scfg.controller_replicas = 3;
  FaultSupervisor sup(engine, mgr, FaultInjector(events), scfg);
  const auto stats = sup.run_to(kSteps, 4);
  ASSERT_FALSE(stats.failed);
  EXPECT_EQ(stats.sdc_detections, 1);
  EXPECT_GT(stats.controller_decisions, 0);
  EXPECT_GT(mgr.fence_epoch(), 0) << "saves must carry the leader's epoch";
  if (peer_replicas == 0) {
    // The torn step-8 generation is skipped; the walk-back lands on the
    // blessed step-4 generation.
    EXPECT_EQ(stats.disk_recoveries, 1);
    EXPECT_EQ(stats.lost_steps, 5);
  } else {
    EXPECT_EQ(stats.peer_recoveries, 1);
    EXPECT_EQ(stats.disk_recoveries, 0);
  }
  EXPECT_EQ(engine.params_digest(), ref.params_digest());
  mgr.clear();
}

INSTANTIATE_TEST_SUITE_P(PeerReplicas, ControllerSdc, ::testing::Values(0, 2));

TEST(ControllerSupervisor, ControllerFaultStreamLeavesExistingSchedulesAlone) {
  // The controller fault kinds draw from a FRESH salted Philox stream:
  // enabling them must not perturb any other family's schedule.
  FaultPlanConfig base;
  base.seed = 0xABCDE;
  base.horizon_steps = 32;
  base.crash_rate = 0.1;
  base.revocation_rate = 0.1;
  base.sdc_bitflip_rate = 0.05;
  base.peer_replica_loss_rate = 0.1;
  FaultPlanConfig with_ctrl = base;
  with_ctrl.controller_crash_rate = 0.3;
  with_ctrl.controller_partition_rate = 0.3;
  const auto a = FaultInjector::from_config(base).schedule();
  const auto b = FaultInjector::from_config(with_ctrl).schedule();
  std::vector<FaultEvent> b_other;
  std::size_t b_ctrl = 0;
  for (const auto& e : b) {
    if (e.kind == FaultKind::kControllerCrash ||
        e.kind == FaultKind::kControllerPartition) {
      ++b_ctrl;
    } else {
      b_other.push_back(e);
    }
  }
  EXPECT_GT(b_ctrl, 0u);
  EXPECT_EQ(b_other, a);
}

TEST(ControllerSupervisor, QuorumLossReportsHonestUnavailability) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 33);
  core::EasyScaleConfig ecfg;
  ecfg.workload = "NeuMF";
  ecfg.num_ests = 4;
  ecfg.batch_per_est = 4;
  ecfg.seed = 33;
  core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
  core::CheckpointManager mgr(
      std::string(::testing::TempDir()) + "/ctrl_unavail", 4);
  mgr.clear();
  // A certain schedule: two controller crashes among 3 replicas (f = 1).
  FaultInjector inj(
      {FaultEvent{.kind = FaultKind::kControllerCrash, .step = 2, .worker = 0},
       FaultEvent{.kind = FaultKind::kControllerCrash, .step = 2,
                  .worker = 1}});
  SupervisorConfig scfg;
  scfg.controller_replicas = 3;
  FaultSupervisor sup(engine, mgr, std::move(inj), scfg);
  const auto stats = sup.run_to(8, 2);
  EXPECT_TRUE(stats.controller_unavailable);
  EXPECT_TRUE(stats.failed);
  EXPECT_LT(stats.steps_completed, 8);
  EXPECT_FALSE(sup.control_plane()->available());
  mgr.clear();
}

}  // namespace
}  // namespace easyscale::fault
