// Fault injection & recovery (§2.1): deterministic fault schedules, the
// supervisor's checkpoint-walk recovery, and the keystone property — a D1
// run that survives injected crashes, revocations and torn checkpoints is
// BITWISE identical to an undisturbed run.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/checkpoint_io.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"

namespace easyscale::fault {
namespace {

using core::CheckpointManager;
using core::EasyScaleConfig;
using core::EasyScaleEngine;
using core::WorkerSpec;

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

TEST(FaultInjector, ScheduleIsDeterministicForSeed) {
  FaultPlanConfig cfg;
  cfg.seed = 99;
  cfg.horizon_steps = 200;
  cfg.crash_rate = 0.05;
  cfg.revocation_rate = 0.05;
  cfg.straggler_rate = 0.1;
  cfg.torn_checkpoint_rate = 0.02;
  cfg.comm_drop_rate = 0.03;
  const auto a = FaultInjector::from_config(cfg);
  const auto b = FaultInjector::from_config(cfg);
  ASSERT_FALSE(a.schedule().empty());
  EXPECT_EQ(a.schedule(), b.schedule());
  EXPECT_EQ(a.schedule_digest(), b.schedule_digest());

  cfg.seed = 100;
  const auto c = FaultInjector::from_config(cfg);
  EXPECT_NE(a.schedule_digest(), c.schedule_digest());
}

TEST(FaultInjector, RatesShapeTheSchedule) {
  FaultPlanConfig cfg;
  cfg.horizon_steps = 500;
  cfg.crash_rate = 0.2;
  const auto inj = FaultInjector::from_config(cfg);
  // Only crashes were enabled, victims stay in range, steps in horizon.
  EXPECT_GT(inj.schedule().size(), 50u);
  EXPECT_LT(inj.schedule().size(), 200u);
  for (const auto& e : inj.schedule()) {
    EXPECT_EQ(e.kind, FaultKind::kWorkerCrash);
    EXPECT_GE(e.step, 1);
    EXPECT_LT(e.step, cfg.horizon_steps);
    EXPECT_GE(e.worker, 0);
    EXPECT_LT(e.worker, cfg.num_workers);
  }
}

TEST(FaultInjector, EventsFireExactlyOnceAcrossRollbacks) {
  FaultInjector inj({{FaultKind::kWorkerCrash, 3, 0, 0, 1.0, 0},
                     {FaultKind::kStraggler, 3, 1, 0, 2.0, 0},
                     {FaultKind::kCommDrop, 5, 0, 0, 1.0, 0}});
  EXPECT_TRUE(inj.take_due(2).empty());
  EXPECT_EQ(inj.take_due(3).size(), 2u);
  // A recovery rolled the step counter back: already-fired events at
  // step 3 must NOT re-fire during the replay.
  EXPECT_TRUE(inj.take_due(1).empty());
  EXPECT_TRUE(inj.take_due(3).empty());
  EXPECT_TRUE(inj.take_due(4).empty());
  EXPECT_EQ(inj.take_due(5).size(), 1u);
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(inj.fired().size(), 3u);
}

TEST(FaultInjector, TearBytesIsDeterministicAndDamaging) {
  const std::vector<std::uint8_t> original(512, 0x5A);
  auto a = original;
  auto b = original;
  FaultInjector::tear_bytes(a, 777);
  FaultInjector::tear_bytes(b, 777);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, original);
  EXPECT_LE(a.size(), original.size());
  auto c = original;
  FaultInjector::tear_bytes(c, 778);
  EXPECT_NE(a, c);
}

TEST(FaultInjector, TearFileInvalidatesFramedCheckpoint) {
  const auto path = temp_path("tear_me.ckpt");
  core::save_checkpoint_file(
      path, core::serialize_image({}, {}, [](ByteWriter& w) {
        for (int i = 0; i < 256; ++i) w.write<std::uint8_t>(3);
      }));
  EXPECT_NO_THROW((void)core::parse_image(core::load_checkpoint_file(path),
                                          path));
  ASSERT_TRUE(FaultInjector::tear_file(path, 41));
  EXPECT_THROW(
      (void)core::parse_image(core::load_checkpoint_file(path), path), Error);
  std::remove(path.c_str());
  EXPECT_FALSE(FaultInjector::tear_file(path, 41));  // missing: no-op
}

// ---------------------------------------------------------------------------
// Supervisor recovery
// ---------------------------------------------------------------------------

/// The keystone test: a D1 run hit by a crash, a revocation, a torn
/// checkpoint, a dropped comm participant and a straggler recovers
/// automatically and ends bitwise identical to the undisturbed run.
TEST(FaultSupervisor, BitwiseResumptionUnderMixedFaults) {
  constexpr std::int64_t kSteps = 16;
  const std::uint64_t clean = fault_free_digest(4, kSteps);

  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("keystone"), 3);
  mgr.clear();
  FaultInjector injector({
      {FaultKind::kGpuRevocation, 2, 3, 30.0, 1.0, 0},
      {FaultKind::kTornCheckpoint, 4, 0, 0.0, 1.0, 0xBEEF},
      {FaultKind::kWorkerCrash, 5, 1, 0.0, 1.0, 0},
      {FaultKind::kCommDrop, 9, 0, 0.0, 1.0, 0},
      {FaultKind::kStraggler, 11, 2, 0.0, 3.0, 0},
  });
  SupervisorConfig cfg;
  cfg.checkpoint_every = 3;
  cfg.regrow_after_clean_steps = 4;
  FaultSupervisor sup(engine, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);

  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.steps_completed, kSteps);
  EXPECT_EQ(stats.faults_seen, 5);
  EXPECT_GE(stats.recoveries, 2);       // crash + comm drop roll back
  EXPECT_GE(stats.scale_ins, 1);        // the graceful revocation
  EXPECT_GE(stats.lost_steps, 1);       // crash happened between checkpoints
  EXPECT_GT(stats.steps_executed, kSteps);  // replayed steps
  EXPECT_EQ(engine.params_digest(), clean)
      << "recovered run diverged bitwise from the fault-free run";
  mgr.clear();
}

/// Satellite: crash at step k under a 4-worker mapping, recover onto 2
/// workers; the final digest matches BOTH fault-free mappings (which are
/// themselves bitwise equal at D1).
TEST(FaultSupervisor, RecoveryEquivalenceAcrossMappings) {
  constexpr std::int64_t kSteps = 10;
  constexpr std::int64_t kCrashStep = 6;
  const std::uint64_t clean4 = fault_free_digest(4, kSteps);
  const std::uint64_t clean2 = fault_free_digest(2, kSteps);
  ASSERT_EQ(clean4, clean2) << "D1 must be mapping-independent";

  auto& wd = shared_data();
  CheckpointManager mgr(temp_path("remap"), 2);
  mgr.clear();
  {
    EasyScaleEngine victim(small_config(), *wd.train, wd.augment);
    victim.configure_workers(std::vector<WorkerSpec>(4));
    victim.run_steps(kCrashStep);
    mgr.save(victim.checkpoint());
    // victim crashes here; its remaining in-memory progress is gone
  }
  EasyScaleEngine revived(small_config(), *wd.train, wd.augment);
  revived.configure_workers(std::vector<WorkerSpec>(2));  // survivors
  const auto loaded = mgr.load_latest(core::Trust::kIntact);
  ASSERT_TRUE(loaded.has_value());
  revived.restore(loaded->bytes);
  EXPECT_EQ(revived.global_step(), kCrashStep);
  revived.run_steps(kSteps - kCrashStep);
  EXPECT_EQ(revived.params_digest(), clean4);
  EXPECT_EQ(revived.params_digest(), clean2);
  mgr.clear();
}

TEST(FaultSupervisor, SupervisedRunIsFullyDeterministic) {
  constexpr std::int64_t kSteps = 12;
  FaultPlanConfig pcfg;
  pcfg.seed = 7;
  pcfg.horizon_steps = kSteps;
  pcfg.crash_rate = 0.15;
  pcfg.revocation_rate = 0.1;
  pcfg.torn_checkpoint_rate = 0.05;

  auto run_once = [&](const char* tag) {
    auto& wd = shared_data();
    EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
    CheckpointManager mgr(temp_path(tag), 3);
    mgr.clear();
    FaultSupervisor sup(engine, mgr, FaultInjector::from_config(pcfg),
                        SupervisorConfig{});
    sup.run_to(kSteps, 4);
    mgr.clear();
    return std::pair{engine.params_digest(), sup.injector().fired()};
  };
  const auto [digest_a, fired_a] = run_once("det_a");
  const auto [digest_b, fired_b] = run_once("det_b");
  EXPECT_EQ(digest_a, digest_b);
  EXPECT_EQ(fired_a, fired_b) << "fault event log must be reproducible";
  EXPECT_EQ(digest_a, fault_free_digest(4, kSteps));
}

TEST(FaultSupervisor, TornNewestGenerationFallsBackOneInterval) {
  // Tear the newest generation right before a crash: recovery must walk
  // back to the previous valid generation (losing one extra interval) and
  // still end bitwise clean.
  constexpr std::int64_t kSteps = 12;
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("walkback"), 3);
  mgr.clear();
  FaultInjector injector({
      {FaultKind::kTornCheckpoint, 7, 0, 0.0, 1.0, 0xD1E},
      {FaultKind::kWorkerCrash, 7, 0, 0.0, 1.0, 0},
  });
  SupervisorConfig cfg;
  cfg.checkpoint_every = 3;  // generations at steps 3 and 6 when hit
  FaultSupervisor sup(engine, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 2);
  EXPECT_FALSE(stats.failed);
  // Torn gen 0 held step 6; the walk-back landed on step 3: 7-3=4 lost.
  EXPECT_GE(stats.lost_steps, 4);
  EXPECT_EQ(engine.params_digest(), fault_free_digest(2, kSteps));
  mgr.clear();
}

// A supervised save writes the engine's image verbatim: generation 0 is the
// bytes a fresh checkpoint() takes, its chain is the freshly hashed
// parameter chain, and the blessing sidecar is the image's own trailer.
TEST(FaultSupervisor, SupervisedSaveMatchesFreshlyHashedChainFile) {
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("sup_save"), 3);
  mgr.clear();
  SupervisorConfig cfg;
  cfg.checkpoint_every = 2;
  cfg.sdc_defense = true;  // every generation is witness-certified, blessed
  FaultSupervisor sup(engine, mgr, FaultInjector(), cfg);
  const auto stats = sup.run_to(4, 2);  // generations at steps 0, 2 and 4
  ASSERT_FALSE(stats.failed);
  ASSERT_EQ(engine.global_step(), 4);
  const auto image = engine.checkpoint();
  const auto got = core::load_checkpoint_file(mgr.path_for(0));
  EXPECT_EQ(got, image);
  const core::CheckpointImage parsed = core::parse_image(got, "generation 0");
  EXPECT_EQ(parsed.chain, engine.params_digest_chain());
  ASSERT_TRUE(mgr.is_blessed(0));
  std::FILE* f = std::fopen((mgr.path_for(0) + ".ok").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char sidecar[32] = {};
  const std::size_t n = std::fread(sidecar, 1, sizeof(sidecar), f);
  std::fclose(f);
  char trailer[17];
  std::snprintf(trailer, sizeof(trailer), "%016llx",
                static_cast<unsigned long long>(parsed.digest));
  EXPECT_EQ(std::string(sidecar, n), std::string(trailer));
  mgr.clear();
}

// The supervisor drives any parallel::Trainer: a ZeRO-1 job (optimizer
// state sharded four ways) restarts through a crash and a comm rank death
// and ends on the chain of the unsharded fault-free run.
TEST(FaultSupervisor, Zero1GangRestartEndsOnUnshardedChain) {
  constexpr std::int64_t kSteps = 16;
  auto& wd = shared_data();
  const std::vector<WorkerSpec> four(4);
  parallel::TrainerConfig tcfg = core::trainer_config(small_config());
  parallel::Trainer clean(tcfg, *wd.train, wd.augment, four);
  clean.run_steps(kSteps);

  tcfg.shard_degree = 4;
  parallel::Trainer trainer(tcfg, *wd.train, wd.augment, four);
  CheckpointManager mgr(temp_path("zero1_gang"), 3);
  mgr.clear();
  FaultInjector injector({
      {.kind = FaultKind::kWorkerCrash, .step = 5, .worker = 1},
      {.kind = FaultKind::kCommRankDeath, .step = 11, .worker = 2},
  });
  SupervisorConfig cfg;
  cfg.policy = RecoveryPolicy::kGangRestart;
  cfg.checkpoint_every = 4;
  FaultSupervisor sup(trainer, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.recoveries, 2);
  EXPECT_EQ(stats.lost_steps, 4);  // steps 5 and 11 roll back to 4 and 8
  EXPECT_EQ(trainer.shard_degree(), 4);
  EXPECT_EQ(trainer.params_digest_chain(), clean.params_digest_chain());
  mgr.clear();
}

// A trainer the supervisor finds already packed on its initial workers is
// not repacked: its workers (warm scratch arenas) and its fabric (counters)
// carry into the run unchanged.
TEST(FaultSupervisor, BuiltTrainerIsNotRepackedAtTheStart) {
  auto& wd = shared_data();
  parallel::TrainerConfig tcfg = core::trainer_config(small_config());
  tcfg.resilient_comm = true;
  parallel::Trainer trainer(tcfg, *wd.train, wd.augment,
                            std::vector<WorkerSpec>(4));
  trainer.run_steps(2);
  const std::size_t warm = trainer.worker_exec(0).scratch.reserved_bytes();
  const std::int64_t collectives = trainer.transport_stats().collectives;
  ASSERT_GT(warm, 0u);
  ASSERT_GT(collectives, 0);
  CheckpointManager mgr(temp_path("built_trainer"), 3);
  mgr.clear();
  FaultSupervisor sup(trainer, mgr, FaultInjector(), SupervisorConfig{});
  ASSERT_FALSE(sup.run_to(2, 4).failed);
  EXPECT_EQ(trainer.worker_exec(0).scratch.reserved_bytes(), warm);
  EXPECT_EQ(trainer.transport_stats().collectives, collectives);
  mgr.clear();
}

// The same ZeRO-1 job with peer-replicated snapshots: a replica loss thins
// one store, and the crash after it still recovers from the peer quorum.
TEST(FaultSupervisor, Zero1PeerRecoverySurvivesReplicaLoss) {
  constexpr std::int64_t kSteps = 12;
  auto& wd = shared_data();
  const std::vector<WorkerSpec> four(4);
  parallel::TrainerConfig tcfg = core::trainer_config(small_config());
  parallel::Trainer clean(tcfg, *wd.train, wd.augment, four);
  clean.run_steps(kSteps);

  tcfg.shard_degree = 4;
  parallel::Trainer trainer(tcfg, *wd.train, wd.augment, four);
  CheckpointManager mgr(temp_path("zero1_peer"), 3);
  mgr.clear();
  FaultInjector injector({
      {.kind = FaultKind::kPeerReplicaLoss, .step = 6, .worker = 1,
       .payload_seed = 0x10},
      {.kind = FaultKind::kWorkerCrash, .step = 7, .worker = 2},
  });
  SupervisorConfig cfg;
  cfg.policy = RecoveryPolicy::kGangRestart;
  cfg.checkpoint_every = 4;
  cfg.peer_replicas = 2;
  FaultSupervisor sup(trainer, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.peer_replicas_lost, 1);
  EXPECT_EQ(stats.peer_recoveries, 1);
  EXPECT_EQ(stats.disk_recoveries, 0);
  EXPECT_EQ(trainer.params_digest_chain(), clean.params_digest_chain());
  mgr.clear();
}

TEST(FaultSupervisor, ElasticSurvivesWhereGangRestartFails) {
  // A burst of revocations at one step: EasyScale scales in gracefully;
  // the gang-restart baseline burns a retry per revocation and fails.
  constexpr std::int64_t kSteps = 8;
  std::vector<FaultEvent> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back({FaultKind::kGpuRevocation, 3, i, 30.0, 1.0, 0});
  }
  SupervisorConfig cfg;
  cfg.max_retries = 3;

  auto& wd = shared_data();
  {
    EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
    CheckpointManager mgr(temp_path("elastic"), 3);
    mgr.clear();
    cfg.policy = RecoveryPolicy::kElasticScaleIn;
    FaultSupervisor sup(engine, mgr, FaultInjector(burst), cfg);
    const auto stats = sup.run_to(kSteps, 4);
    EXPECT_FALSE(stats.failed);
    EXPECT_EQ(stats.steps_completed, kSteps);
    EXPECT_EQ(stats.scale_ins, 3);  // 4 -> 1, last GPU is never revoked
    EXPECT_EQ(stats.lost_steps, 0);  // grace-period checkpoints: no loss
    EXPECT_EQ(engine.params_digest(), fault_free_digest(4, kSteps));
    mgr.clear();
  }
  {
    EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
    CheckpointManager mgr(temp_path("gang"), 3);
    mgr.clear();
    cfg.policy = RecoveryPolicy::kGangRestart;
    FaultSupervisor sup(engine, mgr, FaultInjector(burst), cfg);
    const auto stats = sup.run_to(kSteps, 4);
    EXPECT_TRUE(stats.failed);
    EXPECT_LT(stats.steps_completed, kSteps);
    mgr.clear();
  }
}

/// Comm-level faults under the resilient substrate: transient link faults
/// are absorbed inside the collective (bounded retries, bitwise
/// re-execution) and a silent rank death rolls back via checkpoint — the
/// final digest still matches the undisturbed run.
TEST(FaultSupervisor, ResilientCommKeepsBitwiseDigest) {
  constexpr std::int64_t kSteps = 14;
  const std::uint64_t clean = fault_free_digest(4, kSteps);

  auto& wd = shared_data();
  auto ecfg = small_config();
  ecfg.resilient_comm = true;
  EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("resilient_comm"), 3);
  mgr.clear();
  FaultInjector injector({
      {FaultKind::kCommChunkDrop, 3, 1, 0.0, 1.0, 0.0, 0},
      {FaultKind::kCommStalledLink, 5, 2, 0.0, 1.0, 2.0, 0},
      {FaultKind::kCommRankDeath, 8, 3, 0.0, 1.0, 0.0, 0},
  });
  SupervisorConfig cfg;
  cfg.checkpoint_every = 3;
  cfg.regrow_after_clean_steps = 0;  // stay at the survivor count
  FaultSupervisor sup(engine, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);

  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.steps_completed, kSteps);
  EXPECT_EQ(stats.comm_faults, 3);
  EXPECT_EQ(stats.straggler_reports, 1);
  EXPECT_GE(stats.comm_retries, 2);  // drop + over-deadline stall re-execute
  EXPECT_GT(stats.comm_wall_s, 0.0);
  EXPECT_GE(stats.recoveries, 1);  // the condemned rank forced a rollback
  EXPECT_GE(stats.scale_ins, 1);   // ... and the group shrank to survivors
  EXPECT_EQ(engine.params_digest(), clean)
      << "comm-fault recovery diverged bitwise from the fault-free run";
  mgr.clear();
}

/// Satellite: with backoff_max_s == backoff_base_s every recovery wait is
/// clipped at the cap, and the stats count each one.
TEST(FaultSupervisor, CappedBackoffWaitsAreCounted) {
  constexpr std::int64_t kSteps = 10;
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("capped"), 3);
  mgr.clear();
  FaultInjector injector({
      {FaultKind::kWorkerCrash, 3, 0, 0.0, 1.0, 0.0, 0},
      {FaultKind::kWorkerCrash, 6, 1, 0.0, 1.0, 0.0, 0},
  });
  SupervisorConfig cfg;
  cfg.backoff_base_s = 1.0;
  cfg.backoff_max_s = 1.0;  // cap == base: the very first wait is clipped
  FaultSupervisor sup(engine, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.recoveries, 2);
  EXPECT_EQ(stats.capped_backoffs, stats.recoveries);
  EXPECT_EQ(engine.params_digest(), fault_free_digest(4, kSteps));
  mgr.clear();
}

/// Comm-kind rates are sampled from a separate Philox stream: enabling
/// them must not perturb the classic schedule an existing seed produces.
TEST(FaultInjector, CommRatesDoNotPerturbClassicSchedule) {
  FaultPlanConfig classic;
  classic.seed = 321;
  classic.horizon_steps = 300;
  classic.crash_rate = 0.05;
  classic.revocation_rate = 0.05;
  classic.straggler_rate = 0.08;
  const auto baseline = FaultInjector::from_config(classic).schedule();
  ASSERT_FALSE(baseline.empty());

  auto with_comm = classic;
  with_comm.chunk_drop_rate = 0.1;
  with_comm.stalled_link_rate = 0.1;
  with_comm.rank_death_rate = 0.02;
  const auto mixed = FaultInjector::from_config(with_comm).schedule();
  ASSERT_GT(mixed.size(), baseline.size());

  std::vector<FaultEvent> classic_only;
  bool saw_comm = false;
  for (const auto& e : mixed) {
    if (e.kind == FaultKind::kCommChunkDrop ||
        e.kind == FaultKind::kCommStalledLink ||
        e.kind == FaultKind::kCommRankDeath) {
      saw_comm = true;
    } else {
      classic_only.push_back(e);
    }
  }
  EXPECT_TRUE(saw_comm);
  EXPECT_EQ(classic_only, baseline)
      << "comm-kind sampling leaked into the classic Philox stream";
}

TEST(FaultSupervisor, GoodputAccountingIsConsistent) {
  constexpr std::int64_t kSteps = 12;
  FaultInjector injector({
      {FaultKind::kWorkerCrash, 5, 0, 0.0, 1.0, 0},
      {FaultKind::kStraggler, 8, 1, 0.0, 4.0, 0},
  });
  auto& wd = shared_data();
  EasyScaleEngine engine(small_config(), *wd.train, wd.augment);
  CheckpointManager mgr(temp_path("goodput"), 3);
  mgr.clear();
  SupervisorConfig cfg;
  cfg.checkpoint_every = 4;
  FaultSupervisor sup(engine, mgr, std::move(injector), cfg);
  const auto stats = sup.run_to(kSteps, 4);
  EXPECT_FALSE(stats.failed);
  EXPECT_GT(stats.total_wall_s, 0.0);
  EXPECT_GT(stats.goodput_fraction(), 0.0);
  EXPECT_LT(stats.goodput_fraction(), 1.0);  // overheads were paid
  const double parts = stats.step_wall_s + stats.checkpoint_wall_s +
                       stats.recovery_wall_s + stats.reconfig_wall_s;
  EXPECT_NEAR(stats.total_wall_s, parts, 1e-9)
      << "wall-clock breakdown must sum to the total";
  EXPECT_EQ(stats.steps_executed - stats.lost_steps, stats.steps_completed);
  mgr.clear();
}

}  // namespace
}  // namespace easyscale::fault
