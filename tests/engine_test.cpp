// EasyScale engine mechanics: checkpoints, determinism levels, the async
// loader path, context-switch accounting and the memory model.
#include <gtest/gtest.h>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "core/memory_model.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::core {
namespace {

using kernels::DeviceType;

EasyScaleConfig config(const std::string& workload = "ResNet18") {
  EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  return cfg;
}

TEST(Engine, CheckpointRestoreIsBitwiseExact) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine a(config(), *wd.train, wd.augment);
  a.configure_workers(std::vector<WorkerSpec>(2));
  a.run_steps(4);
  const auto ckpt = a.checkpoint();
  a.run_steps(3);

  EasyScaleEngine b(config(), *wd.train, wd.augment);
  b.configure_workers(std::vector<WorkerSpec>(3));  // different worker set
  b.restore(ckpt);
  b.run_steps(3);
  EXPECT_EQ(a.params_digest(), b.params_digest());
}

TEST(Engine, CheckpointCarriesGlobalStep) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine a(config(), *wd.train, wd.augment);
  a.configure_workers(std::vector<WorkerSpec>(1));
  a.run_steps(5);
  const auto ckpt = a.checkpoint();
  EasyScaleEngine b(config(), *wd.train, wd.augment);
  b.configure_workers(std::vector<WorkerSpec>(1));
  b.restore(ckpt);
  EXPECT_EQ(b.global_step(), 5);
}

TEST(Engine, D0LosesBucketMappingAcrossRescale) {
  auto run = [&](DeterminismLevel level) {
    auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
    auto cfg = config();
    cfg.determinism.level = level;
    cfg.optim.lr = 0.05f;
    EasyScaleEngine e(cfg, *wd.train, wd.augment);
    e.configure_workers(std::vector<WorkerSpec>(4));
    e.run_steps(4);
    e.configure_workers(std::vector<WorkerSpec>(2));
    e.run_steps(4);
    return e.params_digest();
  };
  EXPECT_NE(run(DeterminismLevel::kD0), run(DeterminismLevel::kD1));
}

TEST(Engine, D0IsStaticallyDeterministicWithoutRescale) {
  auto run = [&] {
    auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
    auto cfg = config();
    cfg.determinism.level = DeterminismLevel::kD0;
    EasyScaleEngine e(cfg, *wd.train, wd.augment);
    e.configure_workers(std::vector<WorkerSpec>(2));
    e.run_steps(6);
    return e.params_digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, HeterogeneousWorkersDivergeWithoutD2) {
  auto run = [&](std::vector<WorkerSpec> workers, bool d2) {
    auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
    auto cfg = config();
    cfg.determinism.d2 = d2;
    EasyScaleEngine e(cfg, *wd.train, wd.augment);
    e.configure_workers(workers);
    e.run_steps(4);
    return e.params_digest();
  };
  const std::vector<WorkerSpec> homo(2, WorkerSpec{DeviceType::kV100});
  const std::vector<WorkerSpec> mixed = {WorkerSpec{DeviceType::kV100},
                                         WorkerSpec{DeviceType::kT4}};
  EXPECT_NE(run(homo, false), run(mixed, false));
  EXPECT_EQ(run(homo, true), run(mixed, true));
}

TEST(Engine, D1D2MatchesDDPHeterOnAnyMix) {
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "Bert";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.policy = kernels::KernelPolicy::kHardwareAgnostic;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(5);

  auto cfg = config("Bert");
  cfg.determinism.d2 = true;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers({WorkerSpec{DeviceType::kT4},
                       WorkerSpec{DeviceType::kP100},
                       WorkerSpec{DeviceType::kV100}});
  e.run_steps(5);
  EXPECT_EQ(reference.params_digest(), e.params_digest());
}

TEST(Engine, AsyncLoaderIsBitwiseIdenticalToSync) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine sync_engine(config(), *wd.train, wd.augment);
  sync_engine.configure_workers(std::vector<WorkerSpec>(2));
  sync_engine.run_steps(5);

  auto cfg = config();
  cfg.use_async_loader = true;
  cfg.loader.num_workers = 3;
  cfg.loader.augment = wd.augment;
  EasyScaleEngine async_engine(cfg, *wd.train, wd.augment);
  async_engine.configure_workers(std::vector<WorkerSpec>(2));
  async_engine.run_steps(5);
  EXPECT_EQ(sync_engine.params_digest(), async_engine.params_digest());
}

TEST(Engine, AsyncLoaderSurvivesCheckpointRescale) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto cfg = config();
  cfg.use_async_loader = true;
  cfg.loader.num_workers = 2;
  cfg.loader.augment = wd.augment;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(4));
  e.run_steps(3);
  e.configure_workers(std::vector<WorkerSpec>(1));  // queuing buffer moves
  e.run_steps(2);

  EasyScaleEngine ref(config(), *wd.train, wd.augment);
  ref.configure_workers(std::vector<WorkerSpec>(2));
  ref.run_steps(5);
  EXPECT_EQ(e.params_digest(), ref.params_digest());
}

TEST(Engine, SwitchStatsCountGradientTraffic) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine e(config(), *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(1));
  e.run_steps(2);
  const auto& stats = e.switch_stats();
  EXPECT_EQ(stats.context_switches, 2 * 4);  // steps x ESTs
  EXPECT_GT(stats.gradient_bytes_swapped, 0);
  EXPECT_GT(stats.context_bytes_swapped, 0);
}

TEST(Engine, ContextSwitchingOffRequiresOneESTPerWorker) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto cfg = config();
  cfg.context_switching = false;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  EXPECT_THROW(e.configure_workers(std::vector<WorkerSpec>(2)), Error);
  EXPECT_NO_THROW(e.configure_workers(std::vector<WorkerSpec>(4)));
}

TEST(Engine, InvalidAssignmentsThrow) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine e(config(), *wd.train, wd.augment);
  using A = std::vector<std::vector<std::int64_t>>;
  EXPECT_THROW(
      e.configure_workers(std::vector<WorkerSpec>(2), A{{0, 1}, {1, 2}}),
      Error);  // duplicate
  EXPECT_THROW(
      e.configure_workers(std::vector<WorkerSpec>(2), A{{0, 1}, {2}}),
      Error);  // missing EST 3
  EXPECT_THROW(e.configure_workers(std::vector<WorkerSpec>(5)), Error);
}

TEST(Engine, ModelForEvalLoadsRequestedESTContext) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine e(config(), *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(2));
  e.run_steps(3);
  // Different ESTs saw different batches, so their BN running buffers
  // differ; model_for_eval must reflect the chosen context.
  auto& m0 = e.model(0);
  Digest d0;
  for (auto* b : m0.buffers()) d0.update(b->data());
  auto& m3 = e.model(3);
  Digest d3;
  for (auto* b : m3.buffers()) d3.update(b->data());
  EXPECT_NE(d0.value(), d3.value());
}

TEST(Engine, LRScheduleMatchesDDPOverEpochs) {
  auto wd = models::make_dataset_for("ResNet18", 64, 16, 42);
  auto cfg = config();
  cfg.lr_step_epochs = 1;
  cfg.gamma = 0.5f;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(2));
  e.run_epochs(3);

  parallel::TrainerConfig dcfg;
  dcfg.workload = "ResNet18";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.lr_step_epochs = 1;
  dcfg.gamma = 0.5f;
  parallel::Trainer ref(dcfg, *wd.train, wd.augment);
  ref.run_epochs(3);
  EXPECT_EQ(e.params_digest(), ref.params_digest());
}

TEST(Engine, ParallelWorkersAreBitwiseIdenticalToSequential) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine seq(config(), *wd.train, wd.augment);
  seq.configure_workers(std::vector<WorkerSpec>(4));
  seq.run_steps(5);

  auto cfg = config();
  cfg.parallel_workers = true;
  EasyScaleEngine par(cfg, *wd.train, wd.augment);
  par.configure_workers(std::vector<WorkerSpec>(4));
  par.run_steps(5);
  EXPECT_EQ(seq.params_digest(), par.params_digest());
  EXPECT_EQ(seq.switch_stats().gradient_bytes_swapped,
            par.switch_stats().gradient_bytes_swapped);
  EXPECT_EQ(seq.switch_stats().context_switches,
            par.switch_stats().context_switches);
}

TEST(Engine, ParallelWorkersSurviveRescale) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto cfg = config();
  cfg.parallel_workers = true;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(4));
  e.run_steps(2);
  e.configure_workers(std::vector<WorkerSpec>(2));
  e.run_steps(2);

  EasyScaleEngine ref(config(), *wd.train, wd.augment);
  ref.configure_workers(std::vector<WorkerSpec>(1));
  ref.run_steps(4);
  EXPECT_EQ(e.params_digest(), ref.params_digest());
}

TEST(Engine, ResilientCommCleanRunMatchesPlainBitwise) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine plain(config(), *wd.train, wd.augment);
  plain.configure_workers(std::vector<WorkerSpec>(3));
  plain.run_steps(5);

  auto cfg = config();
  cfg.resilient_comm = true;
  EasyScaleEngine resilient(cfg, *wd.train, wd.augment);
  resilient.configure_workers(std::vector<WorkerSpec>(3));
  resilient.run_steps(5);
  // The failure-aware path drives the exact same bucketed ring when no
  // fault fires: identical bits, one attempt, real fabric traffic.
  EXPECT_EQ(resilient.params_digest(), plain.params_digest());
  ASSERT_TRUE(resilient.last_comm_report().has_value());
  EXPECT_EQ(resilient.last_comm_report()->attempts, 1);
  EXPECT_GT(resilient.transport_stats().messages_sent, 0);
}

TEST(Engine, ResilientCommInjectedDropRecoversBitwise) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleEngine plain(config(), *wd.train, wd.augment);
  plain.configure_workers(std::vector<WorkerSpec>(3));
  plain.run_steps(5);

  auto cfg = config();
  cfg.resilient_comm = true;
  EasyScaleEngine victim(cfg, *wd.train, wd.augment);
  victim.configure_workers(std::vector<WorkerSpec>(3));
  victim.run_steps(2);
  comm::CommFaultEvent drop;
  drop.kind = comm::LinkFaultKind::kDropChunk;
  drop.rank = 1;  // collective = -1: fires during the next step's sync
  victim.inject_comm_fault(drop);
  victim.run_steps(3);
  EXPECT_EQ(victim.params_digest(), plain.params_digest());
  ASSERT_TRUE(victim.last_comm_report().has_value());
  EXPECT_GT(victim.transport_stats().drops, 0);
}

TEST(Engine, ResilientCommRankDeathAbortsTheStep) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto cfg = config();
  cfg.resilient_comm = true;
  EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(3));
  engine.run_steps(2);
  comm::CommFaultEvent death;
  death.kind = comm::LinkFaultKind::kRankDeath;
  death.rank = 2;
  engine.inject_comm_fault(death);
  // A dead worker's EST gradients are unrecoverable mid-step: the engine
  // must surface the condemnation instead of silently dropping them.
  EXPECT_THROW(engine.run_steps(1), comm::RankDeathError);
  // The supervisor's rollback path: reconfigure onto survivors + restore.
  engine.configure_workers(std::vector<WorkerSpec>(2));
  EXPECT_FALSE(engine.last_comm_report().has_value());  // fabric was rebuilt
}

TEST(Engine, CommStallAccruesToTheVictimWorker) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto cfg = config();
  cfg.resilient_comm = true;
  EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<WorkerSpec>(3));
  EXPECT_EQ(engine.comm_stall_per_worker(), std::vector<double>(3, 0.0));
  comm::CommFaultEvent stall;
  stall.kind = comm::LinkFaultKind::kStallLink;
  stall.rank = 1;
  stall.stall_s = 0.1;  // within recv_deadline_s: slows, does not retry
  engine.inject_comm_fault(stall);
  engine.run_steps(1);
  const auto stalls = engine.comm_stall_per_worker();
  ASSERT_EQ(stalls.size(), 3u);
  EXPECT_DOUBLE_EQ(stalls[1], 0.1);
  EXPECT_DOUBLE_EQ(stalls[0], 0.0);
  EXPECT_DOUBLE_EQ(stalls[2], 0.0);
  ASSERT_TRUE(engine.last_comm_report().has_value());
  EXPECT_EQ(engine.last_comm_report()->attempts, 1);  // absorbed in-flight

  // Disabled engines expose no straggler signal.
  EasyScaleEngine off(config(), *wd.train, wd.augment);
  off.configure_workers(std::vector<WorkerSpec>(2));
  EXPECT_TRUE(off.comm_stall_per_worker().empty());
}

TEST(MemoryModel, PackingGrowsEasyScaleFlat) {
  const double pack1 = packing_memory_gb("ResNet50", 1);
  const double pack8 = packing_memory_gb("ResNet50", 8);
  EXPECT_NEAR(pack8, 8.0 * pack1, 1e-9);
  const double easy1 = easyscale_memory_gb("ResNet50", 1);
  const double easy16 = easyscale_memory_gb("ResNet50", 16);
  EXPECT_LT(easy16 - easy1, 0.5);
  EXPECT_TRUE(would_oom(packing_memory_gb("ResNet50", 16), 32.0));
  EXPECT_FALSE(would_oom(easyscale_memory_gb("ResNet50", 16), 32.0));
}

}  // namespace
}  // namespace easyscale::core
