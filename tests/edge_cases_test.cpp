// Edge cases across modules that the mainline tests don't reach.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include <set>
#include <string>

#include "common/log.hpp"
#include "core/engine.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/layernorm.hpp"
#include "nn/pooling.hpp"
#include "parallel/trainer.hpp"
#include "rng/sampling.hpp"
#include "tensor/ops.hpp"

namespace easyscale {
namespace {

struct Env {
  kernels::ExecContext exec;
  rng::StreamSet streams;
  autograd::StepContext ctx;
  Env() {
    streams.seed_all(3, 0);
    ctx.exec = &exec;
    ctx.rng = &streams;
    ctx.training = true;
  }
};

nn::Tensor random_tensor(rng::Philox& gen, tensor::Shape shape) {
  nn::Tensor t(std::move(shape));
  rng::fill_normal(gen, t.data(), 0.0f, 1.0f);
  return t;
}

TEST(EdgeAttention, SingleHeadSingleToken) {
  Env env;
  rng::Philox gen(1);
  nn::MultiheadSelfAttention attn("a", 4, 1);
  attn.init_weights(gen);
  const auto x = random_tensor(gen, tensor::Shape{1, 1, 4});
  const auto out = attn.forward(env.ctx, x);
  EXPECT_EQ(out.shape(), (tensor::Shape{1, 1, 4}));
  // With one token the softmax weight is exactly 1 — output is Wo(Wv(x)).
  const auto grad = attn.backward(env.ctx, out);
  EXPECT_EQ(grad.shape(), x.shape());
}

TEST(EdgeAttention, DimNotDivisibleByHeadsThrows) {
  EXPECT_THROW(nn::MultiheadSelfAttention("a", 6, 4), Error);
}

TEST(EdgeLayerNorm, DimOne) {
  Env env;
  rng::Philox gen(2);
  nn::LayerNorm ln("ln", 1);
  ln.init_weights(gen);
  const auto x = random_tensor(gen, tensor::Shape{4, 1});
  const auto out = ln.forward(env.ctx, x);
  // With one element per row, x-hat is 0 everywhere: out == beta == 0.
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(out.at(i), 0.0f);
  }
}

// Backward indexes the forward's caches by grad_out's size, so a gradient
// of another shape (or a backward with no forward) must be refused before
// any raw-pointer loop runs.
TEST(EdgeActivations, GeluBackwardRejectsMismatchedOrMissingForward) {
  Env env;
  rng::Philox gen(4);
  nn::GELU gelu;
  EXPECT_THROW(gelu.backward(env.ctx, random_tensor(gen, tensor::Shape{2, 3})),
               Error);
  const auto x = random_tensor(gen, tensor::Shape{2, 3});
  gelu.forward(env.ctx, x);
  EXPECT_THROW(gelu.backward(env.ctx, random_tensor(gen, tensor::Shape{2, 4})),
               Error);
  EXPECT_THROW(gelu.backward(env.ctx, random_tensor(gen, tensor::Shape{3, 2})),
               Error);
  EXPECT_EQ(gelu.backward(env.ctx, x).shape(), x.shape());
}

TEST(EdgeDropout, BackwardRejectsMismatchedGrad) {
  Env env;
  rng::Philox gen(5);
  nn::Dropout dropout(0.5f);
  const auto x = random_tensor(gen, tensor::Shape{4, 8});
  dropout.forward(env.ctx, x);
  EXPECT_THROW(
      dropout.backward(env.ctx, random_tensor(gen, tensor::Shape{4, 9})),
      Error);
  EXPECT_THROW(
      dropout.backward(env.ctx, random_tensor(gen, tensor::Shape{8, 4})),
      Error);
  EXPECT_EQ(dropout.backward(env.ctx, x).shape(), x.shape());
}

TEST(EdgeLayerNorm, BackwardRejectsMismatchedOrMissingForward) {
  Env env;
  rng::Philox gen(6);
  nn::LayerNorm ln("ln", 4);
  autograd::ParameterStore store;
  ln.register_parameters(store);
  EXPECT_THROW(ln.backward(env.ctx, random_tensor(gen, tensor::Shape{2, 4})),
               Error);
  const auto x = random_tensor(gen, tensor::Shape{2, 4});
  ln.forward(env.ctx, x);
  EXPECT_THROW(ln.backward(env.ctx, random_tensor(gen, tensor::Shape{3, 4})),
               Error);
  EXPECT_THROW(ln.backward(env.ctx, random_tensor(gen, tensor::Shape{8})),
               Error);
  EXPECT_EQ(ln.backward(env.ctx, x).shape(), x.shape());
}

TEST(EdgeBatchNorm, SingleSpatialElement) {
  Env env;
  rng::Philox gen(3);
  nn::BatchNorm2d bn("bn", 2);
  bn.init_weights(gen);
  const auto x = random_tensor(gen, tensor::Shape{4, 2, 1, 1});
  const auto out = bn.forward(env.ctx, x);
  // Batch statistics over N=4 single pixels: output mean per channel ~0.
  for (std::int64_t c = 0; c < 2; ++c) {
    float mean = 0.0f;
    for (std::int64_t n = 0; n < 4; ++n) mean += out.at(n * 2 + c);
    EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
  }
}

TEST(EdgeMaxPool, NonDivisibleInputDropsTail) {
  Env env;
  rng::Philox gen(4);
  nn::MaxPool2d pool(2);
  const auto x = random_tensor(gen, tensor::Shape{1, 1, 5, 5});
  const auto out = pool.forward(env.ctx, x);
  EXPECT_EQ(out.shape(), (tensor::Shape{1, 1, 2, 2}));
}

TEST(EdgeEngine, SingleESTSingleWorker) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 1;
  cfg.batch_per_est = 4;
  cfg.seed = 7;
  core::EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers({core::WorkerSpec{}});
  e.run_steps(3);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "NeuMF";
  dcfg.world_size = 1;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 7;
  parallel::Trainer ref(dcfg, *wd.train, wd.augment);
  ref.run_steps(3);
  EXPECT_EQ(e.params_digest(), ref.params_digest());
}

TEST(EdgeEngine, ParallelWorkersWithAsyncLoader) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.parallel_workers = true;
  cfg.use_async_loader = true;
  cfg.loader.num_workers = 2;
  cfg.loader.augment = wd.augment;
  core::EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<core::WorkerSpec>(4));
  e.run_steps(4);

  core::EasyScaleConfig plain;
  plain.workload = "ResNet18";
  plain.num_ests = 4;
  plain.batch_per_est = 4;
  plain.seed = 42;
  core::EasyScaleEngine ref(plain, *wd.train, wd.augment);
  ref.configure_workers(std::vector<core::WorkerSpec>(2));
  ref.run_steps(4);
  EXPECT_EQ(e.params_digest(), ref.params_digest());
}

TEST(EdgeEngine, CheckpointBeforeAnyStep) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 2;
  cfg.batch_per_est = 4;
  cfg.seed = 7;
  core::EasyScaleEngine a(cfg, *wd.train, wd.augment);
  a.configure_workers({core::WorkerSpec{}});
  const auto ckpt = a.checkpoint();  // step 0
  a.run_steps(3);
  core::EasyScaleEngine b(cfg, *wd.train, wd.augment);
  b.configure_workers(std::vector<core::WorkerSpec>(2));
  b.restore(ckpt);
  b.run_steps(3);
  EXPECT_EQ(a.params_digest(), b.params_digest());
}

/// Runs `access` and expects an easyscale::Error whose message names
/// `index` and the valid range `[0, size)`.
template <typename Fn>
void expect_out_of_range(Fn access, std::int64_t index, std::int64_t size) {
  try {
    access();
    FAIL() << "index " << index << " was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(index)), std::string::npos) << what;
    EXPECT_NE(what.find("[0, " + std::to_string(size) + ")"),
              std::string::npos)
        << what;
  }
}

core::EasyScaleConfig two_est_neumf() {
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 2;
  cfg.batch_per_est = 4;
  cfg.seed = 7;
  return cfg;
}

parallel::TrainerConfig two_rank_neumf() {
  parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = 2;
  cfg.batch_per_worker = 4;
  cfg.seed = 7;
  return cfg;
}

TEST(EdgeEngine, ModelForEvalRejectsOutOfRangeEst) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleEngine e(two_est_neumf(), *wd.train, wd.augment);
  e.configure_workers({core::WorkerSpec{}});
  for (const std::int64_t est : {-1, 2}) {
    expect_out_of_range([&] { (void)e.model(est); }, est, 2);
  }
  EXPECT_NO_THROW((void)e.model(1));
}

// An engine is built by its first configure_workers; before that, training
// and the checkpoint image fail with a named error instead of reading an
// empty worker set.
TEST(EdgeEngine, UseBeforeConfigureWorkersThrows) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleEngine e(two_est_neumf(), *wd.train, wd.augment);
  EXPECT_EQ(e.num_workers(), 0);
  for (const auto& use : std::vector<std::function<void()>>{
           [&] { e.run_steps(1); }, [&] { (void)e.checkpoint(); }}) {
    try {
      use();
      FAIL() << "an unbuilt engine was used";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("configure_workers"),
                std::string::npos)
          << err.what();
    }
  }
  EXPECT_ANY_THROW((void)e.params_digest());
  EXPECT_ANY_THROW((void)e.current_layout());
  e.configure_workers(std::vector<core::WorkerSpec>(2));
  EXPECT_NO_THROW(e.run_steps(1));
  EXPECT_EQ(e.global_step(), 1);
}

TEST(EdgeEngine, WorkerExecRejectsOutOfRangeIndex) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  core::EasyScaleEngine e(two_est_neumf(), *wd.train, wd.augment);
  e.configure_workers(std::vector<core::WorkerSpec>(2));
  for (const std::int64_t i : {-1, 2}) {
    expect_out_of_range([&] { (void)e.worker_exec(i); }, i, 2);
  }
  EXPECT_NO_THROW((void)e.worker_exec(1));
}

TEST(EdgeTrainer, ModelRejectsOutOfRangeRank) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  parallel::Trainer t(two_rank_neumf(), *wd.train, wd.augment);
  for (const std::int64_t r : {-1, 2}) {
    expect_out_of_range([&] { (void)t.model(r); }, r, 2);
  }
  EXPECT_NO_THROW((void)t.model(1));
}

/// Constructs a trainer over `cfg` at `packing` and expects an Error whose
/// message names both `field` and `other`.
void expect_pairing_error(const parallel::TrainerConfig& cfg,
                          const parallel::Assignment& packing,
                          const std::string& field, const std::string& other) {
  auto wd = models::make_dataset_for(cfg.workload, 64, 16, 7);
  try {
    parallel::Trainer t(
        cfg, *wd.train, wd.augment,
        std::vector<parallel::WorkerSpec>(packing.size()), packing);
    FAIL() << field << " with this packing was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(field), std::string::npos) << what;
    EXPECT_NE(what.find(other), std::string::npos) << what;
  }
}

parallel::TrainerConfig four_rank_neumf() {
  auto cfg = two_rank_neumf();
  cfg.world_size = 4;
  cfg.context_switching = true;
  return cfg;
}

const parallel::Assignment kTwoPerWorker{{0, 1}, {2, 3}};

TEST(EdgeTrainer, ShardingNeedsOneRankPerWorker) {
  auto cfg = four_rank_neumf();
  cfg.shard_degree = 2;
  expect_pairing_error(cfg, kTwoPerWorker, "shard_degree", "rank per worker");
  // A packed trainer cannot reshard into ZeRO-1 either.
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  parallel::Trainer t(four_rank_neumf(), *wd.train, wd.augment,
                      std::vector<parallel::WorkerSpec>(2), kTwoPerWorker);
  EXPECT_THROW(t.reshard(2), Error);
}

TEST(EdgeTrainer, VotingNeedsOneRankPerWorker) {
  auto cfg = four_rank_neumf();
  cfg.logical_world = 2;
  expect_pairing_error(cfg, kTwoPerWorker, "logical_world", "rank per worker");
}

TEST(EdgeTrainer, WitnessAndVotingAreExclusive) {
  auto cfg = four_rank_neumf();
  cfg.logical_world = 2;
  cfg.witness.witness_every = 2;
  expect_pairing_error(cfg, {{0}, {1}, {2}, {3}}, "witness", "logical_world");
  cfg.witness.witness_every = 0;
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  parallel::Trainer t(cfg, *wd.train, wd.augment);
  EXPECT_THROW(t.set_witness_every(2), Error);
}

TEST(EdgeTrainer, ResidentRanksNeedOneRankPerWorker) {
  auto cfg = four_rank_neumf();
  cfg.context_switching = false;
  expect_pairing_error(cfg, kTwoPerWorker, "context_switching",
                       "rank per worker");
}

TEST(EdgeTrainer, SchedulerRejectsOutOfRangeRank) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  parallel::Trainer t(two_rank_neumf(), *wd.train, wd.augment);
  for (const std::int64_t r : {-1, 2}) {
    expect_out_of_range([&] { (void)t.scheduler(r); }, r, 2);
  }
  EXPECT_NO_THROW((void)t.scheduler(1));
}

// A scale-in packs several ranks onto one worker, which sharding forbids,
// so the supervisor refuses the pairing before the first step.
TEST(EdgeTrainer, FaultSupervisorRejectsElasticScaleInWhenSharded) {
  auto wd = models::make_dataset_for("NeuMF", 64, 16, 7);
  auto cfg = four_rank_neumf();
  cfg.shard_degree = 4;
  parallel::Trainer t(cfg, *wd.train, wd.augment,
                      std::vector<parallel::WorkerSpec>(4));
  core::CheckpointManager mgr(
      std::string(::testing::TempDir()) + "/edge_sharded_elastic", 2);
  fault::SupervisorConfig scfg;
  scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
  fault::FaultSupervisor sup(t, mgr, fault::FaultInjector(), scfg);
  try {
    (void)sup.run_to(4, 4);
    FAIL() << "elastic scale-in with shard_degree 4 was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard_degree 4"), std::string::npos) << what;
    EXPECT_NE(what.find("kElasticScaleIn"), std::string::npos) << what;
  }
  EXPECT_EQ(t.global_step(), 0);
  EXPECT_EQ(mgr.generations_on_disk(), 0);
}

TEST(EdgeLog, LevelsFilter) {
  const auto before = log_level();
  set_log_level(LogLevel::kOff);
  ES_LOG_ERROR("this must not crash even when filtered");
  set_log_level(LogLevel::kError);
  ES_LOG_DEBUG("filtered");
  set_log_level(before);
}

TEST(EdgeSampler, WorldOfOneSeesEverySample) {
  data::DistributedSampler s(10, 1, 0, 2, 9);
  std::set<std::int64_t> seen;
  for (std::int64_t step = 0; step < s.steps_per_epoch(); ++step) {
    for (auto i : s.batch_indices(step)) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace easyscale
