// Adam optimizer + optimizer-agnostic trainer plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "optim/adam.hpp"
#include "optim/optimizer.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::optim {
namespace {

struct Fixture {
  autograd::Parameter w{"w", tensor::Shape{2}};
  autograd::ParameterStore store;

  Fixture() {
    store.register_parameter(&w);
    w.value.fill(1.0f);
  }
};

TEST(Adam, FirstStepMovesByLr) {
  Fixture f;
  Adam opt(f.store, {.lr = 0.01f});
  f.w.grad.fill(0.5f);
  opt.step();
  // With bias correction, the first Adam step is ~lr * sign(g).
  EXPECT_NEAR(f.w.value.at(0), 1.0f - 0.01f, 1e-5f);
}

TEST(Adam, InvariantToGradientScale) {
  // Adam's update magnitude is (nearly) independent of |g|.
  Fixture a, b;
  Adam oa(a.store, {.lr = 0.01f});
  Adam ob(b.store, {.lr = 0.01f});
  a.w.grad.fill(0.001f);
  b.w.grad.fill(100.0f);
  oa.step();
  ob.step();
  EXPECT_NEAR(a.w.value.at(0), b.w.value.at(0), 1e-4f);
}

TEST(Adam, DecoupledWeightDecayShrinksWeights) {
  Fixture f;
  Adam opt(f.store, {.lr = 0.1f, .weight_decay = 0.5f});
  f.w.grad.zero();
  opt.step();
  EXPECT_LT(f.w.value.at(0), 1.0f);
}

TEST(Adam, StateSerializationContinuesIdentically) {
  Fixture a;
  Adam oa(a.store, {.lr = 0.01f});
  a.w.grad.fill(1.0f);
  oa.step();
  ByteWriter w;
  oa.save(w);

  Fixture b;
  b.w.value = a.w.value;
  Adam ob(b.store, {.lr = 0.01f});
  ByteReader r(w.bytes());
  ob.load(r);
  EXPECT_EQ(ob.step_count(), 1);
  a.w.grad.fill(0.3f);
  b.w.grad.fill(0.3f);
  oa.step();
  ob.step();
  EXPECT_EQ(a.w.value.at(0), b.w.value.at(0));
}

TEST(OptimizerFactory, BuildsRequestedKind) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::kAdam;
  cfg.lr = 0.02f;
  auto opt = make_optimizer(f.store, cfg);
  EXPECT_NE(dynamic_cast<Adam*>(opt.get()), nullptr);
  EXPECT_FLOAT_EQ(opt->lr(), 0.02f);
}

TEST(OptimizerFactory, StepLRWorksOnAdam) {
  Fixture f;
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::kAdam;
  cfg.lr = 0.1f;
  auto opt = make_optimizer(f.store, cfg);
  StepLR sched(*opt, 2, 0.5f);
  sched.set_epoch(4);
  EXPECT_FLOAT_EQ(opt->lr(), 0.025f);
}

TEST(AdamEquivalence, EasyScaleMatchesDDPWithAdam) {
  // The headline bitwise property must hold under Adam too: optimizer
  // state is a function of synchronized gradients, so elasticity cannot
  // perturb it.
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "Bert";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.optim.kind = OptimizerConfig::Kind::kAdam;
  dcfg.optim.lr = 1e-3f;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(5);

  core::EasyScaleConfig cfg;
  cfg.workload = "Bert";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.optim.kind = OptimizerConfig::Kind::kAdam;
  cfg.optim.lr = 1e-3f;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(3));
  engine.run_steps(2);
  engine.configure_workers(std::vector<core::WorkerSpec>(1));
  engine.run_steps(3);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

TEST(AdamEquivalence, CheckpointCarriesAdamState) {
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.optim.kind = OptimizerConfig::Kind::kAdam;
  cfg.optim.lr = 1e-3f;
  core::EasyScaleEngine a(cfg, *wd.train, wd.augment);
  a.configure_workers(std::vector<core::WorkerSpec>(2));
  a.run_steps(3);
  const auto ckpt = a.checkpoint();
  a.run_steps(3);

  core::EasyScaleEngine b(cfg, *wd.train, wd.augment);
  b.configure_workers(std::vector<core::WorkerSpec>(4));
  b.restore(ckpt);
  b.run_steps(3);
  EXPECT_EQ(a.params_digest(), b.params_digest());
}

}  // namespace
}  // namespace easyscale::optim
