// Packing invariance of parallel::Trainer, for EVERY Table-1 workload
// (conv, detection, recommendation, QA transformer, windowed attention).
// The identity packing (one rank per worker: plain DDP) and an uneven
// packing followed by a rescale must agree bitwise on the parameters, on
// every rank's BatchNorm buffers and RNG streams (the image carries them),
// and on a checkpoint moved from one packing to another.
#include <gtest/gtest.h>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale {
namespace {

class WorkloadEquivalenceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    wd_ = models::make_dataset_for(GetParam(), 128, 16, 42);
    cfg_.workload = GetParam();
    cfg_.num_ests = 4;
    cfg_.batch_per_est = 4;
    cfg_.seed = 42;
  }

  /// The identity packing: the trainer at world 4, one rank per worker.
  std::unique_ptr<parallel::Trainer> identity(std::int64_t steps) {
    parallel::TrainerConfig dcfg;
    dcfg.workload = GetParam();
    dcfg.world_size = 4;
    dcfg.batch_per_worker = 4;
    dcfg.seed = 42;
    auto t = std::make_unique<parallel::Trainer>(dcfg, *wd_->train,
                                                 wd_->augment);
    t->run_steps(steps);
    return t;
  }

  /// The uneven packing {3,1,0},{2}, as the engine sees it.
  std::unique_ptr<core::EasyScaleEngine> uneven() {
    auto e = std::make_unique<core::EasyScaleEngine>(cfg_, *wd_->train,
                                                     wd_->augment);
    e->configure_workers(
        std::vector<core::WorkerSpec>(2),
        std::vector<std::vector<std::int64_t>>{{3, 1, 0}, {2}});
    return e;
  }

  std::optional<models::WorkloadData> wd_;
  core::EasyScaleConfig cfg_;
};

std::uint64_t buffers_digest(parallel::Trainer& t, std::int64_t rank) {
  Digest d;
  for (const auto* b : t.model(rank).buffers()) d.update(b->data());
  return d.value();
}

/// Equal params, per-rank buffers and images (which also carry every rank's
/// streams and data pipeline, the optimizer and the bucket layout).
void expect_same_state(parallel::Trainer& want, parallel::Trainer& got) {
  EXPECT_EQ(want.params_digest(), got.params_digest())
      << "parameters diverged";
  for (std::int64_t rank = 0; rank < want.world_size(); ++rank) {
    EXPECT_EQ(buffers_digest(want, rank), buffers_digest(got, rank))
        << "rank " << rank << " BatchNorm buffers diverged";
  }
  EXPECT_EQ(want.checkpoint_bytes(), got.checkpoint_bytes())
      << "checkpoint images (streams, pipelines, optimizer) diverged";
}

TEST_P(WorkloadEquivalenceTest, EasyScaleMatchesDDPBitwise) {
  const auto reference = identity(6);
  auto engine = uneven();
  engine->run_steps(3);
  engine->configure_workers(std::vector<core::WorkerSpec>(3));  // rescale
  engine->run_steps(3);
  expect_same_state(*reference, *engine);
}

TEST_P(WorkloadEquivalenceTest, CheckpointMovesAcrossPackings) {
  const auto reference = identity(6);
  auto saver = uneven();
  saver->run_steps(3);
  const auto image = saver->checkpoint();
  core::EasyScaleEngine restored(cfg_, *wd_->train, wd_->augment);
  restored.configure_workers(std::vector<core::WorkerSpec>(3));
  restored.restore(image);
  restored.run_steps(3);
  expect_same_state(*reference, restored);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadEquivalenceTest,
                         ::testing::ValuesIn(models::workload_names()));

}  // namespace
}  // namespace easyscale
