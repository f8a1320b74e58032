// Heap allocations per steady-state step of the ZeRO-1 NeuMF trainer and
// of the ResNet50 EST engine.
//
// This binary replaces the global operator new with a counting one, so it
// is built only without sanitizers (they replace operator new themselves).
// NeuMF's compute is tiny, so per-step fixed costs such as allocator churn
// bound its step time; ResNet50's tree reductions once made a heap buffer
// per leaf fold level.  The budgets keep both from creeping back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so that GCC does not inline free() into callers of new and
// flag the pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace easyscale::parallel {
namespace {

/// Heap allocations per step over `steps` steps of `run(steps)`.
template <typename Run>
double allocations_per_step(std::int64_t steps, Run&& run) {
  const std::uint64_t before = g_allocations.load();
  run(steps);
  const std::uint64_t after = g_allocations.load();
  return static_cast<double>(after - before) / static_cast<double>(steps);
}

TEST(StepAllocations, Zero1NeuMFStepStaysUnderBudget) {
  // The zero1_neumf benchmark's trainer: world 4, shard degree 4, overlap.
  TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = 4;
  cfg.batch_per_worker = 32;
  cfg.seed = 1;
  cfg.shard_degree = 4;
  cfg.overlap_comm = true;
  cfg.intra_op_threads = 1;
  const models::WorkloadData wd =
      models::make_dataset_for(cfg.workload, 4096, 16, cfg.seed);
  Trainer trainer(cfg, *wd.train, wd.augment);
  // Past the first step's layout rebuild and every buffer's first growth.
  trainer.run_steps(40);
  const double per_step =
      allocations_per_step(200, [&](std::int64_t n) { trainer.run_steps(n); });
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, 300.0);
}

TEST(StepAllocations, EstConvStepStaysUnderBudget) {
  // The est_conv benchmark's engine: ResNet50, 8 ESTs of batch 8 on two
  // V100 workers, D0, one compute thread.
  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet50";
  cfg.num_ests = 8;
  cfg.batch_per_est = 8;
  cfg.seed = 1;
  cfg.determinism.level = core::DeterminismLevel::kD0;
  cfg.intra_op_threads = 1;
  const models::WorkloadData wd =
      models::make_dataset_for(cfg.workload, 512, 16, cfg.seed);
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{kernels::DeviceType::kV100},
                            core::WorkerSpec{kernels::DeviceType::kV100}});
  engine.run_steps(20);
  const double per_step =
      allocations_per_step(60, [&](std::int64_t n) { engine.run_steps(n); });
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, 1100.0);
}

}  // namespace
}  // namespace easyscale::parallel
