// Heap allocations per steady-state ZeRO-1 NeuMF step.
//
// This binary replaces the global operator new with a counting one, so it
// is built only without sanitizers (they replace operator new themselves).
// NeuMF's compute is tiny, so per-step fixed costs such as allocator churn
// bound its step time; the budget keeps them from creeping back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

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
  constexpr std::int64_t kSteps = 200;
  const std::uint64_t before = g_allocations.load();
  trainer.run_steps(kSteps);
  const std::uint64_t after = g_allocations.load();
  const double per_step =
      static_cast<double>(after - before) / static_cast<double>(kSteps);
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, 300.0);
}

}  // namespace
}  // namespace easyscale::parallel
