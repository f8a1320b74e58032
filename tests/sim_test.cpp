// Serving/training co-location model invariants (Fig 16).  The trace
// experiment (Figs 14-15) runs on the cluster service; its tests live in
// cluster_test.cpp.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/colocation.hpp"
#include "trace/generators.hpp"

namespace easyscale::sim {
namespace {

TEST(Colocation, ConservationAndBounds) {
  trace::ServingLoadConfig lcfg;
  lcfg.minutes = 2880;
  lcfg.total_gpus = 1000;
  const auto demand = trace::serving_load_curve(lcfg);
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 300;
  const auto r = simulate_colocation(demand, cfg);
  ASSERT_EQ(r.day2.size(), 1440u);
  for (const auto& p : r.day2) {
    EXPECT_LE(p.serving_gpus + p.training_gpus, cfg.total_gpus);
    EXPECT_LE(p.training_gpus, cfg.max_training_gpus);
    EXPECT_GE(p.training_gpus, 0);
    EXPECT_GE(p.alloc_ratio, 0.0);
    EXPECT_LE(p.alloc_ratio, 1.0);
    EXPECT_LE(p.sm_util, 1.0);
  }
}

TEST(Colocation, Day2ImprovesAllocationAndUtilization) {
  trace::ServingLoadConfig lcfg;
  const auto demand = trace::serving_load_curve(lcfg);
  ColocationConfig cfg;
  cfg.total_gpus = lcfg.total_gpus;
  const auto r = simulate_colocation(demand, cfg);
  EXPECT_GT(r.day2_alloc_ratio, r.day1_alloc_ratio);
  EXPECT_GT(r.day2_util, r.day1_util);
  EXPECT_GT(r.avg_training_gpus_day2, 0.0);
  EXPECT_EQ(r.failed_jobs, 0);
}

TEST(Colocation, ScaleInIsImmediate) {
  // A demand spike must be absorbed within the same minute.
  std::vector<std::int64_t> demand(120, 100);  // 2 "days" of 60 min
  for (std::size_t m = 90; m < 120; ++m) demand[m] = 900;  // day-2 spike
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 900;
  const auto r = simulate_colocation(demand, cfg);
  for (std::size_t m = 30; m < 60; ++m) {
    EXPECT_LE(r.day2[m].serving_gpus + r.day2[m].training_gpus, 1000);
  }
  EXPECT_GT(r.preemptions, 0);
}

TEST(Colocation, OddSizedDemandThrows) {
  std::vector<std::int64_t> demand(3, 10);
  EXPECT_THROW(simulate_colocation(demand, ColocationConfig{}), Error);
}

TEST(Colocation, GangModeFailsJobsWhereElasticPreempts) {
  // Same demand spike as ScaleInIsImmediate, but with gang-scheduled
  // training jobs (§2.1 baseline): every reclamation kills a job.
  std::vector<std::int64_t> demand(120, 100);
  for (std::size_t m = 90; m < 120; ++m) demand[m] = 900;
  ColocationConfig cfg;
  cfg.total_gpus = 1000;
  cfg.max_training_gpus = 900;
  const auto elastic = simulate_colocation(demand, cfg);
  cfg.elastic = false;
  const auto gang = simulate_colocation(demand, cfg);
  EXPECT_GT(elastic.preemptions, 0);
  EXPECT_EQ(elastic.failed_jobs, 0);
  EXPECT_EQ(gang.failed_jobs, gang.preemptions);
  EXPECT_GT(gang.failed_jobs, 0);
}

}  // namespace
}  // namespace easyscale::sim
