// Fig 16: one-day statistic on the 3,000+ GPU production cluster, run on
// the cluster service.  One two-day service lends GPUs to the Fig-1
// serving curve minute by minute.  Day 1 is serving-only (no job arrives);
// at the start of day 2 a fixed set of long elastic jobs arrives and fills
// the idle GPUs, scaling in at the capacity step where serving demand
// returns.  The same jobs under kGang are the §2.1 baseline.
// Paper: +17.1% GPU allocation ratio, +62.1% average GPU (SM) utilization,
// 362 preemptions, zero failed jobs, ~459 idle GPUs used on average.
//
// Exit code: non-zero unless the day-2 allocation gain lies within
// [+12, +22] points, day-2 SM utilization exceeds day 1's, the EasyScale
// run fails no job and preempts at least once, and the gang run fails at
// least one job.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cluster/service.hpp"
#include "sched/companion.hpp"
#include "trace/generators.hpp"

namespace {

using namespace easyscale;

constexpr double kDayS = 86400.0;
constexpr std::size_t kDayMin = 1440;
/// SM utilization of a busy serving GPU at load fraction f is
/// kServingUtilBase + kServingUtilSlope * f; a training GPU runs at
/// kTrainingUtil.
constexpr double kServingUtilBase = 0.20;
constexpr double kServingUtilSlope = 0.28;
constexpr double kTrainingUtil = 0.92;
/// Day-2 jobs: 65 ResNet50 jobs of maxP 8, i.e. the 520-GPU training
/// demand the business submits.
constexpr std::int64_t kJobs = 65;
constexpr std::int64_t kMaxP = 8;

/// Allocated GPUs at time `t` on a step timeline.
std::int64_t allocated_at(const cluster::ClusterMetrics& m, double t) {
  std::int64_t gpus = 0;
  for (const auto& p : m.allocated_gpus) {
    if (p.t_s > t) break;
    gpus = p.gpus;
  }
  return gpus;
}

/// Cluster-average SM utilization of one minute.
double sm_util(std::int64_t serving, std::int64_t training, double total) {
  const auto s = static_cast<double>(serving);
  return (s * (kServingUtilBase + kServingUtilSlope * s / total) +
          static_cast<double>(training) * kTrainingUtil) /
         total;
}

}  // namespace

int main() {
  bench::banner("Fig 16", "production co-location, day-1 vs day-2");

  const trace::ServingLoadConfig lcfg;
  const auto demand = trace::serving_load_curve(lcfg);
  const std::int64_t peak = *std::max_element(demand.begin(), demand.end());
  const auto total = static_cast<double>(lcfg.total_gpus);

  cluster::ClusterServiceConfig cfg;
  cfg.capacity = {lcfg.total_gpus, 0, 0};
  cfg.serving_colocation = true;
  cfg.serving = lcfg;
  cfg.serving_update_period_s = 60.0;
  // The lent capacity follows the curve GPU for GPU: the service truncates
  // curve / peak * fraction * total, and the half GPU keeps rounding error
  // from landing one GPU short of the curve.
  cfg.serving_peak_fraction = (static_cast<double>(peak) + 0.5) / total;

  // Each job holds two days of steps at full width, so none drains
  // before day 2 ends.
  const double full_rate =
      sched::Companion("ResNet50", kMaxP).make_plan({kMaxP, 0, 0})
          .steps_per_second;
  std::vector<sim::JobSpec> specs(static_cast<std::size_t>(kJobs));
  for (std::int64_t i = 0; i < kJobs; ++i) {
    auto& s = specs[static_cast<std::size_t>(i)];
    s.id = i;
    s.workload = "ResNet50";
    s.max_p = kMaxP;
    s.arrival_s = kDayS;
    s.total_steps = static_cast<std::int64_t>(2.0 * kDayS * full_rate);
  }
  auto run = [&](cluster::AllocationPolicy policy) {
    cfg.policy = policy;
    cluster::ClusterService service(
        {cluster::Tenant{}}, cluster::single_tenant_jobs(specs, true), cfg);
    return service.run();
  };
  const auto easyscale = run(cluster::AllocationPolicy::kGreedy);
  const auto gang = run(cluster::AllocationPolicy::kGang);

  std::printf("%8s %16s %16s %10s %8s\n", "hour", "day1_alloc%",
              "day2_alloc%", "train_gpus", "util2%");
  // Day sums of the allocation ratio, SM utilization and training GPUs.
  double alloc1 = 0.0, alloc2 = 0.0, util1 = 0.0, util2 = 0.0, training = 0.0;
  for (std::size_t m = 0; m < kDayMin; ++m) {
    const std::int64_t serving1 = demand[m];
    const std::int64_t serving2 = demand[kDayMin + m];
    const std::int64_t train =
        allocated_at(easyscale, kDayS + 60.0 * static_cast<double>(m));
    if (serving2 + train > lcfg.total_gpus) {
      std::printf("ERROR: minute %zu of day 2 holds more GPUs than the "
                  "cluster\n", m);
      return 1;
    }
    alloc1 += static_cast<double>(serving1) / total;
    alloc2 += static_cast<double>(serving2 + train) / total;
    util1 += sm_util(serving1, 0, total);
    util2 += sm_util(serving2, train, total);
    training += static_cast<double>(train);
    if (m % 60 == 0) {
      std::printf("%8zu %15.1f%% %15.1f%% %10lld %7.1f%%\n", m / 60,
                  100.0 * static_cast<double>(serving1) / total,
                  100.0 * static_cast<double>(serving2 + train) / total,
                  static_cast<long long>(train),
                  100.0 * sm_util(serving2, train, total));
    }
  }
  for (double* sum : {&alloc1, &alloc2, &util1, &util2, &training}) {
    *sum /= static_cast<double>(kDayMin);
  }
  const double gain = 100.0 * (alloc2 - alloc1);

  std::printf("\nsummary:\n");
  std::printf("  GPU allocation ratio: %.1f%% -> %.1f%% (+%.1f%%; paper "
              "+17.1%%)\n",
              100.0 * alloc1, 100.0 * alloc2, gain);
  std::printf("  avg GPU SM utilization: %.1f%% -> %.1f%% (+%.1f%% relative; "
              "paper +62.1%%)\n",
              100.0 * util1, 100.0 * util2, 100.0 * (util2 / util1 - 1.0));
  std::printf("  avg idle GPUs used by EasyScale: %.0f (paper: 459)\n",
              training);
  std::printf("  EasyScale (kGreedy): %lld preemptions (job shrinks), %lld "
              "failed jobs (paper: 362 preemptions, 0 failures)\n",
              static_cast<long long>(easyscale.preemptions),
              static_cast<long long>(easyscale.failed_jobs));
  std::printf("  gang baseline (kGang): %lld failed jobs (kills), %lld lost "
              "steps\n",
              static_cast<long long>(gang.failed_jobs),
              static_cast<long long>(gang.lost_steps));
  bench::note("scale-in and refill both happen at the capacity step that "
              "moves the serving demand (updates every 60 s).");

  bool ok = true;
  if (gain < 12.0 || gain > 22.0) {
    std::printf("ERROR: day-2 allocation gain %.1f points outside "
                "[+12, +22]\n", gain);
    ok = false;
  }
  if (util2 <= util1) {
    std::printf("ERROR: day-2 SM utilization must exceed day 1's\n");
    ok = false;
  }
  if (easyscale.failed_jobs != 0 || easyscale.preemptions < 1) {
    std::printf("ERROR: EasyScale must preempt and fail no job\n");
    ok = false;
  }
  if (gang.failed_jobs < 1) {
    std::printf("ERROR: the gang baseline must fail at least one job\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
