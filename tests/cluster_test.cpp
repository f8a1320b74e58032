// Multi-tenant cluster service: the calendar event core against the heap
// reference, fair-share/preemption properties, tenant traces, the
// end-to-end service determinism contract (docs/SCHEDULER.md), serving
// co-location as Fig 16 runs it, and the kGreedy/kGang allocation policies
// behind the Figs 14-15 trace experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/allocator.hpp"
#include "cluster/calendar_queue.hpp"
#include "cluster/metrics.hpp"
#include "cluster/service.hpp"
#include "cluster/tenant.hpp"
#include "common/error.hpp"
#include "fault/quarantine_feed.hpp"
#include "rng/philox.hpp"
#include "sched/companion.hpp"
#include "trace/generators.hpp"

namespace easyscale::cluster {
namespace {

// --- calendar queue ---------------------------------------------------------

TEST(CalendarQueue, DrainsInTimeThenInsertionOrder) {
  CalendarQueue<int> q;
  q.push(5.0, 1);
  q.push(1.0, 2);
  q.push(5.0, 3);  // same time as payload 1, inserted later
  q.push(0.25, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

TEST(CalendarQueue, MatchesHeapReferenceOnRandomWorkload) {
  // Mixed pushes/pops with clustered timestamps, duplicates and bursts:
  // the calendar queue must drain in exactly the heap's order.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    rng::Philox gen(seed);
    CalendarQueue<std::int64_t> cal(0.5);
    HeapEventQueue<std::int64_t> heap;
    double clock = 0.0;
    std::int64_t payload = 0;
    for (int round = 0; round < 4000; ++round) {
      const double u = gen.next_double();
      if (u < 0.6 || cal.empty()) {
        // Bursty forward pushes; 10% duplicates of the current clock.
        const double t =
            gen.next_double() < 0.1
                ? clock
                : clock + gen.next_double() * (gen.next_double() < 0.05
                                                   ? 5000.0  // far future
                                                   : 3.0);
        cal.push(t, payload);
        heap.push(t, payload);
        ++payload;
      } else {
        const auto a = cal.pop();
        const auto b = heap.pop();
        EXPECT_EQ(a.t, b.t);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.payload, b.payload);
        clock = a.t;
      }
    }
    while (!cal.empty()) {
      ASSERT_FALSE(heap.empty());
      const auto a = cal.pop();
      const auto b = heap.pop();
      EXPECT_EQ(a.t, b.t);
      EXPECT_EQ(a.payload, b.payload);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(CalendarQueue, ResizesUnderLoadAndStaysOrdered) {
  CalendarQueue<int> q(1.0);
  for (int i = 0; i < 5000; ++i) {
    q.push(static_cast<double>((i * 37) % 1000), i);
  }
  EXPECT_GT(q.resizes(), 0);
  double prev = -1.0;
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.t, prev);
    prev = e.t;
  }
}

// --- fair share -------------------------------------------------------------

TEST(FairShare, RespectsDemandAndCapacity) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kGuaranteed, 10, 1.0, 6},
      {1, SlaTier::kBurst, 4, 2.0, 20},
      {2, SlaTier::kSpot, 0, 1.0, 50},
  };
  const auto a = fair_share(reqs, 30);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a[i], reqs[i].demand);
    EXPECT_GE(a[i], 0);
    sum += a[i];
  }
  EXPECT_LE(sum, 30);
  EXPECT_EQ(sum, 30);  // demand exceeds capacity, so it all goes
}

TEST(FairShare, GuaranteedQuotaBeatsBurstAndSpotWhenOversubscribed) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 10.0, 64},
      {1, SlaTier::kGuaranteed, 16, 1.0, 64},
      {2, SlaTier::kBurst, 8, 10.0, 64},
  };
  const auto a = fair_share(reqs, 16);  // exactly the guaranteed quota
  EXPECT_EQ(a[1], 16);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[2], 0);
}

TEST(FairShare, SurplusSplitsByWeight) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 3.0, 1000},
      {1, SlaTier::kSpot, 0, 1.0, 1000},
  };
  const auto a = fair_share(reqs, 100);
  EXPECT_EQ(a[0], 75);
  EXPECT_EQ(a[1], 25);
}

TEST(FairShare, SaturatedTenantReleasesSurplusToOthers) {
  std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 1.0, 5},  // saturates far below its share
      {1, SlaTier::kSpot, 0, 1.0, 1000},
  };
  const auto a = fair_share(reqs, 100);
  EXPECT_EQ(a[0], 5);
  EXPECT_EQ(a[1], 95);
}

TEST(FairShare, EdgeCasesAndTheTieRule) {
  EXPECT_TRUE(fair_share({}, 64).empty());
  const std::vector<ShareRequest> reqs = {
      {0, SlaTier::kSpot, 0, 1.0, 10},
      {1, SlaTier::kSpot, 0, 1.0, 10},
      {2, SlaTier::kSpot, 0, 1.0, 10},
  };
  EXPECT_EQ(fair_share(reqs, 0), (std::vector<std::int64_t>{0, 0, 0}));
  // Equal headroom/weight: three equal thirds of 10 GPUs, and the one
  // remainder GPU goes to the lowest index.
  EXPECT_EQ(fair_share(reqs, 10), (std::vector<std::int64_t>{4, 3, 3}));
  // A zero-weight tenant takes no surplus, only its entitlement.
  const std::vector<ShareRequest> zero = {
      {0, SlaTier::kBurst, 2, 0.0, 10},
      {1, SlaTier::kSpot, 0, 0.0, 10},
      {2, SlaTier::kSpot, 0, 1.0, 4},
  };
  EXPECT_EQ(fair_share(zero, 20), (std::vector<std::int64_t>{2, 0, 4}));
}

TEST(FairShare, ReusedWorkspaceMatchesAFreshOne) {
  // One workspace and one output vector across request sets that grow and
  // shrink (empty included): nothing may leak from one call to the next.
  rng::Philox gen(0x5EED5ull);
  FairShareWorkspace ws;
  std::vector<std::int64_t> out;
  const double weights[] = {0.0, 0.5, 1.0, 1.0, 2.0, 3.0};
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(
        round % 50 == 0 ? 0 : gen.next_below(round % 2 == 0 ? 40 : 6));
    std::vector<ShareRequest> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      reqs[i].tenant = static_cast<std::int64_t>(i);
      reqs[i].tier = static_cast<SlaTier>(gen.next_below(3));
      reqs[i].quota = static_cast<std::int64_t>(gen.next_below(8));
      // Small weights and demands make equal headroom/weight ratios common.
      reqs[i].weight = weights[gen.next_below(6)];
      reqs[i].demand = static_cast<std::int64_t>(gen.next_below(24));
    }
    const auto capacity = static_cast<std::int64_t>(
        round % 7 == 0 ? 0 : gen.next_below(160));
    fair_share(reqs, capacity, ws, out);
    ASSERT_EQ(out, fair_share(reqs, capacity)) << "round " << round;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(out[i], 0);
      EXPECT_LE(out[i], reqs[i].demand);
      sum += out[i];
    }
    EXPECT_LE(sum, capacity);
  }
}

TEST(FairShare, JainIndexBounds) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

// --- tenant traces ----------------------------------------------------------

TEST(TenantTrace, DeterministicAndThreadInvariant) {
  const auto tenants = make_tenants(12, 256, 23);
  TenantTraceConfig cfg;
  cfg.horizon_s = 2.0 * 86400.0;
  cfg.peak_jobs_per_tenant_day = 6.0;
  cfg.threads = 1;
  const auto a = tenant_trace(tenants, cfg);
  cfg.threads = 4;
  const auto b = tenant_trace(tenants, cfg);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].spec.workload, b[i].spec.workload);
    EXPECT_EQ(a[i].spec.arrival_s, b[i].spec.arrival_s);
    EXPECT_EQ(a[i].spec.total_steps, b[i].spec.total_steps);
    if (i > 0) {
      EXPECT_GE(a[i].spec.arrival_s, a[i - 1].spec.arrival_s);
    }
  }
}

TEST(TenantTrace, DiurnalIntensityFollowsTheServingCurve) {
  // Submissions must cluster where the Fig-1 curve peaks: compare the
  // busiest to the quietest hour-of-day over a long trace.  The curve's
  // overnight trough keeps ~40% of the peak rate, so expect roughly 2x
  // contrast; assert 1.5x to stay robust to sampling noise.
  const auto tenants = make_tenants(24, 256, 5);
  TenantTraceConfig cfg;
  cfg.horizon_s = 4.0 * 86400.0;
  cfg.peak_jobs_per_tenant_day = 24.0;
  const auto jobs = tenant_trace(tenants, cfg);
  std::vector<double> by_hour(24, 0.0);
  for (const auto& j : jobs) {
    const auto day_s = std::fmod(j.spec.arrival_s, 86400.0);
    by_hour[static_cast<std::size_t>(day_s / 3600.0)] += 1.0;
  }
  double lo = by_hour[0], hi = by_hour[0];
  for (auto v : by_hour) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(TenantTrace, TsvRoundTrip) {
  const auto tenants = make_tenants(5, 64, 3);
  TenantTraceConfig cfg;
  cfg.horizon_s = 86400.0;
  const auto jobs = tenant_trace(tenants, cfg);
  const std::string path = ::testing::TempDir() + "cluster_trace.tsv";
  save_trace_tsv(path, tenants, jobs);
  std::vector<Tenant> tenants2;
  const auto jobs2 = load_trace_tsv(path, &tenants2);
  ASSERT_EQ(tenants2.size(), tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(tenants2[i].id, tenants[i].id);
    EXPECT_EQ(tenants2[i].tier, tenants[i].tier);
    EXPECT_EQ(tenants2[i].quota_gpus, tenants[i].quota_gpus);
  }
  ASSERT_EQ(jobs2.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs2[i].spec.id, jobs[i].spec.id);
    EXPECT_EQ(jobs2[i].tenant, jobs[i].tenant);
    EXPECT_EQ(jobs2[i].spec.workload, jobs[i].spec.workload);
    EXPECT_EQ(jobs2[i].spec.max_p, jobs[i].spec.max_p);
    EXPECT_EQ(jobs2[i].spec.total_steps, jobs[i].spec.total_steps);
    EXPECT_EQ(jobs2[i].spec.allow_heter, jobs[i].spec.allow_heter);
    EXPECT_NEAR(jobs2[i].spec.arrival_s, jobs[i].spec.arrival_s, 1e-6);
  }
  std::remove(path.c_str());
}

// --- the service ------------------------------------------------------------

struct ServiceFixture {
  std::vector<Tenant> tenants;
  std::vector<ClusterJob> jobs;
  ClusterServiceConfig cfg;

  explicit ServiceFixture(std::uint64_t seed = 23, std::int64_t gpus = 96,
                          double peak_jobs_per_day = 10.0,
                          std::int64_t max_steps = 4000) {
    tenants = make_tenants(9, gpus, seed);
    TenantTraceConfig tcfg;
    tcfg.seed = seed;
    tcfg.horizon_s = 86400.0;
    tcfg.peak_jobs_per_tenant_day = peak_jobs_per_day;
    tcfg.max_steps = max_steps;
    jobs = tenant_trace(tenants, tcfg);
    cfg.capacity = {gpus / 2, gpus / 4, gpus / 4};
  }

  [[nodiscard]] ClusterMetrics run() const {
    ClusterService service(tenants, jobs, cfg);
    return service.run();
  }
};

TEST(ClusterService, AllJobsFinishAndMetricsAreConsistent) {
  ServiceFixture fx;
  const auto m = fx.run();
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.events_processed, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.plan_cache_hits, 0);
  EXPECT_GT(m.fairness, 0.0);
  EXPECT_LE(m.fairness, 1.0 + 1e-12);
  std::int64_t finished = 0;
  for (int t = 0; t < 3; ++t) {
    finished += m.per_tier[t].finished;
    EXPECT_GE(m.per_tier[t].jct_p99, m.per_tier[t].jct_p90);
    EXPECT_GE(m.per_tier[t].jct_p90, m.per_tier[t].jct_p50);
  }
  EXPECT_EQ(finished, m.jobs_finished);
}

TEST(ClusterService, ReplayIsBitwiseIdentical) {
  ServiceFixture fx;
  const auto a = fx.run();
  const auto b = fx.run();
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ClusterService, QueueKindDoesNotChangeTheSchedule) {
  // The calendar queue is a performance structure, not a policy: swapping
  // it for the heap must leave the schedule bitwise unchanged.
  ServiceFixture fx;
  ClusterServiceConfig heap_cfg = fx.cfg;
  heap_cfg.queue = QueueKind::kHeap;
  ClusterService cal(fx.tenants, fx.jobs, fx.cfg);
  ClusterService heap(fx.tenants, fx.jobs, heap_cfg);
  const auto a = cal.run();
  const auto b = heap.run();
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ClusterService, CapacityFeedsPreemptElasticallyNeverKill) {
  // A small, hot cluster so that losing capacity genuinely forces shrinks.
  ServiceFixture fx(/*seed=*/23, /*gpus=*/16, /*peak_jobs_per_day=*/40.0,
                    /*max_steps=*/20000);
  // Yank a large slice of the cluster mid-trace: failures (repairable),
  // SDC quarantine (permanent) and a degraded fabric link.
  for (int i = 0; i < 8; ++i) {
    fx.cfg.failures.push_back({20000.0 + 500.0 * i, 0, 30000.0});
  }
  fx.cfg.quarantines.push_back({30000.0, 1});
  fx.cfg.quarantines.push_back({31000.0, 1});
  fx.cfg.link_degrades.push_back({25000.0, 40000.0, 2, 4, 0.5});
  const auto m = fx.run();
  // Elastic revocation: every job still finishes, and shrink events were
  // actually exercised.
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.preemptions, 0);
  // The feeds must change the schedule (they really bite).
  const auto clean = ServiceFixture(23, 16, 40.0, 20000).run();
  EXPECT_NE(m.schedule_digest, clean.schedule_digest);
  // And replay deterministically.
  const auto replay = fx.run();
  EXPECT_EQ(m.schedule_digest, replay.schedule_digest);
  EXPECT_EQ(m.to_json(), replay.to_json());
}

TEST(ClusterService, GuaranteedTierOutperformsSpotUnderContention) {
  // Small cluster, heavy load: the SLA machinery must give guaranteed
  // tenants shorter median JCTs than spot tenants.
  ServiceFixture fx(/*seed=*/7, /*gpus=*/48);
  const auto m = fx.run();
  const auto& g = m.per_tier[static_cast<int>(SlaTier::kGuaranteed)];
  const auto& s = m.per_tier[static_cast<int>(SlaTier::kSpot)];
  ASSERT_GT(g.finished, 0);
  ASSERT_GT(s.finished, 0);
  EXPECT_LT(g.jct_p50, s.jct_p50);
  EXPECT_GE(g.attainment(), s.attainment() - 1e-12);
}

TEST(ClusterService, ServingColocationLendsAndReturnsCapacity) {
  ServiceFixture fx(/*seed=*/23, /*gpus=*/16, /*peak_jobs_per_day=*/40.0,
                    /*max_steps=*/20000);
  fx.cfg.serving_colocation = true;
  fx.cfg.serving.minutes = 2880;
  fx.cfg.serving_peak_fraction = 0.6;
  const auto m = fx.run();
  EXPECT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.preemptions, 0);  // the serving peak must claw back GPUs
  const auto replay = fx.run();
  EXPECT_EQ(m.schedule_digest, replay.schedule_digest);
}

// --- serving co-location: the Fig 16 model ----------------------------------
//
// The suite name (Colocation) is kept from the minute loop these checks
// were first written against.

/// Fig 16 in miniature: one 100-GPU device type lends GPUs to the two-day
/// serving curve every minute (a peak fraction of (curve peak + 0.5) /
/// capacity makes the lent count the curve's value: the service truncates,
/// and the half GPU keeps rounding error from landing one GPU short), and
/// six ResNet50 jobs of maxP 4 arrive at the start of day 2.
struct ColocationFixture {
  static constexpr double kDayS = 86400.0;
  static constexpr std::int64_t kGpus = 100;
  static constexpr std::int64_t kDemand = 24;  // the jobs' summed maxP
  std::vector<std::int64_t> curve;
  ClusterServiceConfig cfg;
  std::vector<sim::JobSpec> jobs;

  ColocationFixture() {
    cfg.serving.total_gpus = kGpus;
    curve = trace::serving_load_curve(cfg.serving);
    cfg.capacity = {kGpus, 0, 0};
    cfg.serving_colocation = true;
    cfg.serving_update_period_s = 60.0;
    cfg.serving_peak_fraction =
        (static_cast<double>(*std::max_element(curve.begin(), curve.end())) +
         0.5) /
        static_cast<double>(kGpus);
    // Two days of steps at full width: no job drains before day 2 ends.
    const double full_rate =
        sched::Companion("ResNet50", 4).make_plan({4, 0, 0}).steps_per_second;
    for (std::int64_t i = 0; i < kDemand / 4; ++i) {
      sim::JobSpec s;
      s.id = i;
      s.max_p = 4;
      s.arrival_s = kDayS;
      s.total_steps = static_cast<std::int64_t>(2.0 * kDayS * full_rate);
      jobs.push_back(s);
    }
  }

  [[nodiscard]] ClusterMetrics run(AllocationPolicy policy) {
    cfg.policy = policy;
    ClusterService service({Tenant{}}, single_tenant_jobs(jobs, true), cfg);
    return service.run();
  }

  /// Serving GPUs during the minute that holds `t_s` (0 past the curve).
  [[nodiscard]] std::int64_t served_at(double t_s) const {
    const auto m = static_cast<std::size_t>(t_s / 60.0);
    return m < curve.size() ? curve[m] : 0;
  }
};

/// Allocated GPUs at time `t_s` on a step timeline.
std::int64_t allocated_at(const ClusterMetrics& m, double t_s) {
  std::int64_t gpus = 0;
  for (const auto& p : m.allocated_gpus) {
    if (p.t_s > t_s) break;
    gpus = p.gpus;
  }
  return gpus;
}

TEST(Colocation, ConservationAndBounds) {
  ColocationFixture fx;
  const auto m = fx.run(AllocationPolicy::kGreedy);
  ASSERT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.makespan, 2.0 * ColocationFixture::kDayS);
  ASSERT_FALSE(m.allocated_gpus.empty());
  for (const auto& p : m.allocated_gpus) {
    EXPECT_GE(p.t_s, ColocationFixture::kDayS);  // day 1 is serving-only
    EXPECT_GE(p.gpus, 0);
    EXPECT_LE(p.gpus, ColocationFixture::kDemand);
    EXPECT_LE(fx.served_at(p.t_s) + p.gpus, ColocationFixture::kGpus)
        << "at t=" << p.t_s;
  }
}

TEST(Colocation, Day2ImprovesAllocation) {
  ColocationFixture fx;
  const auto m = fx.run(AllocationPolicy::kGreedy);
  const std::size_t day = fx.curve.size() / 2;
  std::int64_t day1 = 0, day2 = 0, training = 0;
  for (std::size_t i = 0; i < day; ++i) {
    day1 += fx.curve[i];
    const std::int64_t t = allocated_at(
        m, ColocationFixture::kDayS + 60.0 * static_cast<double>(i));
    day2 += fx.curve[day + i] + t;
    training += t;
  }
  EXPECT_GT(day2, day1);
  EXPECT_GT(training, 0);
  EXPECT_EQ(m.failed_jobs, 0);
}

TEST(Colocation, ScaleInIsImmediate) {
  // Wherever a serving step leaves fewer free GPUs than training holds,
  // training must shrink at that same capacity step.
  ColocationFixture fx;
  const auto m = fx.run(AllocationPolicy::kGreedy);
  std::int64_t spikes = 0;
  for (std::size_t i = fx.curve.size() / 2 + 1; i < fx.curve.size(); ++i) {
    const double t = 60.0 * static_cast<double>(i);
    const std::int64_t free = ColocationFixture::kGpus - fx.curve[i];
    if (allocated_at(m, t - 60.0) <= free) continue;
    ++spikes;
    EXPECT_LE(allocated_at(m, t), free) << "minute " << i;
  }
  EXPECT_GT(spikes, 0);
  EXPECT_GT(m.preemptions, 0);
}

TEST(Colocation, GangModeFailsJobsWhereElasticPreempts) {
  // The same jobs gang-scheduled (§2.1 baseline): a gang cannot shrink,
  // so every reclamation kills one.
  ColocationFixture fx;
  const auto elastic = fx.run(AllocationPolicy::kGreedy);
  const auto gang = fx.run(AllocationPolicy::kGang);
  EXPECT_GT(elastic.preemptions, 0);
  EXPECT_EQ(elastic.failed_jobs, 0);
  EXPECT_GT(gang.failed_jobs, 0);
  EXPECT_EQ(gang.failed_jobs, gang.preemptions);
  EXPECT_GT(gang.lost_steps, 0);
}

// --- allocation policies: the Figs 14-15 trace experiment ------------------
//
// The suite names below (PolicyTest, Simulator*, SimSdc) are kept from the
// tick simulator these checks were first written against.

std::vector<sim::JobSpec> small_trace(std::int64_t n = 20) {
  trace::TraceConfig cfg;
  cfg.num_jobs = n;
  cfg.mean_interarrival_s = 60.0;
  return trace::philly_like_trace(cfg);
}

ClusterServiceConfig policy_config(AllocationPolicy policy) {
  ClusterServiceConfig cfg;
  cfg.capacity = {8, 4, 4};
  cfg.policy = policy;
  return cfg;
}

struct PolicyRun {
  ClusterMetrics m;
  std::vector<double> start_s;
  std::vector<double> finish_s;
};

PolicyRun run_policy(const std::vector<sim::JobSpec>& trace,
                     const ClusterServiceConfig& cfg, bool heter = true) {
  ClusterService service({Tenant{}}, single_tenant_jobs(trace, heter), cfg);
  PolicyRun r;
  r.m = service.run();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    r.start_s.push_back(service.start_s(i));
    r.finish_s.push_back(service.finish_s(i));
  }
  return r;
}

class PolicyTest : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(PolicyTest, AllJobsFinishWithValidTimestamps) {
  const auto jobs = small_trace();
  const auto r = run_policy(jobs, policy_config(GetParam()));
  ASSERT_EQ(r.m.jobs_finished, static_cast<std::int64_t>(jobs.size()));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(r.start_s[i], jobs[i].arrival_s);
    EXPECT_GT(r.finish_s[i], r.start_s[i]);
    EXPECT_LE(r.finish_s[i], r.m.makespan);
  }
  EXPECT_GT(r.m.mean_jct(), 0.0);
}

TEST_P(PolicyTest, AllocationNeverExceedsCluster) {
  const auto cfg = policy_config(GetParam());
  const auto r = run_policy(small_trace(), cfg);
  ASSERT_FALSE(r.m.allocated_gpus.empty());
  for (std::size_t i = 0; i < r.m.allocated_gpus.size(); ++i) {
    const auto& p = r.m.allocated_gpus[i];
    EXPECT_LE(p.gpus, sched::total(cfg.capacity));
    EXPECT_GE(p.gpus, 0);
    // A step timeline: a point only where the total changes.
    if (i > 0) {
      EXPECT_NE(p.gpus, r.m.allocated_gpus[i - 1].gpus);
      EXPECT_GE(p.t_s, r.m.allocated_gpus[i - 1].t_s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(AllocationPolicy::kFairShare,
                                           AllocationPolicy::kGreedy,
                                           AllocationPolicy::kGang));

TEST(Simulator, YarnIsFIFO) {
  const auto jobs = small_trace();
  const auto r = run_policy(jobs, policy_config(AllocationPolicy::kGang));
  // Start order must follow arrival order (strict FIFO admission).
  std::vector<std::size_t> by_arrival(jobs.size());
  std::iota(by_arrival.begin(), by_arrival.end(), std::size_t{0});
  std::stable_sort(by_arrival.begin(), by_arrival.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].arrival_s < jobs[b].arrival_s;
                   });
  for (std::size_t i = 1; i < by_arrival.size(); ++i) {
    EXPECT_GE(r.start_s[by_arrival[i]], r.start_s[by_arrival[i - 1]]);
  }
}

TEST(Simulator, ElasticBeatsGangSchedulingOnJctAndMakespan) {
  const auto jobs = small_trace(30);
  const auto yarn = run_policy(jobs, policy_config(AllocationPolicy::kGang));
  const auto homo = run_policy(jobs, policy_config(AllocationPolicy::kGreedy),
                               /*heter=*/false);
  EXPECT_LT(homo.m.mean_jct(), yarn.m.mean_jct());
  EXPECT_LE(homo.m.makespan, yarn.m.makespan);
}

TEST(Simulator, HeterUsesAtLeastAsManyGpusAsHomo) {
  const auto jobs = small_trace(30);
  const auto cfg = policy_config(AllocationPolicy::kGreedy);
  const auto homo = run_policy(jobs, cfg, /*heter=*/false);
  const auto heter = run_policy(jobs, cfg, /*heter=*/true);
  EXPECT_GE(heter.m.mean_allocated_gpus(), homo.m.mean_allocated_gpus());
}

TEST(Simulator, EmptyTraceThrows) {
  EXPECT_THROW(ClusterService({Tenant{}}, {},
                              policy_config(AllocationPolicy::kGang)),
               Error);
}

std::vector<sim::JobSpec> failure_trace_jobs() {
  // Two gang-sized jobs sharing one V100 partition; a revocation while
  // both run forces the gang baseline to kill one of them.
  std::vector<sim::JobSpec> jobs(2);
  for (std::int64_t i = 0; i < 2; ++i) {
    auto& j = jobs[static_cast<std::size_t>(i)];
    j.id = i;
    j.workload = "ResNet50";
    j.max_p = 4;
    j.arrival_s = 0.0;
    j.total_steps = 5000;
    j.allow_heter = false;
    j.preferred_type = kernels::DeviceType::kV100;
  }
  return jobs;
}

ClusterServiceConfig failure_config(AllocationPolicy policy) {
  ClusterServiceConfig cfg;
  cfg.capacity = {8, 0, 0};
  cfg.policy = policy;
  // Two V100s revoked at t=100s, repaired 500s later.
  cfg.failures = {{100.0, 0, 500.0}, {100.0, 0, 500.0}};
  return cfg;
}

TEST(SimulatorFailures, EasyScaleSurvivesRevocationsWithoutFailedJobs) {
  const auto r = run_policy(failure_trace_jobs(),
                            failure_config(AllocationPolicy::kGreedy));
  EXPECT_EQ(r.m.jobs_finished, 2);
  EXPECT_GT(r.m.preemptions, 0) << "the revocation must shrink a job";
  EXPECT_EQ(r.m.failed_jobs, 0) << "elastic jobs scale in instead of dying";
  EXPECT_EQ(r.m.lost_steps, 0);
}

TEST(SimulatorFailures, GangBaselineKillsAndLosesProgress) {
  const auto r = run_policy(failure_trace_jobs(),
                            failure_config(AllocationPolicy::kGang));
  EXPECT_EQ(r.m.jobs_finished, 2);  // killed jobs restart and still finish
  EXPECT_GT(r.m.failed_jobs, 0) << "gang jobs cannot shrink below strength";
  EXPECT_GT(r.m.lost_steps, 0) << "restart discards the gang's progress";
  // The victim is the later-started gang; ties go to the higher job id.
  EXPECT_GT(r.start_s[1], r.start_s[0]);
}

TEST(SimulatorFailures, FailureFreeConfigMatchesBaselineBehaviour) {
  // Without a failure feed the gang accounting stays zero.
  const auto r =
      run_policy(small_trace(10), policy_config(AllocationPolicy::kGang));
  EXPECT_EQ(r.m.failed_jobs, 0);
  EXPECT_EQ(r.m.lost_steps, 0);
}

TEST(SimulatorFailures, MtbfTraceDrivenRunCompletes) {
  // End-to-end: a generated MTBF failure process feeding the service.
  const auto jobs = small_trace(10);
  auto cfg = policy_config(AllocationPolicy::kGreedy);
  trace::FailureTraceConfig fcfg;
  fcfg.cluster = cfg.capacity;
  fcfg.horizon_s = 1.0e5;
  fcfg.mtbf_per_gpu_s = 2.0e4;  // aggressive so failures actually land
  cfg.failures = trace::gpu_failure_trace(fcfg);
  ASSERT_FALSE(cfg.failures.empty());
  const auto r = run_policy(jobs, cfg);
  EXPECT_EQ(r.m.jobs_finished, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(r.m.failed_jobs, 0);
  EXPECT_EQ(r.m.lost_steps, 0);
}

TEST(SimSdc, DefendedFleetQuarantinesAndNeverPoisons) {
  // SDC condemnations reach the cluster as the quarantine feed and remove
  // devices for good; kGreedy rebuilds inside the smaller pool, so every
  // job still finishes and none is killed.
  const auto jobs = small_trace(12);
  auto cfg = policy_config(AllocationPolicy::kGreedy);
  fault::QuarantineTraceConfig qcfg;
  qcfg.cluster = cfg.capacity;
  qcfg.rate_per_gpu_s = {2e-5, 2e-5, 2e-5};
  qcfg.horizon_s = 2e4;
  cfg.quarantines = fault::sdc_quarantine_trace(qcfg);
  ASSERT_FALSE(cfg.quarantines.empty());
  const auto r = run_policy(jobs, cfg);
  EXPECT_EQ(r.m.jobs_finished, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(r.m.failed_jobs, 0);
  EXPECT_EQ(r.m.lost_steps, 0);
  const auto clean =
      run_policy(jobs, policy_config(AllocationPolicy::kGreedy));
  EXPECT_NE(r.m.schedule_digest, clean.m.schedule_digest);
}

TEST(ClusterService, QueueKindDoesNotChangeTheScheduleUnderAnyPolicy) {
  const auto jobs = small_trace(16);
  for (const auto policy :
       {AllocationPolicy::kFairShare, AllocationPolicy::kGreedy,
        AllocationPolicy::kGang}) {
    auto cfg = policy_config(policy);
    trace::FailureTraceConfig fcfg;
    fcfg.cluster = cfg.capacity;
    fcfg.horizon_s = 1.0e5;
    fcfg.mtbf_per_gpu_s = 2.0e4;
    cfg.failures = trace::gpu_failure_trace(fcfg);
    auto heap_cfg = cfg;
    heap_cfg.queue = QueueKind::kHeap;
    const auto cal = run_policy(jobs, cfg);
    const auto heap = run_policy(jobs, heap_cfg);
    EXPECT_EQ(cal.m.schedule_digest, heap.m.schedule_digest)
        << policy_name(policy);
    EXPECT_EQ(cal.m.to_json(), heap.m.to_json()) << policy_name(policy);
    EXPECT_EQ(cal.m.failed_jobs, heap.m.failed_jobs) << policy_name(policy);
    EXPECT_EQ(cal.m.lost_steps, heap.m.lost_steps) << policy_name(policy);
    EXPECT_EQ(cal.finish_s, heap.finish_s) << policy_name(policy);
  }
}

TEST(ClusterService, SingleTenantPoliciesRejectMultiTenantConfigs) {
  ServiceFixture fx;
  for (const auto policy :
       {AllocationPolicy::kGreedy, AllocationPolicy::kGang}) {
    fx.cfg.policy = policy;
    try {
      ClusterService service(fx.tenants, fx.jobs, fx.cfg);
      ADD_FAILURE() << policy_name(policy) << " accepted 9 tenants";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(policy_name(policy)),
                std::string::npos)
          << e.what();
    }
  }
}

// --- golden schedules -------------------------------------------------------
//
// The other service tests compare two runs of the same tree (calendar vs
// heap, a run vs its replay).  These pin the schedule itself: the digest,
// an FNV-1a of to_json() (plan-cache hits and misses included), the gang
// kill accounting and the allocated-GPU timeline, as recorded before the
// fair-share rebalance went allocation-free.  A change here changes a
// scheduling decision.

struct Golden {
  std::uint64_t digest;
  std::uint64_t json_fnv;
  std::uint64_t timeline_fnv;
  std::int64_t failed_jobs;
  std::int64_t lost_steps;
};

std::uint64_t fnv1a_bytes(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t timeline_fnv(const ClusterMetrics& m) {
  std::uint64_t h = kFnvOffset;
  for (const auto& p : m.allocated_gpus) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p.t_s, sizeof bits);
    h = fnv1a64(fnv1a64(h, bits), static_cast<std::uint64_t>(p.gpus));
  }
  return h;
}

void expect_golden(const ClusterMetrics& m, const Golden& g) {
  EXPECT_EQ(m.schedule_digest, g.digest);
  EXPECT_EQ(fnv1a_bytes(m.to_json()), g.json_fnv);
  EXPECT_EQ(timeline_fnv(m), g.timeline_fnv);
  EXPECT_EQ(m.failed_jobs, g.failed_jobs);
  EXPECT_EQ(m.lost_steps, g.lost_steps);
}

TEST(ClusterGolden, FairShareMultiTenantWithEveryCapacityFeed) {
  // Nine tenants on 16 GPUs, kept busy: failures, one SDC quarantine, one
  // degraded link and serving co-location all take capacity mid-trace.
  ServiceFixture fx(/*seed=*/31, /*gpus=*/16, /*peak_jobs_per_day=*/40.0,
                    /*max_steps=*/20000);
  for (int i = 0; i < 4; ++i) {
    fx.cfg.failures.push_back({15000.0 + 2000.0 * i, i % 3, 9000.0});
  }
  fx.cfg.quarantines.push_back({26000.0, 1});
  fx.cfg.link_degrades.push_back({20000.0, 30000.0, 0, 3, 0.5});
  fx.cfg.serving_colocation = true;
  fx.cfg.serving.minutes = 2880;
  fx.cfg.serving_peak_fraction = 0.4;
  const auto m = fx.run();
  ASSERT_EQ(m.jobs_finished, static_cast<std::int64_t>(fx.jobs.size()));
  EXPECT_GT(m.preemptions, 0);
  expect_golden(m, {0x19AFEFFC689EFCB6ull, 0x2FE7EDE0D425AB1Eull,
                    0x5FF0CC379C90F913ull, 0, 0});
}

ClusterServiceConfig golden_single_tenant_config(AllocationPolicy policy) {
  auto cfg = policy_config(policy);
  trace::FailureTraceConfig fcfg;
  fcfg.cluster = cfg.capacity;
  fcfg.horizon_s = 1.0e5;
  fcfg.mtbf_per_gpu_s = 2.0e4;
  cfg.failures = trace::gpu_failure_trace(fcfg);
  return cfg;
}

TEST(ClusterGolden, GreedySingleTenant) {
  const auto r = run_policy(
      small_trace(24), golden_single_tenant_config(AllocationPolicy::kGreedy));
  ASSERT_EQ(r.m.jobs_finished, 24);
  expect_golden(r.m, {0x907C45749AA14939ull, 0x1DE20A83189931CFull,
                      0xD4D9B7EB09672743ull, 0, 0});
}

TEST(ClusterGolden, GangSingleTenant) {
  const auto r = run_policy(
      small_trace(24), golden_single_tenant_config(AllocationPolicy::kGang));
  ASSERT_EQ(r.m.jobs_finished, 24);
  expect_golden(r.m, {0xDFF5679F424CB94Aull, 0x6BBE9B145905E109ull,
                      0xC75CD9B9062A33A5ull, 10, 15095});
}

// --- quarantine feed --------------------------------------------------------

TEST(QuarantineFeed, TraceIsDeterministicSortedAndBounded) {
  fault::QuarantineTraceConfig cfg;
  cfg.cluster = {16, 8, 4};
  cfg.rate_per_gpu_s = {1e-5, 2e-5, 5e-5};
  cfg.horizon_s = 1e6;
  const auto a = fault::sdc_quarantine_trace(cfg);
  const auto b = fault::sdc_quarantine_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  std::array<std::int64_t, 3> per_type{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].device_type, b[i].device_type);
    if (i > 0) {
      EXPECT_GE(a[i].t_s, a[i - 1].t_s);
    }
    ++per_type[static_cast<std::size_t>(a[i].device_type)];
  }
  for (int t = 0; t < 3; ++t) {
    EXPECT_LE(per_type[static_cast<std::size_t>(t)],
              cfg.cluster[static_cast<std::size_t>(t)]);
  }
}

}  // namespace
}  // namespace easyscale::cluster
