// Companion module: Eq. (1) waste/throughput model, plan construction,
// proposals and the inter-job ranking rules (sched::grow_greedily).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "models/profile.hpp"
#include "sched/companion.hpp"

namespace easyscale::sched {
namespace {

TEST(Companion, CapabilityFollowsProfile) {
  Companion c("ResNet50", 8);
  EXPECT_DOUBLE_EQ(c.capability(DeviceType::kV100),
                   models::profiled_throughput("ResNet50",
                                               DeviceType::kV100));
  EXPECT_GT(c.capability(DeviceType::kV100), c.capability(DeviceType::kT4));
}

TEST(Companion, SingleGpuPlan) {
  Companion c("ResNet50", 4);
  GpuVector g{1, 0, 0};
  const Plan p = c.make_plan(g);
  ASSERT_TRUE(p.valid());
  // All 4 ESTs serialized on one V100: f = 4 / C.
  const double cap = c.capability(DeviceType::kV100);
  EXPECT_DOUBLE_EQ(p.f_overload, 4.0 / cap);
  EXPECT_NEAR(p.throughput, cap, 1e-9);  // no waste on a single GPU
  EXPECT_NEAR(p.waste, 0.0, 1e-9);
}

TEST(Companion, BalancedHomogeneousPlanHasNoWaste) {
  Companion c("Bert", 8);
  GpuVector g{4, 0, 0};
  const Plan p = c.make_plan(g);
  // 8 ESTs over 4 equal GPUs: 2 each, perfectly balanced.
  for (auto ests : p.ests) EXPECT_EQ(ests, 2);
  EXPECT_NEAR(p.waste, 0.0, 1e-9);
  EXPECT_NEAR(p.throughput, 4.0 * c.capability(DeviceType::kV100), 1e-9);
}

TEST(Companion, ImbalancedPlanReportsWaste) {
  Companion c("Bert", 3);
  GpuVector g{2, 0, 0};
  const Plan p = c.make_plan(g);
  // 3 ESTs over 2 GPUs: 2+1; the 1-EST GPU idles half the step.
  EXPECT_GT(p.waste, 0.0);
  EXPECT_LT(p.throughput, 2.0 * c.capability(DeviceType::kV100));
}

TEST(Companion, HeterogeneousPlanLoadsBalanceByCapability) {
  Companion c("Bert", 8);
  GpuVector g{1, 0, 1};  // one V100 + one T4
  const Plan p = c.make_plan(g);
  // The V100 must take more ESTs than the T4.
  EXPECT_GT(p.ests[0], p.ests[1]);
  EXPECT_EQ(p.ests[0] + p.ests[1], 8);
}

TEST(Companion, MoreGpusThanEstsIsInvalid) {
  Companion c("Bert", 2);
  GpuVector g{4, 0, 0};
  EXPECT_FALSE(c.make_plan(g).valid());
}

TEST(Companion, EmptyPlanInvalid) {
  Companion c("Bert", 4);
  EXPECT_FALSE(c.make_plan(GpuVector{}).valid());
}

TEST(Companion, BestPlanHomoUsesSingleType) {
  Companion c("Bert", 8);
  GpuVector avail{4, 16, 16};
  const Plan p = c.best_plan(avail, /*allow_heter=*/false);
  ASSERT_TRUE(p.valid());
  int types_used = 0;
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    if (p.gpus[static_cast<std::size_t>(t)] > 0) ++types_used;
  }
  EXPECT_EQ(types_used, 1);
}

TEST(Companion, BestPlanHeterBeatsHomoOnFragmentedPool) {
  // Only 2 V100 free but plenty of weak GPUs: mixing must win.
  Companion c("Bert", 16);
  GpuVector avail{2, 4, 4};
  const Plan homo = c.best_plan(avail, false);
  const Plan heter = c.best_plan(avail, true);
  ASSERT_TRUE(homo.valid());
  ASSERT_TRUE(heter.valid());
  EXPECT_GT(heter.throughput, homo.throughput);
}

TEST(Companion, BestPlanWalksThroughPlateaus) {
  // maxP=4 on 4 available V100: the 2->3 GPU step is a plateau (assignment
  // 2+1+1 has the same f_overload as 2+2) but 4 GPUs is strictly better.
  Companion c("Bert", 4);
  GpuVector avail{4, 0, 0};
  const Plan p = c.best_plan(avail, true);
  EXPECT_EQ(p.gpus[0], 4);
}

TEST(Companion, ProposalsAreRankedBySpeedupPerGpu) {
  Companion c("Bert", 16);
  const Plan current = c.make_plan(GpuVector{2, 0, 0});
  GpuVector avail{8, 8, 8};
  const auto props = c.proposals(current, avail, true, 10);
  ASSERT_FALSE(props.empty());
  for (std::size_t i = 1; i < props.size(); ++i) {
    EXPECT_GE(props[i - 1].speedup_per_gpu(), props[i].speedup_per_gpu());
  }
  for (const auto& p : props) {
    EXPECT_GT(p.speedup, 1.0);
    EXPECT_GT(p.plan.throughput, current.throughput);
  }
}

TEST(Companion, HomoProposalsStayInType) {
  Companion c("Bert", 16);
  const Plan current = c.make_plan(GpuVector{2, 0, 0});
  GpuVector avail{8, 8, 8};
  for (const auto& p : c.proposals(current, avail, /*allow_heter=*/false)) {
    EXPECT_EQ(p.extra_gpus[1], 0);
    EXPECT_EQ(p.extra_gpus[2], 0);
  }
}

TEST(Companion, ProposalsRespectAvailability) {
  Companion c("Bert", 16);
  const Plan current = c.make_plan(GpuVector{2, 0, 0});
  GpuVector avail{1, 0, 0};
  for (const auto& p : c.proposals(current, avail, true)) {
    EXPECT_LE(p.extra_gpus[0], 1);
  }
}

TEST(Companion, ThroughputReportRecalibrates) {
  Companion c("Bert", 8);
  const Plan p = c.make_plan(GpuVector{2, 0, 0});
  const double before = c.capability(DeviceType::kV100);
  c.report_throughput(p, p.throughput * 2.0);  // estimate was 2x off
  EXPECT_NEAR(c.capability(DeviceType::kV100), 2.0 * before, 1e-9);
  // Small bias (within 20%) is ignored.
  const Plan p2 = c.make_plan(GpuVector{2, 0, 0});
  const double mid = c.capability(DeviceType::kV100);
  c.report_throughput(p2, p2.throughput * 1.05);
  EXPECT_NEAR(c.capability(DeviceType::kV100), mid, 1e-9);
}

TEST(Companion, ThroughputEqualsMaxPOverOverload) {
  // Eq. (1d) reduces to nEST / f_overload when nEST == maxP.
  Companion c("ResNet50", 6);
  const Plan p = c.make_plan(GpuVector{2, 1, 0});
  ASSERT_TRUE(p.valid());
  EXPECT_NEAR(p.throughput, 6.0 / p.f_overload, 1e-9);
}

TEST(GreedyGrowth, RanksBySpeedupPerGpuTiesToMoreGpusStopsWhenNothingFits) {
  auto prop = [](std::int64_t v100, double speedup) {
    Companion::Proposal p;
    p.extra_gpus = {v100, 0, 0};
    p.gpu_count = v100;
    p.speedup = speedup;
    return p;
  };
  // Jobs 0 and 1 tie at 0.5 speedup per GPU; job 1 asks for more GPUs, so
  // it goes first.  Job 2 ranks last and no longer fits once both are in.
  std::vector<std::vector<Companion::Proposal>> pending = {
      {prop(1, 1.5)}, {prop(2, 2.0)}, {prop(1, 1.2)}};
  std::vector<std::size_t> order;
  GpuVector free{3, 0, 0};
  const int accepted = grow_greedily(
      pending.size(), free,
      [&](std::size_t i, const GpuVector&) { return pending[i]; },
      [&](std::size_t i, const Companion::Proposal&) {
        order.push_back(i);
        pending[i].clear();
      });
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(free, (GpuVector{0, 0, 0}));
}

TEST(PlanCache, ReusedPlansAreByteIdenticalToFresh) {
  Companion fresh("ResNet50", 8);
  Companion cached("ResNet50", 8);
  PlanCache cache;
  cached.set_plan_cache(&cache);
  const std::vector<GpuVector> mixes = {
      {1, 0, 0}, {4, 0, 0}, {2, 2, 0}, {0, 0, 8}, {3, 2, 1}, {1, 0, 0},
      {4, 0, 0}, {2, 2, 0}, {0, 0, 8}, {3, 2, 1}};
  for (const auto& mix : mixes) {
    const Plan a = fresh.make_plan(mix);
    const Plan b = cached.make_plan(mix);
    // Byte-identical, not merely approximately equal: a memoized plan must
    // be indistinguishable from a recomputed one for bitwise replay.
    EXPECT_EQ(std::memcmp(&a.f_overload, &b.f_overload, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.waste, &b.waste, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.throughput, &b.throughput, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a.steps_per_second, &b.steps_per_second, sizeof(double)),
        0);
    EXPECT_EQ(a.ests, b.ests);
    EXPECT_EQ(a.gpus, b.gpus);
  }
  // Five distinct mixes, each queried twice: second round all hits.
  EXPECT_EQ(cache.misses(), 5);
  EXPECT_EQ(cache.hits(), 5);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(PlanCache, KeyedByWorkloadAndMaxP) {
  PlanCache cache;
  Companion a("ResNet50", 8);
  Companion b("Bert", 8);
  Companion c("ResNet50", 4);
  a.set_plan_cache(&cache);
  b.set_plan_cache(&cache);
  c.set_plan_cache(&cache);
  const GpuVector mix{2, 1, 0};
  (void)a.make_plan(mix);
  (void)b.make_plan(mix);
  (void)c.make_plan(mix);
  // Same mix, three distinct (workload, maxP) keys: no false sharing.
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 0);
  const Plan pa = a.make_plan(mix);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(pa.ests.size(), a.make_plan(mix).ests.size());
}

TEST(PlanCache, CalibrationBypassesTheCache) {
  PlanCache cache;
  Companion c("Bert", 8);
  c.set_plan_cache(&cache);
  const GpuVector mix{2, 0, 0};
  const Plan p = c.make_plan(mix);
  EXPECT_EQ(cache.misses(), 1);
  // A throughput report that shifts calibration invalidates memoized
  // plans; the companion must fall back to fresh computation.
  c.report_throughput(p, p.throughput * 2.0);
  const Plan q = c.make_plan(mix);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 1);  // bypass: neither probed nor inserted
  EXPECT_GT(q.throughput, p.throughput);
}

TEST(PlanCache, KeyedByShardDegree) {
  // Two jobs differing only in optimizer-state shard degree must never
  // share a memoized plan: degree is part of the parallel::Plan identity
  // even though today's Eq. (1) evaluation does not read it.
  PlanCache cache;
  Companion replicated("ResNet50", 8);
  Companion sharded("ResNet50", 8);
  replicated.set_plan_cache(&cache);
  sharded.set_plan_cache(&cache);
  sharded.set_shard_degree(4);
  EXPECT_EQ(sharded.shard_degree(), 4);
  const GpuVector mix{4, 0, 0};
  (void)replicated.make_plan(mix);
  (void)sharded.make_plan(mix);
  EXPECT_EQ(cache.misses(), 2);  // distinct keys, no false sharing
  EXPECT_EQ(cache.size(), 2u);
  (void)replicated.make_plan(mix);
  (void)sharded.make_plan(mix);
  EXPECT_EQ(cache.hits(), 2);
}

TEST(PlanCache, SerializationRoundTripRestoresEveryEntry) {
  PlanCache cache;
  Companion c("Bert", 8);
  c.set_plan_cache(&cache);
  const std::vector<GpuVector> mixes = {{1, 0, 0}, {2, 2, 0}, {0, 0, 8}};
  std::vector<Plan> fresh;
  for (const auto& mix : mixes) fresh.push_back(c.make_plan(mix));
  ByteWriter w;
  cache.save(w);

  PlanCache restored;
  ByteReader r(w.bytes());
  EXPECT_EQ(restored.load(r), mixes.size());
  r.require_exhausted("plan cache image");
  Companion c2("Bert", 8);
  c2.set_plan_cache(&restored);
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const Plan p = c2.make_plan(mixes[i]);
    EXPECT_EQ(std::memcmp(&p.f_overload, &fresh[i].f_overload,
                          sizeof(double)),
              0);
    EXPECT_EQ(p.ests, fresh[i].ests);
  }
  EXPECT_EQ(restored.hits(), static_cast<std::int64_t>(mixes.size()));
  EXPECT_EQ(restored.misses(), 0);
}

TEST(PlanCache, StaleFormatVersionIsBypassedNotReused) {
  // A v1 image predates shard_degree in the key: a v1 entry could answer a
  // lookup for the wrong degree.  load() must restore ZERO entries from a
  // stale image and leave the cache empty — the next make_plan recomputes.
  ByteWriter w;
  w.write<std::uint32_t>(1);  // stale format version
  w.write<std::uint64_t>(1);  // one entry (never deserialized)
  w.write_string("ResNet50\0garbage-key");
  PlanCache cache;
  ByteReader r(w.bytes());
  EXPECT_EQ(cache.load(r), 0u);
  EXPECT_EQ(cache.size(), 0u);
  // The bypass is transparent: the companion recomputes and repopulates.
  Companion c("ResNet50", 8);
  c.set_plan_cache(&cache);
  const Plan p = c.make_plan(GpuVector{2, 0, 0});
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace easyscale::sched
