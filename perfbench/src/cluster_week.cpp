// cluster_week: the ClusterService on the calendar queue drains a seeded
// multi-tenant week on a hot mid-size cluster, with GPU failures and the
// serving co-location feed on.  One "step" is one full drain of the trace;
// every replay, and every drain through the binary-heap queue, must
// reproduce the first drain's schedule digest.  No training code runs here,
// so this is the only workload on which cluster/ and sched/ changes show.
#include "cluster/allocator.hpp"
#include "cluster/service.hpp"
#include "cluster/tenant.hpp"
#include "harness.hpp"
#include "rng/philox.hpp"
#include "sched/companion.hpp"

namespace perfbench {
namespace {

using namespace easyscale;

// The tenants, GPUs and peak rate of the hot smoke leg of
// bench/cluster_service.cpp, whose demand keeps the cluster near capacity,
// over a week instead of two days.  Every drain must preempt.
constexpr std::int64_t kTenants = 32;
constexpr std::int64_t kGpus = 128;  // 1/2 V100, 1/4 P100, 1/4 T4
constexpr double kDays = 7.0;
constexpr double kPeakJobsPerTenantDay = 120.0;

struct Inputs {
  std::vector<cluster::Tenant> tenants;
  std::vector<cluster::ClusterJob> jobs;
  cluster::ClusterServiceConfig config;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.tenants = cluster::make_tenants(kTenants, kGpus, seed);
  cluster::TenantTraceConfig tcfg;
  tcfg.seed = seed;
  tcfg.horizon_s = kDays * 86400.0;
  tcfg.peak_jobs_per_tenant_day = kPeakJobsPerTenantDay;
  tcfg.serving.seed = seed;
  tcfg.threads = kComputeThreads;
  in.jobs = cluster::tenant_trace(in.tenants, tcfg);

  auto& cfg = in.config;
  cfg.capacity = {kGpus / 2, kGpus / 4, kGpus / 4};
  cfg.queue = cluster::QueueKind::kCalendar;
  rng::Philox gen(seed ^ 0xFA11ull);
  for (int i = 0; i < 8; ++i) {
    cfg.failures.push_back({gen.next_double() * tcfg.horizon_s,
                            static_cast<int>(gen.next_below(3)),
                            1800.0 + gen.next_double() * 12600.0});
  }
  cfg.serving_colocation = true;
  cfg.serving.seed = seed;
  return in;
}

}  // namespace

void run_cluster_week(const Options& opts, Tracer& tracer, Report& report,
                      Outcome& outcome) {
  // Each run drains kWeeks different weeks in turn.  How fast a week drains
  // depends on its jobs by about +-10% between seeds; averaging over
  // several weeks keeps that from dominating the run-to-run spread.
  constexpr int kWeeks = 4;
  auto make_weeks = [&] {
    std::vector<Inputs> weeks;
    for (int k = 0; k < kWeeks; ++k) {
      weeks.push_back(make_inputs(opts.seed * kWeeks + k));
    }
    return weeks;
  };
  std::vector<Inputs> weeks;
  const SetupTimes setups([&] { (void)make_weeks(); },
                          [&] { weeks = make_weeks(); });

  // Per week: the first drain's metrics, the untraced and traced drain
  // times (ms).  A trace run alternates untraced and traced drains; a
  // drain has no hook, so the traced ones differ only in the span they
  // record.
  std::vector<cluster::ClusterMetrics> first(kWeeks);
  std::vector<std::vector<double>> plain_ms(kWeeks), traced_ms(kWeeks);
  double plain_busy_s = 0.0;
  PeakRss rss(kWeeks);
  tracer.set_recording(opts.trace);
  const double plain_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::int64_t min_drains = opts.trace ? 2 * kWeeks : kWeeks;
  for (std::int64_t i = 1; plain_busy_s < plain_s || i <= min_drains; ++i) {
    const bool hooked = opts.trace && i % 2 == 0;
    const auto k = static_cast<std::size_t>(
        (opts.trace ? (i - 1) / 2 : i - 1) % kWeeks);
    const Inputs& in = weeks[k];
    cluster::ClusterService service(in.tenants, in.jobs, in.config);
    cluster::ClusterMetrics m;
    const double s = tracer.span("cluster.run",
                                 hooked ? "step.traced" : "step",
                                 [&] { m = service.run(); });
    (hooked ? traced_ms : plain_ms)[k].push_back(s * 1e3);
    if (!hooked) plain_busy_s += s;
    if (first[k].events_processed == 0) first[k] = m;
    outcome.check(m.schedule_digest == first[k].schedule_digest &&
                  m.events_processed == first[k].events_processed);
    rss.after_step(i);
    // The reference: the same week through the binary-heap event queue
    // must schedule identically.  It drains untimed after every measured
    // drain, which also spreads the measured drains over twice the wall
    // time.
    cluster::ClusterServiceConfig heap_config = in.config;
    heap_config.queue = cluster::QueueKind::kHeap;
    cluster::ClusterService heap(in.tenants, in.jobs, heap_config);
    outcome.check(heap.run().schedule_digest == first[k].schedule_digest);
  }
  report.set("peak_rss_mb", rss.mb());

  // The quiet-host drain time of each week, as for the training steps.
  double events = 0.0, quiet_ms = 0.0;
  std::vector<double> all_plain, all_traced;
  for (int k = 0; k < kWeeks; ++k) {
    const auto& f = first[static_cast<std::size_t>(k)];
    std::int64_t finished = 0;
    for (const auto& tier : f.per_tier) finished += tier.finished;
    outcome.check(finished == static_cast<std::int64_t>(
                                  weeks[static_cast<std::size_t>(k)].jobs.size()));
    outcome.check(f.preemptions > 0);  // the cluster was busy
    const auto& ms = plain_ms[static_cast<std::size_t>(k)];
    events += static_cast<double>(f.events_processed);
    quiet_ms += percentile(ms, kQuietPercentile);
    all_plain.insert(all_plain.end(), ms.begin(), ms.end());
    const auto& tms = traced_ms[static_cast<std::size_t>(k)];
    all_traced.insert(all_traced.end(), tms.begin(), tms.end());
  }
  report.set("work_per_s", events / (quiet_ms / 1e3));
  report.set("step_ms_p10", quiet_ms / kWeeks);
  report.set("setup_s", setups.median_s());
  report.set("step_ms_p50", median(all_plain));
  report.set("step_ms_p95", percentile(all_plain, 95.0));
  if (!opts.trace) return;
  report.set("trace.overhead_share",
             median(all_traced) / median(all_plain) - 1.0);

  // The per-layer figures of the first week.
  const Inputs& in = weeks[0];
  const cluster::ClusterMetrics& f0 = first[0];
  std::int64_t finished = 0, attained = 0;
  for (const auto& tier : f0.per_tier) {
    finished += tier.finished;
    attained += tier.sla_attained;
  }
  report.set("trace.coverage", 1.0);  // one layer call per step: the drain
  report.set("cluster.events", static_cast<double>(f0.events_processed));
  report.set("cluster.reallocations", static_cast<double>(f0.reallocations));
  report.set("cluster.preemptions", static_cast<double>(f0.preemptions));
  report.set("cluster.trace_gen_s", setups.median_s() / kWeeks);
  const auto lookups = f0.plan_cache_hits + f0.plan_cache_misses;
  report.set("sched.plan_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(f0.plan_cache_hits) /
                               static_cast<double>(lookups)
                         : 0.0);
  report.set("sim_jct_p50_s", f0.per_tier[0].jct_p50);
  report.set("sla_attained_share",
             static_cast<double>(attained) / static_cast<double>(finished));

  // Layer probes: one fair-share round over the whole population, and one
  // uncached Companion plan search over the full cluster.
  std::vector<cluster::ShareRequest> requests;
  for (const auto& t : in.tenants) {
    requests.push_back({t.id, t.tier, t.quota_gpus, t.weight, 0});
  }
  for (const auto& j : in.jobs) {
    requests[static_cast<std::size_t>(j.tenant)].demand += j.spec.max_p;
  }
  constexpr int kReps = 2001;
  for (int i = 0; i < kReps; ++i) {
    tracer.span("cluster.fair_share", "probe",
                [&] { (void)cluster::fair_share(requests, kGpus); });
  }
  const auto& job = in.jobs.front().spec;
  sched::Companion companion(job.workload, job.max_p);
  for (int i = 0; i < kReps; ++i) {
    tracer.span("sched.best_plan", "probe", [&] {
      (void)companion.best_plan(in.config.capacity, /*allow_heter=*/true);
    });
  }
  report.set("cluster.fair_share_us",
             1e3 * median(tracer.durations_ms("cluster.fair_share")));
  report.set("sched.best_plan_us",
             1e3 * median(tracer.durations_ms("sched.best_plan")));
}

}  // namespace perfbench
