// Fig 14: average JCT and makespan on the 64-GPU heterogeneous cluster
// (32 V100 + 16 P100 + 16 T4) for YARN-CS (FIFO gang scheduling),
// EasyScale_homo and EasyScale_heter over the same Philly-like trace, all
// three as allocation policies of the cluster service.
// Paper: EasyScale_homo 8.3x JCT / 2.5x makespan, EasyScale_heter 13.2x /
// 2.8x over YARN-CS.
//
// Exit code: non-zero unless avg JCT and makespan both order
// heter < homo < YARN-CS with and without revocations, and under
// revocations EasyScale fails no job while YARN-CS fails some.
#include <cstdio>

#include "bench_util.hpp"
#include "cluster/service.hpp"
#include "trace/generators.hpp"

namespace {

using namespace easyscale;

struct Row {
  const char* name;
  cluster::AllocationPolicy policy;
  bool heter;
  cluster::ClusterMetrics m;
};

void run_rows(Row (&rows)[3], const std::vector<sim::JobSpec>& trace,
              const cluster::ClusterServiceConfig& base) {
  for (auto& r : rows) {
    cluster::ClusterServiceConfig cfg = base;
    cfg.policy = r.policy;
    cluster::ClusterService service(
        {cluster::Tenant{}}, cluster::single_tenant_jobs(trace, r.heter), cfg);
    r.m = service.run();
  }
}

/// heter < homo < YARN-CS on both avg JCT and makespan.
bool ordered(const Row (&rows)[3], const char* when) {
  const auto& [yarn, homo, heter] = rows;
  const bool ok = heter.m.mean_jct() < homo.m.mean_jct() &&
                  homo.m.mean_jct() < yarn.m.mean_jct() &&
                  heter.m.makespan < homo.m.makespan &&
                  homo.m.makespan < yarn.m.makespan;
  if (!ok) {
    std::printf("ERROR: %s: avg JCT and makespan must order "
                "heter < homo < YARN-CS\n", when);
  }
  return ok;
}

}  // namespace

int main() {
  bench::banner("Fig 14", "trace experiment: avg JCT and makespan");

  trace::TraceConfig tcfg;
  tcfg.num_jobs = 80;
  tcfg.mean_interarrival_s = 60.0;
  tcfg.runtime_mu = 7.8;
  const auto jobs = trace::philly_like_trace(tcfg);

  cluster::ClusterServiceConfig cfg;
  cfg.capacity = {32, 16, 16};  // V100, P100, T4

  Row rows[] = {
      {"YARN-CS", cluster::AllocationPolicy::kGang, true, {}},
      {"EasyScale_homo", cluster::AllocationPolicy::kGreedy, false, {}},
      {"EasyScale_heter", cluster::AllocationPolicy::kGreedy, true, {}},
  };
  run_rows(rows, jobs, cfg);
  std::printf("%-18s %14s %14s %12s %12s\n", "scheduler", "avg_JCT_s",
              "makespan_s", "JCT_gain", "mkspan_gain");
  const double base_jct = rows[0].m.mean_jct();
  const double base_mk = rows[0].m.makespan;
  for (const auto& r : rows) {
    std::printf("%-18s %14.0f %14.0f %11.1fx %11.1fx\n", r.name,
                r.m.mean_jct(), r.m.makespan, base_jct / r.m.mean_jct(),
                base_mk / r.m.makespan);
  }
  bench::note("expected: EasyScale_heter > EasyScale_homo >> YARN-CS on both "
              "metrics (paper: 13.2x/8.3x JCT, 2.8x/2.5x makespan).");
  bool ok = ordered(rows, "without revocations");

  // Same trace with spot revocations on: a per-GPU MTBF failure process
  // (trace::gpu_failure_trace) through the service's failure feed.  Gang
  // jobs hit by a revocation are killed and restarted (losing progress);
  // EasyScale jobs scale in and never fail — the §2.1 motivation measured
  // on the Fig-14 setup.
  std::printf("\nwith per-GPU MTBF revocations (mtbf=5e4s/GPU, repair=600s):\n");
  trace::FailureTraceConfig fcfg;
  fcfg.cluster = cfg.capacity;
  fcfg.horizon_s = 2.0e5;
  cfg.failures = trace::gpu_failure_trace(fcfg);
  run_rows(rows, jobs, cfg);
  std::printf("%-18s %14s %14s %12s %12s %14s\n", "scheduler", "avg_JCT_s",
              "makespan_s", "preemptions", "failed_jobs", "lost_steps");
  for (const auto& r : rows) {
    std::printf("%-18s %14.0f %14.0f %12lld %12lld %14lld\n", r.name,
                r.m.mean_jct(), r.m.makespan,
                static_cast<long long>(r.m.preemptions),
                static_cast<long long>(r.m.failed_jobs),
                static_cast<long long>(r.m.lost_steps));
  }
  bench::note("failed_jobs must be 0 for both EasyScale policies and > 0 "
              "for gang-scheduled YARN-CS under the same revocations.");
  ok = ordered(rows, "with revocations") && ok;
  if (rows[1].m.failed_jobs != 0 || rows[2].m.failed_jobs != 0 ||
      rows[0].m.failed_jobs <= 0) {
    std::printf("ERROR: under revocations EasyScale must fail 0 jobs and "
                "YARN-CS > 0\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
