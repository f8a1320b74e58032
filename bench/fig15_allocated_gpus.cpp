// Fig 15: allocated GPUs over time for EasyScale_homo vs EasyScale_heter
// on the Fig-14 trace, both under the cluster service's kGreedy policy.
// The heterogeneous scheduler sustains a higher allocation because
// D2-eligible jobs can absorb whatever GPU types are idle.
//
// Exit code: non-zero unless heter's time-weighted mean allocation
// exceeds homo's.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "cluster/service.hpp"
#include "trace/generators.hpp"

namespace {

using namespace easyscale;

/// Allocated GPUs at time `t` on a step timeline.
long long allocated_at(const cluster::ClusterMetrics& m, double t) {
  long long gpus = 0;
  for (const auto& p : m.allocated_gpus) {
    if (p.t_s > t) break;
    gpus = p.gpus;
  }
  return t < m.makespan ? gpus : 0;
}

}  // namespace

int main() {
  bench::banner("Fig 15", "allocated GPUs over time, homo vs heter");

  trace::TraceConfig tcfg;
  tcfg.num_jobs = 80;
  tcfg.mean_interarrival_s = 60.0;
  tcfg.runtime_mu = 7.8;
  const auto jobs = trace::philly_like_trace(tcfg);

  cluster::ClusterServiceConfig cfg;
  cfg.capacity = {32, 16, 16};
  cfg.policy = cluster::AllocationPolicy::kGreedy;
  auto run = [&](bool heter) {
    cluster::ClusterService service(
        {cluster::Tenant{}}, cluster::single_tenant_jobs(jobs, heter), cfg);
    return service.run();
  };
  const auto homo = run(false);
  const auto heter = run(true);

  const double end = std::max(homo.makespan, heter.makespan);
  const int buckets = 24;
  std::printf("%10s %18s %18s\n", "time_s", "homo_alloc_gpus",
              "heter_alloc_gpus");
  for (int b = 0; b < buckets; ++b) {
    const double t = end * b / buckets;
    std::printf("%10.0f %18lld %18lld\n", t, allocated_at(homo, t),
                allocated_at(heter, t));
  }
  const double homo_mean = homo.mean_allocated_gpus();
  const double heter_mean = heter.mean_allocated_gpus();
  std::printf("\nmean allocated GPUs while active: homo %.1f, heter %.1f\n",
              homo_mean, heter_mean);
  bench::note("expected: heter allocation generally above homo "
              "(paper Fig 15).");
  if (heter_mean <= homo_mean) {
    std::printf("ERROR: heter's mean allocation must exceed homo's\n");
    return 1;
  }
  return 0;
}
