// Cluster-scheduler walkthrough: the intra-job companion's plan database
// (Eq. 1 waste model), resource proposals, a small trace under the cluster
// service's gang and greedy policies, and the multi-tenant (fair-share)
// service driven from a checked-in trace file.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/service.hpp"
#include "cluster/tenant.hpp"
#include "sched/companion.hpp"
#include "trace/generators.hpp"

int main(int argc, char** argv) {
  using namespace easyscale;

  // --- companion module: Eq. (1) plans for one job ------------------------
  sched::Companion companion("ResNet50", /*maxP=*/8);
  std::printf("companion plans for ResNet50, maxP=8:\n");
  std::printf("  %-22s %12s %10s %12s\n", "gpus", "f_overload_s", "waste",
              "mb/s");
  const sched::GpuVector options[] = {
      {2, 0, 0}, {4, 0, 0}, {8, 0, 0}, {2, 2, 0}, {4, 0, 4}, {4, 2, 2}};
  for (const auto& g : options) {
    const auto plan = companion.make_plan(g);
    std::printf("  V100:%lld P100:%lld T4:%lld %13.2f %10.2f %12.2f\n",
                static_cast<long long>(g[0]), static_cast<long long>(g[1]),
                static_cast<long long>(g[2]), plan.f_overload, plan.waste,
                plan.throughput);
  }

  // --- resource proposals (intra-job Role-2) -------------------------------
  const auto current = companion.make_plan({2, 0, 0});
  const sched::GpuVector avail = {2, 4, 4};
  std::printf("\nproposals from V100:2 with free pool V100:2 P100:4 T4:4:\n");
  for (const auto& p : companion.proposals(current, avail, /*heter=*/true)) {
    std::printf("  +V100:%lld +P100:%lld +T4:%lld -> speedup %.2fx "
                "(%.2fx per GPU)\n",
                static_cast<long long>(p.extra_gpus[0]),
                static_cast<long long>(p.extra_gpus[1]),
                static_cast<long long>(p.extra_gpus[2]), p.speedup,
                p.speedup_per_gpu());
  }

  // --- end-to-end trace under the three allocation policies ----------------
  trace::TraceConfig tcfg;
  tcfg.num_jobs = 30;
  const auto jobs = trace::philly_like_trace(tcfg);
  std::printf("\ntrace of %lld jobs on a 32-GPU cluster:\n",
              static_cast<long long>(tcfg.num_jobs));
  struct Row {
    const char* name;
    cluster::AllocationPolicy policy;
    bool heter;
  };
  for (const Row& row :
       {Row{"YARN-CS", cluster::AllocationPolicy::kGang, true},
        Row{"EasyScale_homo", cluster::AllocationPolicy::kGreedy, false},
        Row{"EasyScale_heter", cluster::AllocationPolicy::kGreedy, true}}) {
    cluster::ClusterServiceConfig scfg;
    scfg.capacity = {16, 8, 8};
    scfg.policy = row.policy;
    cluster::ClusterService sim({cluster::Tenant{}},
                                cluster::single_tenant_jobs(jobs, row.heter),
                                scfg);
    const auto r = sim.run();
    std::printf("  %-16s avg JCT %8.0f s   makespan %8.0f s\n", row.name,
                r.mean_jct(), r.makespan);
  }

  // --- multi-tenant cluster service from a trace file ----------------------
  // Usage: cluster_scheduler [trace.tsv].  Without an argument the example
  // looks for the checked-in examples/cluster_trace.tsv relative to common
  // run directories.
  std::string trace_path;
  if (argc > 1) {
    trace_path = argv[1];
  } else {
    for (const char* candidate :
         {"examples/cluster_trace.tsv", "../examples/cluster_trace.tsv",
          "../../examples/cluster_trace.tsv"}) {
      if (std::FILE* f = std::fopen(candidate, "r")) {
        std::fclose(f);
        trace_path = candidate;
        break;
      }
    }
  }
  if (trace_path.empty()) {
    std::printf("\ncluster service: examples/cluster_trace.tsv not found "
                "(pass a trace path as argv[1]); skipping\n");
    return 0;
  }

  std::vector<cluster::Tenant> tenants;
  const auto cluster_jobs = cluster::load_trace_tsv(trace_path, &tenants);
  cluster::ClusterServiceConfig ccfg;
  ccfg.capacity = {12, 6, 6};  // small on purpose: forces contention
  ccfg.serving_colocation = true;  // lend capacity to the Fig-1 curve
  ccfg.serving_peak_fraction = 0.4;
  cluster::ClusterService service(tenants, cluster_jobs, ccfg);
  const auto m = service.run();

  std::printf("\ncluster service on %s (%lld tenants, %lld jobs, 24 GPUs, "
              "serving co-location on):\n",
              trace_path.c_str(), static_cast<long long>(tenants.size()),
              static_cast<long long>(cluster_jobs.size()));
  std::printf("  %-11s %9s %12s %12s %11s\n", "tier", "finished", "jct_p50_s",
              "jct_p99_s", "sla");
  for (int tier = 0; tier < 3; ++tier) {
    const auto& tm = m.per_tier[tier];
    std::printf("  %-11s %9lld %12.1f %12.1f %10.1f%%\n",
                cluster::tier_name(static_cast<cluster::SlaTier>(tier)),
                static_cast<long long>(tm.finished), tm.jct_p50, tm.jct_p99,
                100.0 * tm.attainment());
  }
  std::printf("  makespan %.0f s, preemptions %lld (all elastic shrink — no "
              "job killed), fairness %.3f\n",
              m.makespan, static_cast<long long>(m.preemptions), m.fairness);
  std::printf("  schedule digest %016llx (replays are bitwise identical)\n",
              static_cast<unsigned long long>(m.schedule_digest));
  return 0;
}
