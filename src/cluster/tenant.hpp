// Multi-tenant model for the cluster service: tenants with quotas, SLA
// tiers and weights, plus deterministic per-tenant job arrival streams
// whose diurnal intensity follows the Fig-1 serving-load curve (training
// submissions peak when users are awake, like the serving traffic that
// shares the fleet — "Elastic Deep Learning in Multi-Tenant GPU Clusters"
// models tenants the same way).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "trace/generators.hpp"

namespace easyscale::cluster {

/// Service tiers, in preemption order: spot capacity is revoked first,
/// burst next (above quota), guaranteed last (never below quota).
enum class SlaTier : int { kGuaranteed = 0, kBurst = 1, kSpot = 2 };

[[nodiscard]] const char* tier_name(SlaTier tier);

struct Tenant {
  std::int64_t id = 0;
  std::string name;
  SlaTier tier = SlaTier::kBurst;
  std::int64_t quota_gpus = 0;  // guaranteed share (0 for spot tenants)
  double weight = 1.0;          // fair-share weight for surplus capacity
};

/// One training job submitted by a tenant.  The embedded JobSpec is the
/// trace generators' job model, so companion plans and the Eq. (1)
/// throughput model apply unchanged.
struct ClusterJob {
  sim::JobSpec spec;
  std::int64_t tenant = 0;
};

/// A plain job trace (trace::philly_like_trace) as tenant-0 submissions,
/// the single-tenant input of the kGreedy and kGang policies; schedule it
/// with `{Tenant{}}`.  `heter` false clears every job's allow_heter (the
/// EasyScale_homo row of Figs 14-15).
[[nodiscard]] std::vector<ClusterJob> single_tenant_jobs(
    const std::vector<sim::JobSpec>& specs, bool heter);

struct TenantTraceConfig {
  double horizon_s = 7.0 * 86400.0;  // submission window
  /// Mean submissions per tenant per day at the diurnal peak; the
  /// serving-load curve thins the rate off-peak.
  double peak_jobs_per_tenant_day = 12.0;
  std::uint64_t seed = 23;
  /// Diurnal intensity source (the Fig-1 model; total_gpus is irrelevant
  /// here — only the curve's normalized shape is used).
  trace::ServingLoadConfig serving{};
  /// Intra-op ways used to generate per-tenant streams in parallel; 0 uses
  /// EASYSCALE_THREADS.  Streams are seeded per tenant, so any value
  /// yields the identical trace (asserted by cluster_soak_test).
  int threads = 0;
  std::int64_t min_steps = 200;
  std::int64_t max_steps = 20000;
  double runtime_mu = 7.2;
  double runtime_sigma = 0.9;
};

/// Deterministic tenant population: tiers cycle guaranteed/burst/spot,
/// quotas and weights drawn from the (seeded) size distribution.
[[nodiscard]] std::vector<Tenant> make_tenants(std::int64_t num_tenants,
                                               std::int64_t cluster_gpus,
                                               std::uint64_t seed);

/// Per-tenant thinned-Poisson arrival streams modulated by the serving
/// diurnal curve, merged and sorted by (arrival, job id).  Job ids are
/// globally unique and stable across thread counts.
[[nodiscard]] std::vector<ClusterJob> tenant_trace(
    const std::vector<Tenant>& tenants, const TenantTraceConfig& config);

/// Tiny TSV trace format for examples and fixtures.  Lines starting with
/// '#' are comments; a line "tenant <id> <name> <tier> <quota> <weight>"
/// declares a tenant, "job <id> <tenant> <workload> <max_p> <arrival_s>
/// <total_steps> <allow_heter>" a submission.
void save_trace_tsv(const std::string& path,
                    const std::vector<Tenant>& tenants,
                    const std::vector<ClusterJob>& jobs);
[[nodiscard]] std::vector<ClusterJob> load_trace_tsv(
    const std::string& path, std::vector<Tenant>* tenants);

}  // namespace easyscale::cluster
