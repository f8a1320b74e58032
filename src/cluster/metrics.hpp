// Cluster-service metrics: per-tenant/per-tier JCT, SLA attainment,
// fairness, preemption counts and event-core throughput, emitted as a
// deterministic JSON document (fixed key order, fixed float formatting),
// so replaying a seed yields a byte-identical artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/tenant.hpp"

namespace easyscale::cluster {

struct TierMetrics {
  std::int64_t finished = 0;
  std::int64_t sla_attained = 0;  // finished within the tier's JCT target
  double jct_p50 = 0.0;
  double jct_p90 = 0.0;
  double jct_p99 = 0.0;
  [[nodiscard]] double attainment() const {
    return finished > 0
               ? static_cast<double>(sla_attained) / static_cast<double>(finished)
               : 1.0;
  }
};

struct TenantMetrics {
  std::int64_t tenant = 0;
  SlaTier tier = SlaTier::kBurst;
  std::int64_t finished = 0;
  double gpu_seconds = 0.0;
  double jct_sum = 0.0;
  double weight = 1.0;
};

/// One step of the allocated-GPU timeline: `gpus` GPUs are held by jobs
/// from `t_s` until the next point (or the makespan).
struct AllocationPoint {
  double t_s = 0.0;
  std::int64_t gpus = 0;
};

struct ClusterMetrics {
  double makespan = 0.0;
  std::int64_t jobs_finished = 0;
  /// Allocation drops: every apply_plan that leaves a job fewer GPUs than
  /// it held.  An elastic shrink counts once, and so does a kGang kill
  /// (which failed_jobs counts too).
  std::int64_t preemptions = 0;
  std::int64_t reallocations = 0;      // allocator rounds executed
  std::int64_t events_processed = 0;   // events drained from the queue
  std::int64_t plan_cache_hits = 0;
  std::int64_t plan_cache_misses = 0;
  double fairness = 1.0;  // Jain index over gpu-seconds / weight
  TierMetrics per_tier[3];
  std::vector<TenantMetrics> per_tenant;
  /// Schedule digest: FNV-1a over every allocation decision (time bits,
  /// job id, per-type GPU counts).  Two runs scheduled identically — and
  /// only then — share a digest.
  std::uint64_t schedule_digest = 0;
  /// Gang kills (AllocationPolicy::kGang only; the elastic policies shrink
  /// jobs and never kill one) and the global steps they discarded.
  std::int64_t failed_jobs = 0;
  std::int64_t lost_steps = 0;
  /// Allocated-GPU step timeline: a point whenever a rebalance changes the
  /// total allocation.  Like failed_jobs/lost_steps, not part of to_json().
  std::vector<AllocationPoint> allocated_gpus;

  /// Mean JCT over every finished job.
  [[nodiscard]] double mean_jct() const;
  /// Time-weighted mean of the allocated-GPU timeline over [0, makespan].
  [[nodiscard]] double mean_allocated_gpus() const;

  /// Deterministic JSON (stable key order, %.9f / %llu formatting).
  /// `wall_s`/`events_per_second` describe the measuring run and are the
  /// only non-replayable fields; they are omitted when wall_s < 0.
  [[nodiscard]] std::string to_json(double wall_s = -1.0) const;
};

/// Percentile over an UNSORTED sample (copies + sorts; nearest-rank).
[[nodiscard]] double percentile(std::vector<double> sample, double p);

/// FNV-1a 64-bit fold of one 64-bit word into a running digest.
[[nodiscard]] inline std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t w) {
  for (int b = 0; b < 8; ++b) {
    h ^= (w >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

}  // namespace easyscale::cluster
