// Seeded trace generators standing in for the paper's workload inputs:
// Philly-style job arrivals [Jeon et al., ATC'19], a production-like
// runtime distribution, and the diurnal serving-load curve of Fig 1.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/companion.hpp"
#include "sim/job.hpp"

namespace easyscale::trace {

struct TraceConfig {
  std::int64_t num_jobs = 40;
  double mean_interarrival_s = 120.0;  // Poisson-like arrivals
  std::uint64_t seed = 7;
  /// Total-step distribution: lognormal(mu, sigma) clamped to
  /// [min_steps, max_steps] — down-sampled production runtimes.
  double runtime_mu = 7.2;
  double runtime_sigma = 0.9;
  std::int64_t min_steps = 200;
  std::int64_t max_steps = 20000;
};

/// Jobs drawn over the Table-1 workloads with maxP in {2,4,8,16}.
[[nodiscard]] std::vector<sim::JobSpec> philly_like_trace(
    const TraceConfig& config);

struct ServingLoadConfig {
  std::int64_t minutes = 2880;  // two days, as in Fig 1 / Fig 16
  std::int64_t total_gpus = 3000;
  double base_fraction = 0.35;  // overnight trough
  double peak_fraction = 0.95;  // evening peak
  double noise_fraction = 0.03;
  std::uint64_t seed = 11;
};

/// Per-minute serving GPU demand with two diurnal peaks per day.
[[nodiscard]] std::vector<std::int64_t> serving_load_curve(
    const ServingLoadConfig& config);

struct FailureTraceConfig {
  sched::GpuVector cluster{};     // GPUs per device type
  double horizon_s = 2.0e5;       // failures sampled over [0, horizon)
  double mtbf_per_gpu_s = 5.0e4;  // mean time between failures of ONE GPU
  double repair_s = 600.0;        // out-of-service window per failure
  std::uint64_t seed = 13;
};

/// One GPU of `device_type` is revoked/broken at `t_s` and unavailable for
/// `repair_s` seconds (spot reclamation or an MTBF failure process).
struct ClusterFailureEvent {
  double t_s = 0.0;
  int device_type = 0;  // index into the GpuVector
  double repair_s = 600.0;
};

/// Per-GPU MTBF revocation/failure process: each device type fails as a
/// Poisson process with rate gpus/mtbf (exponential interarrivals), merged
/// and sorted by time.  Deterministic for a seed; feeds the cluster
/// service's failure feed (ClusterServiceConfig::failures).
[[nodiscard]] std::vector<ClusterFailureEvent> gpu_failure_trace(
    const FailureTraceConfig& config);

}  // namespace easyscale::trace
