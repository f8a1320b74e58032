#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>

#include "rng/philox.hpp"

namespace easyscale::trace {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Workloads cycled through the trace with their designed DoP options and
/// D2 eligibility (conv models are heterogeneity-restricted, §3.3).
struct TraceWorkload {
  const char* name;
  bool allow_heter;
};
constexpr TraceWorkload kTraceWorkloads[] = {
    {"ShuffleNetv2", false}, {"ResNet50", false},       {"VGG19", false},
    {"YOLOv3", false},       {"NeuMF", true},           {"Bert", true},
    {"Electra", true},       {"SwinTransformer", true},
};
}  // namespace

std::vector<sim::JobSpec> philly_like_trace(const TraceConfig& cfg) {
  rng::Philox gen(cfg.seed);
  std::vector<sim::JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(cfg.num_jobs));
  double t = 0.0;
  constexpr std::int64_t kMaxPOptions[] = {2, 4, 8, 16};
  constexpr kernels::DeviceType kTypes[] = {kernels::DeviceType::kV100,
                                            kernels::DeviceType::kP100,
                                            kernels::DeviceType::kT4};
  for (std::int64_t i = 0; i < cfg.num_jobs; ++i) {
    // Exponential interarrivals (Philly arrival process).
    t += -cfg.mean_interarrival_s * std::log(1.0 - gen.next_double());
    const auto& w =
        kTraceWorkloads[gen.next_below(std::size(kTraceWorkloads))];
    sim::JobSpec job;
    job.id = i;
    job.workload = w.name;
    job.allow_heter = w.allow_heter;
    job.max_p = kMaxPOptions[gen.next_below(std::size(kMaxPOptions))];
    job.arrival_s = t;
    const double steps =
        std::exp(cfg.runtime_mu + cfg.runtime_sigma * gen.next_normal());
    job.total_steps = std::clamp(static_cast<std::int64_t>(steps),
                                 cfg.min_steps, cfg.max_steps);
    job.preferred_type = kTypes[gen.next_below(std::size(kTypes))];
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<ClusterFailureEvent> gpu_failure_trace(
    const FailureTraceConfig& cfg) {
  ES_CHECK(cfg.mtbf_per_gpu_s > 0.0, "MTBF must be positive");
  ES_CHECK(cfg.horizon_s > 0.0, "failure horizon must be positive");
  rng::Philox gen(cfg.seed);
  std::vector<ClusterFailureEvent> events;
  // One independent Poisson process per device type (rate = gpus / MTBF),
  // sampled in fixed type order so the stream is seed-deterministic.
  for (int t = 0; t < sched::kNumDeviceTypes; ++t) {
    const auto gpus = cfg.cluster[static_cast<std::size_t>(t)];
    if (gpus <= 0) continue;
    const double rate = static_cast<double>(gpus) / cfg.mtbf_per_gpu_s;
    double at = 0.0;
    for (;;) {
      at += -std::log(1.0 - gen.next_double()) / rate;
      if (at >= cfg.horizon_s) break;
      events.push_back({at, t, cfg.repair_s});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ClusterFailureEvent& a,
               const ClusterFailureEvent& b) {
              if (a.t_s != b.t_s) return a.t_s < b.t_s;
              return a.device_type < b.device_type;
            });
  return events;
}

std::vector<std::int64_t> serving_load_curve(const ServingLoadConfig& cfg) {
  rng::Philox gen(cfg.seed);
  std::vector<std::int64_t> demand;
  demand.reserve(static_cast<std::size_t>(cfg.minutes));
  for (std::int64_t m = 0; m < cfg.minutes; ++m) {
    const double day_phase =
        static_cast<double>(m % 1440) / 1440.0;  // 0..1 over a day
    // Two peaks (midday and evening) over a nightly trough — the Fig-1
    // shape of an online-serving cluster.
    const double diurnal =
        0.55 + 0.30 * std::sin(2.0 * kPi * (day_phase - 0.30)) +
        0.15 * std::sin(4.0 * kPi * (day_phase - 0.22));
    double fraction = cfg.base_fraction +
                      (cfg.peak_fraction - cfg.base_fraction) *
                          std::clamp(diurnal, 0.0, 1.0);
    fraction += cfg.noise_fraction * gen.next_normal();
    fraction = std::clamp(fraction, 0.05, 1.0);
    demand.push_back(static_cast<std::int64_t>(
        fraction * static_cast<double>(cfg.total_gpus)));
  }
  return demand;
}

}  // namespace easyscale::trace
