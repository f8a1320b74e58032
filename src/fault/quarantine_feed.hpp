// Quarantine feed: the bridge from the SDC defense to cluster capacity.
//
// When the integrity witness condemns a device (fault/supervisor.cpp,
// docs/FAULT_TOLERANCE.md), that hardware must never be scheduled again —
// not just by the job that caught it, but by the whole cluster.  The
// cluster service takes condemnations as (time, device type) events
// (ClusterServiceConfig::quarantines) and keeps condemned capacity out of
// every placement decision.
//
// `sdc_quarantine_trace` generates that feed synthetically: a seeded
// per-device-type Poisson condemnation process (the long-run output of the
// witness over a fleet with a given SDC rate), deterministic for a seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kernels/device.hpp"

namespace easyscale::fault {

/// One device of `device_type` condemned at `t_s`, permanently (condemned
/// hardware is never re-admitted; contrast trace::ClusterFailureEvent, which
/// repairs).
struct QuarantineEvent {
  double t_s = 0.0;
  int device_type = 0;
};

struct QuarantineTraceConfig {
  std::array<std::int64_t, kernels::kNumDeviceTypes> cluster{};  // per type
  double horizon_s = 7.0 * 86400.0;
  /// Mean condemnations per GPU per second (fleet SDC rate × detection
  /// probability); older parts of the fleet set higher rates.
  std::array<double, kernels::kNumDeviceTypes> rate_per_gpu_s{};
  std::uint64_t seed = 0x5DC;
};

/// Seeded synthetic condemnation feed, sorted by (time, type).  Emits at
/// most `cluster[t]` events per type — a device can only be condemned
/// once.
[[nodiscard]] std::vector<QuarantineEvent> sdc_quarantine_trace(
    const QuarantineTraceConfig& config);

}  // namespace easyscale::fault
