#include "fault/quarantine_feed.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "rng/philox.hpp"

namespace easyscale::fault {

std::vector<QuarantineEvent> sdc_quarantine_trace(
    const QuarantineTraceConfig& cfg) {
  ES_CHECK(cfg.horizon_s > 0.0, "quarantine horizon must be positive");
  rng::Philox gen(cfg.seed);
  std::vector<QuarantineEvent> events;
  // One Poisson condemnation process per device type in fixed type order
  // (rate = gpus × per-GPU rate), truncated at the pool size: hardware is
  // condemned once and the pool only shrinks.
  for (int t = 0; t < kernels::kNumDeviceTypes; ++t) {
    const auto gpus = cfg.cluster[static_cast<std::size_t>(t)];
    const double rate =
        static_cast<double>(gpus) * cfg.rate_per_gpu_s[static_cast<std::size_t>(t)];
    if (gpus <= 0 || rate <= 0.0) continue;
    double at = 0.0;
    std::int64_t condemned = 0;
    while (condemned < gpus) {
      at += -std::log(1.0 - gen.next_double()) / rate;
      if (at >= cfg.horizon_s) break;
      events.push_back({at, t});
      ++condemned;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const QuarantineEvent& a, const QuarantineEvent& b) {
              if (a.t_s != b.t_s) return a.t_s < b.t_s;
              return a.device_type < b.device_type;
            });
  return events;
}

}  // namespace easyscale::fault
