// Job model for the cluster simulations (§5.2, §5.3): one submission as
// the cluster service and the trace generators see it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/device.hpp"

namespace easyscale::sim {

struct JobSpec {
  std::int64_t id = 0;
  std::string workload = "ResNet50";
  std::int64_t max_p = 4;        // designed DoP (EST count)
  double arrival_s = 0.0;
  std::int64_t total_steps = 1000;  // global steps to completion
  bool allow_heter = true;          // D2-eligible (core::d2_recommended)
  /// Gang request under the YARN-CS baseline (cluster::AllocationPolicy::
  /// kGang): min(max_p, the type's capacity) GPUs of this type.
  kernels::DeviceType preferred_type = kernels::DeviceType::kV100;
};

}  // namespace easyscale::sim
