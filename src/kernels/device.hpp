// Simulated GPU device types.
//
// The paper's cluster mixes V100 / P100 / T4 GPUs.  Heterogeneous
// nondeterminism (§3.3, D2) arises because each type ships hardware-tuned
// kernels with different floating-point accumulation orders.  We reproduce
// that by giving each DeviceType a distinct *native* kernel variant (see
// kernels/exec_context.hpp) whose reduction blocking differs.
#pragma once

#include <cstdint>
#include <string>

#include "common/serialize.hpp"

namespace easyscale::kernels {

enum class DeviceType : int { kV100 = 0, kP100 = 1, kT4 = 2 };

constexpr int kNumDeviceTypes = 3;

/// Static facts about a device type, used by the memory model (Fig 10) and
/// the scheduler's capability table (Eq. 1).
struct DeviceSpec {
  const char* name;
  double memory_gb;            // default board memory
  double relative_capability;  // mini-batches/s relative to V100
};

[[nodiscard]] const DeviceSpec& device_spec(DeviceType type);

/// GPU memory consumed by one CUDA context (framework + driver), §3.1:
/// "around 750MB per context".
constexpr double kCudaContextGb = 0.75;

}  // namespace easyscale::kernels
