#include "kernels/device.hpp"

namespace easyscale::kernels {

namespace {
// Capability ratios approximate the paper's cluster: V100 > P100 > T4 for
// training throughput.
constexpr DeviceSpec kSpecs[kNumDeviceTypes] = {
    {"V100", 16.0, 1.00},
    {"P100", 16.0, 0.45},
    {"T4", 16.0, 0.30},
};
}  // namespace

const DeviceSpec& device_spec(DeviceType type) {
  return kSpecs[static_cast<int>(type)];
}

}  // namespace easyscale::kernels
