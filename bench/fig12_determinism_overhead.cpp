// Fig 12: the cost of accuracy-consistency.  Per-iteration training time of
// each Table-1 workload under
//   Baseline        — vendor-fastest kernels (stock framework),
//   EasyScale-D1    — deterministic device-native kernels,
//   EasyScale-D1+D2 — hardware-agnostic canonical kernels,
// on each simulated device type, normalized to the baseline.  Each ratio
// is a p10 over 50 steps per level, the levels alternating step by step
// after one untimed step each.
//
// Paper shape: D1 ~ free everywhere; D1+D2 ~ free for NeuMF / Bert /
// Electra / SwinTransformer and expensive (avg 236%) for the conv models
// whose vendor kernels D2 must turn off.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "kernels/device.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace {

using namespace easyscale;

/// Timed steps per level.  The levels alternate step by step, so a burst
/// of machine noise lands on all three alike, and each level reports the
/// p10 of its step times.
constexpr std::int64_t kTimedSteps = 50;

constexpr std::array<kernels::KernelPolicy, 3> kLevels = {
    kernels::KernelPolicy::kFastest, kernels::KernelPolicy::kDeterministic,
    kernels::KernelPolicy::kHardwareAgnostic};

double p10(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 10];
}

/// p10 step seconds of the baseline, D1 and D1+D2 on one device type:
/// one trainer per level, one untimed step each, then kTimedSteps steps
/// per level in alternation.
std::array<double, 3> time_levels(const std::string& workload,
                                  kernels::DeviceType device,
                                  const models::WorkloadData& wd) {
  std::array<std::unique_ptr<parallel::Trainer>, 3> trainers;
  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    parallel::TrainerConfig cfg;
    cfg.workload = workload;
    cfg.world_size = 1;
    cfg.batch_per_worker = 8;
    cfg.policy = kLevels[l];
    cfg.devices = {device};
    trainers[l] = std::make_unique<parallel::Trainer>(cfg, *wd.train,
                                                      wd.augment);
    trainers[l]->run_steps(1);  // untimed: scratch arenas, first pages
  }
  std::array<std::vector<double>, 3> secs;
  for (std::int64_t s = 0; s < kTimedSteps; ++s) {
    for (std::size_t l = 0; l < kLevels.size(); ++l) {
      secs[l].push_back(
          bench::time_seconds([&] { trainers[l]->run_steps(1); }));
    }
  }
  return {p10(secs[0]), p10(secs[1]), p10(secs[2])};
}

}  // namespace

int main() {
  bench::banner("Fig 12",
                "per-iteration time (p10 of 50 alternating steps) "
                "normalized to the vendor-fastest baseline, per device "
                "type (V100 / P100 / T4)");
  std::printf("%-18s %22s %22s\n", "workload", "EasyScale-D1",
              "EasyScale-D1+D2");
  std::printf("%-18s %7s %7s %7s %7s %7s %7s\n", "", "V100", "P100", "T4",
              "V100", "P100", "T4");
  constexpr kernels::DeviceType kDevices[] = {kernels::DeviceType::kV100,
                                              kernels::DeviceType::kP100,
                                              kernels::DeviceType::kT4};
  double conv_d2_sum = 0.0;
  int conv_d2_n = 0;
  for (const auto& name : models::workload_names()) {
    auto wd = models::make_dataset_for(name, 256, 32, 42);
    double d1[3], d2[3];
    for (int d = 0; d < 3; ++d) {
      const auto p = time_levels(name, kDevices[d], wd);
      d1[d] = p[1] / p[0];
      d2[d] = p[2] / p[0];
    }
    std::printf("%-18s %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx\n",
                name.c_str(), d1[0], d1[1], d1[2], d2[0], d2[1], d2[2]);
    const auto workload = models::make_workload(name);
    if (workload->uses_vendor_tuned_kernels()) {
      for (double v : d2) {
        conv_d2_sum += v;
        ++conv_d2_n;
      }
    }
  }
  std::printf("\nconv-model average D2 cost: %.0f%% of baseline "
              "(paper: 236%% average)\n",
              100.0 * conv_d2_sum / conv_d2_n);
  bench::note(
      "expected: D1 ~1.0x everywhere; D1+D2 ~1.0x for NeuMF/Bert/Electra/"
      "Swin and several-fold for ShuffleNet/ResNet/VGG/YOLO.");
  return 0;
}
