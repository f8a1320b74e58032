// Fig 12: the cost of accuracy-consistency.  Per-iteration training time of
// each Table-1 workload under
//   Baseline        — vendor-fastest kernels (stock framework),
//   EasyScale-D1    — deterministic device-native kernels,
//   EasyScale-D1+D2 — hardware-agnostic canonical kernels,
// on each simulated device type, normalized to the baseline.
//
// Paper shape: D1 ~ free everywhere; D1+D2 ~ free for NeuMF / Bert /
// Electra / SwinTransformer and expensive (avg 236%) for the conv models
// whose vendor kernels D2 must turn off.
#include <cstdio>

#include "bench_util.hpp"
#include "kernels/device.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace {

using namespace easyscale;

constexpr std::int64_t kSteps = 8;

double time_policy(const std::string& workload, kernels::DeviceType device,
                   kernels::KernelPolicy policy,
                   const models::WorkloadData& wd) {
  parallel::TrainerConfig cfg;
  cfg.workload = workload;
  cfg.world_size = 1;
  cfg.batch_per_worker = 8;
  cfg.policy = policy;
  cfg.devices = {device};
  parallel::Trainer t(cfg, *wd.train, wd.augment);
  t.run_steps(2);  // warm-up
  return bench::time_seconds([&] { t.run_steps(kSteps); }) /
         static_cast<double>(kSteps);
}

}  // namespace

int main() {
  bench::banner("Fig 12",
                "per-iteration time normalized to the vendor-fastest "
                "baseline, per device type (V100 / P100 / T4)");
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
      const double base = time_policy(name, kDevices[d],
                                      kernels::KernelPolicy::kFastest, wd);
      d1[d] = time_policy(name, kDevices[d],
                          kernels::KernelPolicy::kDeterministic, wd) /
              base;
      d2[d] = time_policy(name, kDevices[d],
                          kernels::KernelPolicy::kHardwareAgnostic, wd) /
              base;
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
