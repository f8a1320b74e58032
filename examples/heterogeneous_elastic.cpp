// Heterogeneous elasticity with on-demand checkpoints.
//
// A D2-eligible transformer (Bert) trains across a mix of V100/P100/T4
// simulated GPUs, is checkpointed to bytes, "crashes", and is restored into
// a completely different worker set — landing bitwise exactly where an
// uninterrupted homogeneous run would.  Also demonstrates the §3.3 model
// scan deciding whether heterogeneous GPUs are advisable per workload.
#include <cstdio>
#include <vector>

#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

int main() {
  using namespace easyscale;
  using kernels::DeviceType;

  // --- model scan: which workloads should run on heterogeneous GPUs? -----
  std::printf("D2 eligibility scan (§3.3):\n");
  for (const auto& name : models::workload_names()) {
    const auto w = models::make_workload(name);
    std::printf("  %-18s -> %s\n", name.c_str(),
                core::d2_recommended(*w)
                    ? "heterogeneous OK (no vendor-tuned kernels)"
                    : "keep homogeneous (conv kernels; D2 is costly)");
  }

  const std::string workload = "Bert";
  const std::uint64_t seed = 7;
  auto wd = models::make_dataset_for(workload, 256, 64, seed);

  core::EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = seed;
  cfg.determinism.level = core::DeterminismLevel::kD1;
  cfg.determinism.d2 = true;  // hardware-agnostic kernels

  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{DeviceType::kV100},
                            core::WorkerSpec{DeviceType::kP100}});
  engine.run_steps(20);
  std::printf("\n20 steps on V100+P100 done; taking on-demand checkpoint "
              "(EST contexts + extra states + parameters)...\n");
  const std::vector<std::uint8_t> ckpt = engine.checkpoint();
  std::printf("checkpoint size: %.1f KiB\n",
              static_cast<double>(ckpt.size()) / 1024.0);

  // "Crash": rebuild a fresh engine on completely different hardware.
  core::EasyScaleEngine revived(cfg, *wd.train, wd.augment);
  revived.configure_workers({core::WorkerSpec{DeviceType::kT4},
                             core::WorkerSpec{DeviceType::kT4},
                             core::WorkerSpec{DeviceType::kV100}});
  revived.restore(ckpt);
  revived.run_steps(20);
  std::printf("restored onto 2xT4 + 1xV100 and ran 20 more steps.\n");

  // Reference: the same 40 steps on fixed homogeneous DDP (D2 kernels).
  parallel::Trainer reference(core::trainer_config(cfg), *wd.train,
                              wd.augment);
  reference.run_steps(40);

  std::printf("\nrevived  digest: %016llx\n",
              static_cast<unsigned long long>(revived.params_digest()));
  std::printf("DDP-heter digest: %016llx\n",
              static_cast<unsigned long long>(reference.params_digest()));
  if (revived.params_digest() == reference.params_digest()) {
    std::printf("=> bitwise IDENTICAL across crash + heterogeneous rescale.\n");
    return 0;
  }
  std::printf("=> MISMATCH (this is a bug)\n");
  return 1;
}
