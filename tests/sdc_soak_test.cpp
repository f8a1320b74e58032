// SDC-defense false-positive soak.
//
// The re-execution witness condemns hardware on a single digest mismatch,
// so its false-positive rate must be ZERO: on a healthy fleet every witness
// replay is a deterministic re-run and must match bit for bit.  Each seed
// varies the training run (engine seed, worker count, witness cadence) and
// layers a CLASSIC fault schedule (crashes, revocations, stragglers) on
// top with SDC injection disabled — recoveries, EST remaps and checkpoint
// walk-backs must never trip the witness or cost a verified checkpoint.
// CI sweeps many seeds via EASYSCALE_SOAK_SEEDS (ctest -L soak), plain and
// under TSan; the default stays small so a local `ctest` run is quick.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "models/datasets.hpp"

namespace easyscale::fault {
namespace {

int soak_seed_count() {
  if (const char* env = std::getenv("EASYSCALE_SOAK_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4;
}

TEST(SdcSoak, WitnessNeverFalsePositivesOnHealthyDevices) {
  const int seeds = soak_seed_count();
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);
  constexpr std::int64_t kSteps = 16;
  for (int s = 0; s < seeds; ++s) {
    core::EasyScaleConfig ecfg;
    ecfg.workload = "NeuMF";
    ecfg.num_ests = 4;
    ecfg.batch_per_est = 4;
    ecfg.seed = 42 + static_cast<std::uint64_t>(s);
    const std::int64_t workers = 2 + s % 3;

    // Reference digest for this engine seed (no faults, no witness).
    std::uint64_t clean = 0;
    {
      core::EasyScaleEngine ref(ecfg, *wd.train, wd.augment);
      ref.configure_workers(
          std::vector<core::WorkerSpec>(static_cast<std::size_t>(workers)));
      ref.run_steps(kSteps);
      clean = ref.params_digest();
    }

    // Classic faults only: every SDC rate stays zero, so any witness
    // mismatch or failed verification is a false positive by definition.
    FaultPlanConfig pcfg;
    pcfg.seed = 0x50DC + static_cast<std::uint64_t>(s) * 0x9E3779B97F4A7C15ull;
    pcfg.horizon_steps = kSteps;
    pcfg.num_workers = workers;
    pcfg.crash_rate = 0.10;
    pcfg.revocation_rate = 0.05;
    pcfg.straggler_rate = 0.05;
    ASSERT_EQ(FaultInjector::from_config(pcfg).schedule(),
              FaultInjector::from_config(pcfg).schedule())
        << "seed " << s;

    core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
    core::CheckpointManager mgr(
        std::string(::testing::TempDir()) + "/sdc_soak_" + std::to_string(s),
        4);
    mgr.clear();
    SupervisorConfig scfg;
    scfg.policy = RecoveryPolicy::kElasticScaleIn;
    scfg.checkpoint_every = 4;
    scfg.sdc_defense = true;  // the full defense stack is armed ...
    scfg.witness_every = 1 + s % 2;
    FaultSupervisor sup(engine, mgr, FaultInjector::from_config(pcfg), scfg);
    const auto stats = sup.run_to(kSteps, workers);

    EXPECT_FALSE(stats.failed) << "seed " << s;
    // ... and must stay silent: zero detections, zero condemned devices.
    EXPECT_EQ(stats.sdc_detections, 0) << "seed " << s;
    EXPECT_EQ(stats.devices_quarantined, 0) << "seed " << s;
    EXPECT_EQ(engine.witness_stats().mismatches, 0) << "seed " << s;
    EXPECT_TRUE(sup.condemned_devices().empty()) << "seed " << s;
    // The witness actually ran (this soak is not vacuous) and the run still
    // ends bitwise clean through every crash/revocation recovery.
    EXPECT_GT(stats.witness_replays, 0) << "seed " << s;
    EXPECT_EQ(engine.params_digest(), clean) << "seed " << s;
    mgr.clear();
  }
}

}  // namespace
}  // namespace easyscale::fault
