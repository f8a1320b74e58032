// Fig 2: non-deterministic accuracy curves of ResNet18 under elastic
// training frameworks with varying GPU counts, vs EasyScale.
//
// The model is designed for 4 workers (batch 8 each).  TorchElastic keeps
// per-worker batch fixed and linear-scales the LR; Pollux adapts batch+LR;
// both therefore train a *different* procedure at every world size.
// EasyScale runs the same 4 ESTs whatever the physical worker count, so its
// accuracy column is constant (and equals DDP-4GPU).
#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/elastic_baselines.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "models/eval.hpp"
#include "parallel/trainer.hpp"

namespace {

using namespace easyscale;

constexpr std::int64_t kTrain = 512, kTest = 256;
constexpr std::int64_t kEpochs = 12;
constexpr std::uint64_t kSeed = 42;
constexpr const char* kModel = "ResNet18";

struct Curve {
  std::string name;
  std::vector<double> acc;  // accuracy per epoch
};

Curve eval_loop(const std::string& name,
                const std::function<void()>& run_one_epoch,
                const std::function<models::Workload&()>& model,
                const data::Dataset& test) {
  Curve c{name, {}};
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    run_one_epoch();
    c.acc.push_back(
        models::evaluate(model(), test, 32, 10).overall);
  }
  return c;
}

Curve run_ddp_reference(const data::Dataset& train, const data::Dataset& test,
                        const data::AugmentConfig& augment) {
  parallel::TrainerConfig cfg;
  cfg.workload = kModel;
  cfg.world_size = 4;
  cfg.batch_per_worker = 8;
  cfg.seed = kSeed;
  parallel::Trainer t(cfg, train, augment);
  return eval_loop(
      "DDP-4GPU", [&] { t.run_epochs(1); },
      [&]() -> models::Workload& { return t.model(); }, test);
}

template <typename TrainerT>
Curve run_baseline(const std::string& name, std::int64_t world,
                   const data::Dataset& train, const data::Dataset& test,
                   const data::AugmentConfig& augment) {
  baselines::ElasticBaselineConfig cfg;
  cfg.workload = kModel;
  cfg.base_world = 4;
  cfg.base_batch = 8;
  cfg.base_lr = 0.1f;
  cfg.seed = kSeed;
  TrainerT t(cfg, train, augment);
  t.reconfigure(world);
  return eval_loop(
      name, [&] { t.run_epochs(1); },
      [&]() -> models::Workload& { return t.model(); }, test);
}

Curve run_easyscale(std::int64_t physical, const data::Dataset& train,
                    const data::Dataset& test,
                    const data::AugmentConfig& augment) {
  core::EasyScaleConfig cfg;
  cfg.workload = kModel;
  cfg.num_ests = 4;
  cfg.batch_per_est = 8;
  cfg.seed = kSeed;
  core::EasyScaleEngine e(cfg, train, augment);
  e.configure_workers(std::vector<core::WorkerSpec>(
      static_cast<std::size_t>(physical), core::WorkerSpec{}));
  return eval_loop(
      "EasyScale-" + std::to_string(physical) + "GPU",
      [&] { e.run_epochs(1); },
      [&]() -> models::Workload& { return e.model(); }, test);
}

}  // namespace

int main() {
  bench::banner("Fig 2",
                "validation accuracy of ResNet18 under elastic training "
                "with varying GPU counts (synthetic CIFAR)");
  auto wd = models::make_dataset_for(kModel, kTrain, kTest, kSeed);

  std::vector<Curve> curves;
  curves.push_back(run_ddp_reference(*wd.train, *wd.test, wd.augment));
  for (std::int64_t w : {1, 2, 8}) {
    curves.push_back(run_baseline<baselines::TorchElasticTrainer>(
        "TE-" + std::to_string(w) + "GPU", w, *wd.train, *wd.test,
        wd.augment));
  }
  for (std::int64_t w : {1, 2, 8}) {
    curves.push_back(run_baseline<baselines::PolluxTrainer>(
        "Pollux-" + std::to_string(w) + "GPU", w, *wd.train, *wd.test,
        wd.augment));
  }
  for (std::int64_t p : {1, 2, 4}) {
    curves.push_back(run_easyscale(p, *wd.train, *wd.test, wd.augment));
  }

  std::printf("\n%-16s", "epoch");
  for (std::int64_t e = 0; e < kEpochs; e += 2) std::printf("%8lld", static_cast<long long>(e + 1));
  std::printf("%10s\n", "final");
  const auto& ref = curves[0];
  for (const auto& c : curves) {
    std::printf("%-16s", c.name.c_str());
    for (std::int64_t e = 0; e < kEpochs; e += 2) {
      std::printf("%7.1f%%", 100.0 * c.acc[static_cast<std::size_t>(e)]);
    }
    std::printf("%9.1f%%\n", 100.0 * c.acc.back());
  }
  std::printf("\nmax |final - DDP-4GPU| per framework:\n");
  double te_dev = 0.0, px_dev = 0.0, es_dev = 0.0;
  for (const auto& c : curves) {
    const double dev = std::abs(c.acc.back() - ref.acc.back());
    if (c.name.rfind("TE-", 0) == 0) te_dev = std::max(te_dev, dev);
    if (c.name.rfind("Pollux-", 0) == 0) px_dev = std::max(px_dev, dev);
    if (c.name.rfind("EasyScale-", 0) == 0) es_dev = std::max(es_dev, dev);
  }
  std::printf("  TorchElastic: %.2f%%   Pollux: %.2f%%   EasyScale: %.2f%% "
              "(paper: TE/Pollux visible variance, EasyScale 0)\n",
              100.0 * te_dev, 100.0 * px_dev, 100.0 * es_dev);
  return 0;
}
