// escale_train — a small CLI around the EasyScale engine.
//
// Usage:
//   escale_train [--workload NAME] [--ests N] [--batch N] [--epochs N]
//                [--seed S] [--optimizer sgd|adam] [--lr F] [--d2]
//                [--schedule W1,W2,...]       # worker count per epoch
//                [--checkpoint PATH]          # save the image at the end
//                [--resume PATH]              # restore before training
//                [--verify]                   # compare vs fixed-DoP DDP
//
// Example:
//   escale_train --workload ResNet18 --ests 4 --schedule 2,4,1 --verify
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint_io.hpp"
#include "core/engine.hpp"
#include "models/datasets.hpp"
#include "models/eval.hpp"
#include "parallel/trainer.hpp"

namespace {

using namespace easyscale;

struct Args {
  std::string workload = "ResNet18";
  std::int64_t ests = 4;
  std::int64_t batch = 8;
  std::int64_t epochs = 3;
  std::uint64_t seed = 42;
  std::string optimizer = "sgd";
  float lr = 0.1f;
  bool d2 = false;
  std::vector<std::size_t> schedule;  // workers per epoch
  std::string checkpoint;
  std::string resume;
  bool verify = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      const char* v = next();
      if (!v) return false;
      args.workload = v;
    } else if (flag == "--ests") {
      const char* v = next();
      if (!v) return false;
      args.ests = std::atoll(v);
    } else if (flag == "--batch") {
      const char* v = next();
      if (!v) return false;
      args.batch = std::atoll(v);
    } else if (flag == "--epochs") {
      const char* v = next();
      if (!v) return false;
      args.epochs = std::atoll(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v) return false;
      args.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (flag == "--optimizer") {
      const char* v = next();
      if (!v) return false;
      args.optimizer = v;
    } else if (flag == "--lr") {
      const char* v = next();
      if (!v) return false;
      args.lr = static_cast<float>(std::atof(v));
    } else if (flag == "--d2") {
      args.d2 = true;
    } else if (flag == "--schedule") {
      const char* v = next();
      if (!v) return false;
      for (const char* p = v; *p != '\0';) {
        args.schedule.push_back(static_cast<std::size_t>(std::atoll(p)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (flag == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      args.checkpoint = v;
    } else if (flag == "--resume") {
      const char* v = next();
      if (!v) return false;
      args.resume = v;
    } else if (flag == "--verify") {
      args.verify = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args.schedule.empty()) {
    args.schedule.assign(static_cast<std::size_t>(args.epochs), 2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;
  std::printf("workload=%s ests=%lld batch=%lld seed=%llu optimizer=%s "
              "lr=%g d2=%d\n",
              args.workload.c_str(), static_cast<long long>(args.ests),
              static_cast<long long>(args.batch),
              static_cast<unsigned long long>(args.seed),
              args.optimizer.c_str(), static_cast<double>(args.lr),
              args.d2 ? 1 : 0);

  auto wd = models::make_dataset_for(args.workload, 512, 256, args.seed);
  core::EasyScaleConfig cfg;
  cfg.workload = args.workload;
  cfg.num_ests = args.ests;
  cfg.batch_per_est = args.batch;
  cfg.seed = args.seed;
  cfg.determinism.d2 = args.d2;
  cfg.optim.lr = args.lr;
  cfg.optim.kind = args.optimizer == "adam"
                       ? optim::OptimizerConfig::Kind::kAdam
                       : optim::OptimizerConfig::Kind::kSGD;

  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(args.schedule[0]));
  if (!args.resume.empty()) {
    // Errors name the file: a torn or foreign file never restores.
    engine.restore_checkpoint_bytes(
        core::load_checkpoint_file(args.resume), args.resume);
    std::printf("resumed from %s at global step %lld\n", args.resume.c_str(),
                static_cast<long long>(engine.global_step()));
  }

  std::size_t epoch = 0;
  for (std::size_t workers : args.schedule) {
    engine.configure_workers(std::vector<core::WorkerSpec>(workers));
    engine.run_epochs(1);
    const float loss = engine.loss_history().back();
    std::printf("epoch %zu on %zu worker(s): last loss %.4f\n", ++epoch,
                workers, static_cast<double>(loss));
  }
  const auto report =
      models::evaluate(engine.model(), *wd.test, 32, 10);
  std::printf("validation accuracy: %.1f%%\n", 100.0 * report.overall);
  std::printf("params digest: %016llx\n",
              static_cast<unsigned long long>(engine.params_digest()));

  if (!args.checkpoint.empty()) {
    core::save_checkpoint_file(args.checkpoint, engine.checkpoint());
    std::printf("checkpoint written to %s\n", args.checkpoint.c_str());
  }
  if (args.verify && args.resume.empty()) {
    parallel::Trainer reference(core::trainer_config(cfg), *wd.train,
                                wd.augment);
    reference.run_epochs(static_cast<std::int64_t>(args.schedule.size()));
    const bool same = reference.params_digest() == engine.params_digest();
    std::printf("verification vs fixed-DoP DDP: %s\n",
                same ? "bitwise IDENTICAL" : "MISMATCH");
    return same ? 0 : 1;
  }
  return 0;
}
