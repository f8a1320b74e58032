#include "core/engine.hpp"

#include "common/log.hpp"

namespace easyscale::core {

parallel::TrainerConfig trainer_config(const EasyScaleConfig& c) {
  parallel::TrainerConfig t;
  t.workload = c.workload;
  t.world_size = c.num_ests;
  t.batch_per_worker = c.batch_per_est;
  t.seed = c.seed;
  t.policy = kernel_policy(c.determinism);
  t.custom_d2_gemm = c.custom_d2_gemm;
  t.bucket_cap_bytes = c.bucket_cap_bytes;
  t.optim = c.optim;
  t.lr_step_epochs = c.lr_step_epochs;
  t.gamma = c.gamma;
  t.parallel_workers = c.parallel_workers;
  t.intra_op_threads = c.intra_op_threads;
  t.resilient_comm = c.resilient_comm;
  t.overlap_comm = c.overlap_comm;
  t.witness = c.witness;
  t.use_async_loader = c.use_async_loader;
  t.loader = c.loader;
  t.context_switching = c.context_switching;
  // D1 records the gradient-bucket mapping; D0 deliberately loses it.
  t.checkpoint_layout = c.determinism.level == DeterminismLevel::kD1;
  return t;
}

EasyScaleEngine::EasyScaleEngine(EasyScaleConfig config,
                                 const data::Dataset& train,
                                 data::AugmentConfig augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {
  ES_CHECK(config_.num_ests > 0, "need at least one EST");
}

EasyScaleEngine::~EasyScaleEngine() = default;

parallel::Trainer& EasyScaleEngine::trainer() {
  ES_CHECK(trainer_ != nullptr, "configure_workers before use");
  return *trainer_;
}

const parallel::Trainer& EasyScaleEngine::trainer() const {
  ES_CHECK(trainer_ != nullptr, "configure_workers before use");
  return *trainer_;
}

std::vector<std::uint8_t> EasyScaleEngine::checkpoint() const {
  // Taking the image gathers the optimizer state onto worker 0, which
  // changes no value the engine trains with.
  ES_CHECK(trainer_ != nullptr, "configure_workers before use");
  return trainer_->checkpoint_bytes();
}

void EasyScaleEngine::configure_workers(
    const std::vector<WorkerSpec>& workers,
    std::optional<std::vector<std::vector<std::int64_t>>> assignment) {
  if (trainer_ == nullptr) {
    trainer_ = std::make_unique<parallel::Trainer>(
        trainer_config(config_), *train_, augment_, workers,
        std::move(assignment));
  } else {
    trainer_->configure_workers(workers, std::move(assignment));
  }
  ES_LOG_INFO("EasyScale reconfigured onto " << workers.size()
                                             << " worker(s)");
}

void EasyScaleEngine::set_witness_every(std::int64_t every) {
  config_.witness.witness_every = every;
  if (trainer_ != nullptr) trainer_->set_witness_every(every);
}

}  // namespace easyscale::core
