#include "baselines/elastic_baselines.hpp"

#include <cmath>

#include "common/log.hpp"

namespace easyscale::baselines {

ElasticTrainerBase::ElasticTrainerBase(ElasticBaselineConfig config,
                                       const data::Dataset& train,
                                       const data::AugmentConfig& augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {}

void ElasticTrainerBase::rebuild(std::int64_t world, float lr,
                                 std::int64_t batch) {
  // Carry parameters across the restart (TorchElastic checkpoint-restore);
  // per-rank RNG, samplers and bucket state restart from scratch — the
  // non-determinism sources §3.3 catalogues.
  std::vector<tensor::Tensor> saved;
  if (trainer_) {
    for (const auto* p : trainer_->model().params().all()) {
      saved.push_back(p->value);
    }
  }
  parallel::TrainerConfig cfg;
  cfg.workload = config_.workload;
  cfg.world_size = world;
  cfg.batch_per_worker = batch;
  cfg.seed = config_.seed;
  cfg.optim.lr = lr;
  cfg.optim.momentum = config_.momentum;
  cfg.lr_step_epochs = config_.lr_step_epochs;
  cfg.gamma = config_.gamma;
  trainer_ = std::make_unique<parallel::Trainer>(cfg, *train_, augment_);
  if (!saved.empty()) {
    for (std::int64_t r = 0; r < world; ++r) {
      const auto& params = trainer_->model(r).params().all();
      ES_CHECK(params.size() == saved.size(), "restart parameter mismatch");
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i]->value = saved[i];
      }
    }
  }
  world_ = world;
  current_lr_ = lr;
  current_batch_ = batch;
}

void ElasticTrainerBase::reconfigure(std::int64_t world) {
  float lr = config_.base_lr;
  std::int64_t batch = config_.base_batch;
  derive_hyperparams(world, lr, batch);
  rebuild(world, lr, batch);
  ES_LOG_DEBUG("elastic baseline rescaled to " << world << " workers, lr="
                                               << lr << " bs=" << batch);
}

void ElasticTrainerBase::run_steps(std::int64_t n) {
  ES_CHECK(trainer_ != nullptr, "reconfigure before running");
  const std::size_t before = trainer_->loss_history().size();
  trainer_->run_steps(n);
  losses_.insert(losses_.end(), trainer_->loss_history().begin() +
                                    static_cast<std::ptrdiff_t>(before),
                 trainer_->loss_history().end());
}

void ElasticTrainerBase::run_epochs(std::int64_t n) {
  ES_CHECK(trainer_ != nullptr, "reconfigure before running");
  for (std::int64_t e = 0; e < n; ++e) {
    trainer_->set_epoch_all(epochs_done_);
    run_steps(trainer_->steps_per_epoch());
    ++epochs_done_;
  }
}

void TorchElasticTrainer::derive_hyperparams(std::int64_t world, float& lr,
                                             std::int64_t& batch) const {
  // Fixed per-worker batch => global batch grows with the world; the linear
  // scaling rule adjusts the LR proportionally [Goyal et al.].
  batch = config_.base_batch;
  lr = config_.base_lr * static_cast<float>(world) /
       static_cast<float>(config_.base_world);
}

void PolluxTrainer::derive_hyperparams(std::int64_t world, float& lr,
                                       std::int64_t& batch) const {
  // Goodput-style adaptation: keep the global batch near its designed value
  // by shrinking/growing the per-worker batch, and use square-root LR
  // scaling for whatever residual global-batch change remains.
  const std::int64_t designed_global = config_.base_world * config_.base_batch;
  batch = std::max<std::int64_t>(1, designed_global / world);
  const double actual_global = static_cast<double>(batch * world);
  lr = config_.base_lr *
       static_cast<float>(std::sqrt(actual_global /
                                    static_cast<double>(designed_global)));
}

}  // namespace easyscale::baselines
