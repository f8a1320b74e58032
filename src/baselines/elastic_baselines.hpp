// Elastic-training baselines the paper compares against (§2.2, Figs 2-4).
//
// Both baselines restart their DDP world on a rescale, carrying model and
// optimizer state through a checkpoint but re-deriving hyper-parameters
// from the new world size — which is precisely the behaviour that makes
// their accuracy depend on the resource schedule:
//
//  TorchElasticTrainer — keeps per-worker batch size fixed (global batch
//    scales with the world) and applies the linear LR scaling rule [24].
//  PolluxTrainer — goodput-style adaptation: rescales per-worker batch and
//    applies square-root LR scaling, using gradient accumulation when the
//    per-worker batch would exceed its cap.
#pragma once

#include <memory>

#include "models/datasets.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::baselines {

struct ElasticBaselineConfig {
  std::string workload = "ResNet18";
  std::int64_t base_world = 4;   // DoP the hyper-parameters were designed for
  std::int64_t base_batch = 8;   // per-worker batch at base_world
  float base_lr = 0.1f;
  float momentum = 0.9f;
  std::uint64_t seed = 42;
  std::int64_t lr_step_epochs = 20;
  float gamma = 0.1f;
};

/// Common restart-on-rescale machinery.
class ElasticTrainerBase {
 public:
  ElasticTrainerBase(ElasticBaselineConfig config, const data::Dataset& train,
                     const data::AugmentConfig& augment);
  virtual ~ElasticTrainerBase() = default;

  /// Rescale to `world` workers: checkpoint params/optimizer, restart the
  /// DDP world, re-derive hyper-parameters (subclass policy).
  void reconfigure(std::int64_t world);

  void run_steps(std::int64_t n);
  void run_epochs(std::int64_t n);

  [[nodiscard]] models::Workload& model() { return trainer_->model(); }
  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }
  [[nodiscard]] std::uint64_t params_digest() const {
    return trainer_->params_digest();
  }
  [[nodiscard]] std::int64_t world() const { return world_; }
  [[nodiscard]] float current_lr() const { return current_lr_; }
  [[nodiscard]] std::int64_t current_batch() const { return current_batch_; }

 protected:
  /// Policy hook: (lr, per-worker batch) for the new world size.
  virtual void derive_hyperparams(std::int64_t world, float& lr,
                                  std::int64_t& batch) const = 0;

  ElasticBaselineConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;

 private:
  void rebuild(std::int64_t world, float lr, std::int64_t batch);

  std::unique_ptr<parallel::Trainer> trainer_;
  std::int64_t world_ = 0;
  float current_lr_ = 0.0f;
  std::int64_t current_batch_ = 0;
  std::int64_t epochs_done_ = 0;
  std::vector<float> losses_;
};

class TorchElasticTrainer : public ElasticTrainerBase {
 public:
  using ElasticTrainerBase::ElasticTrainerBase;

 protected:
  void derive_hyperparams(std::int64_t world, float& lr,
                          std::int64_t& batch) const override;
};

class PolluxTrainer : public ElasticTrainerBase {
 public:
  using ElasticTrainerBase::ElasticTrainerBase;

 protected:
  void derive_hyperparams(std::int64_t world, float& lr,
                          std::int64_t& batch) const override;
};

}  // namespace easyscale::baselines
