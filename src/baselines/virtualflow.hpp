// VirtualFlow-style baseline (Or et al., MLSys'22): elasticity via
// gradient accumulation over a fixed count of "virtual nodes".
//
// Each physical worker sequentially processes the micro-batches of the
// virtual nodes assigned to it and accumulates their gradients locally
// before the all-reduce.  Unlike EasyScale, it does NOT virtualize the
// consistency-relevant state: dropout draws from the *physical* worker's
// stream, BatchNorm statistics follow the physical replica, and the local
// accumulation changes the floating-point association when the physical
// world changes.  Result: same global batch and sample partition as DDP,
// but bitwise-different training whenever the physical world differs —
// the ~0.4% accuracy drift the paper cites for VirtualFlow (§2.2).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "data/pipeline.hpp"
#include "models/workload.hpp"
#include "optim/optimizer.hpp"
#include "optim/sgd.hpp"
#include "parallel/grad_sync.hpp"

namespace easyscale::baselines {

struct VirtualFlowConfig {
  std::string workload = "ResNet18";
  std::int64_t virtual_nodes = 4;  // fixed logical DoP
  std::int64_t batch_per_virtual = 8;
  std::uint64_t seed = 42;
  optim::OptimizerConfig optim;
  std::int64_t bucket_cap_bytes = 4096;
};

class VirtualFlowTrainer {
 public:
  VirtualFlowTrainer(VirtualFlowConfig config, const data::Dataset& train,
                     const data::AugmentConfig& augment);

  /// Rescale to `world` physical workers (carries parameters, restarts
  /// worker-local state — VirtualFlow's checkpoint semantics).
  void reconfigure(std::int64_t world);

  void run_steps(std::int64_t n);

  [[nodiscard]] std::uint64_t params_digest() const;
  [[nodiscard]] const std::vector<float>& loss_history() const {
    return losses_;
  }
  [[nodiscard]] std::int64_t world() const {
    return static_cast<std::int64_t>(replicas_.size());
  }
  [[nodiscard]] models::Workload& model() { return *replicas_[0].workload; }

 private:
  struct Replica {
    std::unique_ptr<models::Workload> workload;
    std::unique_ptr<optim::Optimizer> optimizer;
    rng::StreamSet streams;  // physical-worker stream: NOT per virtual node
    kernels::ExecContext exec;
    std::vector<std::int64_t> virtual_nodes;  // strided assignment
  };

  void one_step();

  VirtualFlowConfig config_;
  const data::Dataset* train_;
  data::AugmentConfig augment_;
  std::vector<data::RankDataPipeline> pipelines_;  // one per virtual node
  std::vector<Replica> replicas_;
  std::optional<parallel::GradSync> sync_;  // rebuilt by reconfigure
  std::vector<float> losses_;
};

}  // namespace easyscale::baselines
