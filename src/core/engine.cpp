#include "core/engine.hpp"

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

}  // namespace easyscale::core
