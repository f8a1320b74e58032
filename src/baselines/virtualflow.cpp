#include "baselines/virtualflow.hpp"

#include "common/digest.hpp"

namespace easyscale::baselines {

VirtualFlowTrainer::VirtualFlowTrainer(VirtualFlowConfig config,
                                       const data::Dataset& train,
                                       const data::AugmentConfig& augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {
  ES_CHECK(config_.virtual_nodes > 0, "need at least one virtual node");
  const auto order =
      std::make_shared<data::EpochOrder>(train.size(), config_.seed, true);
  for (std::int64_t v = 0; v < config_.virtual_nodes; ++v) {
    pipelines_.emplace_back(train, augment_, config_.virtual_nodes, v,
                            config_.batch_per_virtual, config_.seed, order);
  }
}

void VirtualFlowTrainer::reconfigure(std::int64_t world) {
  ES_CHECK(world > 0 && world <= config_.virtual_nodes,
           "physical world must be in [1, virtual_nodes]");
  std::vector<tensor::Tensor> saved;
  if (!replicas_.empty()) {
    for (const auto* p : replicas_[0].workload->params().all()) {
      saved.push_back(p->value);
    }
  }
  replicas_.clear();
  replicas_.resize(static_cast<std::size_t>(world));
  for (std::int64_t r = 0; r < world; ++r) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.workload = models::make_workload(config_.workload);
    rep.workload->init(config_.seed);
    rep.optimizer =
        optim::make_optimizer(rep.workload->params(), config_.optim);
    rep.streams.seed_all(config_.seed, static_cast<std::uint64_t>(r));
    // Strided virtual-node assignment (VirtualFlow's static mapping).
    for (std::int64_t v = r; v < config_.virtual_nodes; v += world) {
      rep.virtual_nodes.push_back(v);
    }
    if (!saved.empty()) {
      const auto& params = rep.workload->params().all();
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i]->value = saved[i];
      }
    }
  }
  // The restart rebuilds communication state.
  sync_.emplace(replicas_[0].workload->params(), config_.bucket_cap_bytes,
                replicas_.size(), /*overlap=*/false, /*rebuild_buckets=*/true);
}

void VirtualFlowTrainer::one_step() {
  ES_CHECK(!replicas_.empty(), "reconfigure before running");
  sync_->begin_step(/*allow_overlap=*/false);
  float last_loss = 0.0f;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    auto& store = rep.workload->params();
    store.zero_grads();
    // Gradient accumulation: micro-batches of all owned virtual nodes run
    // back to back on the physical worker, sharing its RNG stream and BN
    // buffers — the consistency gap vs EasyScale's per-EST contexts.
    for (std::size_t k = 0; k < rep.virtual_nodes.size(); ++k) {
      const std::int64_t v = rep.virtual_nodes[k];
      autograd::StepContext ctx;
      ctx.exec = &rep.exec;
      ctx.rng = &rep.streams;
      ctx.training = true;
      // The first micro-batch's ready order stands for the whole step.
      if (k == 0) sync_->attach(r, store, ctx);
      const data::Batch batch =
          pipelines_[static_cast<std::size_t>(v)].next();
      const float loss = rep.workload->train_step(ctx, batch);
      if (v == config_.virtual_nodes - 1) last_loss = loss;
    }
    sync_->collect(r, store);
  }
  // All-reduce over the physical world, averaging by the virtual count so
  // the effective update matches DDP's global-batch mean.
  sync_->reduce();
  // The all-reduce divides by the physical world; rescale to the mean over
  // virtual nodes.
  const float fix = static_cast<float>(replicas_.size()) /
                    static_cast<float>(config_.virtual_nodes);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    for (auto& g : sync_->part(r).grads) {
      for (auto& x : g.data()) x *= fix;
    }
    sync_->part(r).to_store(replicas_[r].workload->params());
    replicas_[r].optimizer->step();
  }
  sync_->end_step(replicas_[0].workload->params());
  losses_.push_back(last_loss);
}

void VirtualFlowTrainer::run_steps(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) one_step();
}

std::uint64_t VirtualFlowTrainer::params_digest() const {
  Digest d;
  for (const auto* p : replicas_[0].workload->params().all()) {
    d.update(p->value.data());
  }
  return d.value();
}

}  // namespace easyscale::baselines
