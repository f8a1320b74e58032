#include "core/engine.hpp"

#include <bit>
#include <sstream>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace easyscale::core {

namespace {
constexpr std::int64_t kPrefetchSteps = 2;
constexpr std::uint32_t kCheckpointMagic = 0x45535631;  // "ESV1"
}  // namespace

EasyScaleEngine::EasyScaleEngine(EasyScaleConfig config,
                                 const data::Dataset& train,
                                 data::AugmentConfig augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {
  ES_CHECK(config_.num_ests > 0, "need at least one EST");
  // Per-EST pipelines and initial contexts.  Contexts start from a freshly
  // initialized prototype replica (all virtual workers begin identical,
  // like DDP after the rank-0 broadcast).
  auto prototype = models::make_workload(config_.workload);
  prototype->init(config_.seed);
  for (std::int64_t r = 0; r < config_.num_ests; ++r) {
    pipelines_.emplace_back(train, augment_, config_.num_ests, r,
                            config_.batch_per_est, config_.seed);
    ESTContext ctx;
    ctx.virtual_rank = r;
    rng::StreamSet streams;
    streams.seed_all(config_.seed, static_cast<std::uint64_t>(r));
    ctx.model_streams = streams.state();
    for (tensor::Tensor* b : prototype->buffers()) ctx.bn_buffers.push_back(*b);
    contexts_.push_back(std::move(ctx));
  }
  steps_per_epoch_ =
      data::DistributedSampler(train.size(), config_.num_ests, 0,
                               config_.batch_per_est, config_.seed)
          .steps_per_epoch();
  sync_.emplace(prototype->params(), config_.bucket_cap_bytes,
                static_cast<std::size_t>(config_.num_ests),
                config_.overlap_comm, /*rebuild_buckets=*/true);
}

EasyScaleEngine::~EasyScaleEngine() = default;

void EasyScaleEngine::rebuild_loader() {
  pool_.reset();
  if (config_.use_async_loader) {
    pool_ = std::make_unique<data::SharedDataWorkerPool>(*train_,
                                                         config_.loader);
  }
}

void EasyScaleEngine::configure_workers(
    const std::vector<WorkerSpec>& specs,
    std::optional<std::vector<std::vector<std::int64_t>>> assignment) {
  ES_CHECK(!specs.empty(), "need at least one worker");
  ES_CHECK(static_cast<std::int64_t>(specs.size()) <= config_.num_ests,
           "more workers than ESTs");
  // On-demand checkpoint of the running state before tearing down the old
  // worker set (scale in/out path).
  std::vector<std::uint8_t> snapshot;
  const bool had_workers = !workers_.empty();
  if (had_workers) snapshot = checkpoint_locked();

  std::vector<std::vector<std::int64_t>> plan;
  if (assignment.has_value()) {
    plan = std::move(*assignment);
    ES_CHECK(plan.size() == specs.size(), "assignment/worker count mismatch");
    std::vector<bool> seen(static_cast<std::size_t>(config_.num_ests), false);
    for (const auto& ests : plan) {
      for (auto e : ests) {
        ES_CHECK(e >= 0 && e < config_.num_ests, "EST rank out of range");
        ES_CHECK(!seen[static_cast<std::size_t>(e)], "EST assigned twice");
        seen[static_cast<std::size_t>(e)] = true;
      }
    }
    for (bool s : seen) ES_CHECK(s, "EST left unassigned");
  } else {
    // Contiguous balanced split.
    plan.resize(specs.size());
    const auto w = static_cast<std::int64_t>(specs.size());
    std::int64_t next = 0;
    for (std::int64_t i = 0; i < w; ++i) {
      const std::int64_t count =
          config_.num_ests / w + (i < config_.num_ests % w ? 1 : 0);
      for (std::int64_t k = 0; k < count; ++k) {
        plan[static_cast<std::size_t>(i)].push_back(next++);
      }
    }
  }
  if (!config_.context_switching) {
    for (const auto& ests : plan) {
      ES_CHECK(ests.size() == 1,
               "context switching disabled requires one EST per worker");
    }
  }

  workers_.clear();
  workers_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Worker w;
    w.spec = specs[i];
    w.replica = models::make_workload(config_.workload);
    w.replica->init(config_.seed);
    w.optimizer = optim::make_optimizer(w.replica->params(), config_.optim);
    w.scheduler = std::make_unique<optim::StepLR>(
        *w.optimizer, config_.lr_step_epochs, config_.gamma);
    w.exec.device = specs[i].device;
    w.exec.policy = kernel_policy(config_.determinism);
    w.exec.custom_gemm = config_.custom_d2_gemm;
    w.exec.intra_op_threads = config_.intra_op_threads;
    w.ests = plan[i];
    workers_.push_back(std::move(w));
  }
  rebuild_loader();
  if (config_.resilient_comm) {
    // Fresh membership epoch: a reconfiguration rebuilds the group, so the
    // fabric starts clean at the new world size.  Virtual participants ride
    // their physical worker's links; co-hosted ESTs exchange chunks locally.
    std::vector<int> host_of_est(static_cast<std::size_t>(config_.num_ests));
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      for (std::int64_t est : workers_[w].ests) {
        host_of_est[static_cast<std::size_t>(est)] = static_cast<int>(w);
      }
    }
    sync_->reset_fabric(static_cast<int>(workers_.size()), config_.transport,
                        config_.resilient, std::move(host_of_est));
  }
  if (had_workers) restore(snapshot);
  ES_LOG_INFO("EasyScale reconfigured onto " << workers_.size()
                                             << " worker(s)");
}

void EasyScaleEngine::capture_context(Worker& worker, ESTContext& ctx) {
  ctx.model_streams = worker.streams.state();
  auto buffers = worker.replica->buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    ctx.bn_buffers[i] = *buffers[i];
  }
  if (!config_.context_switching) return;  // nothing swapped out (Fig 11)
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.context_bytes_swapped += ctx.byte_size();
}

void EasyScaleEngine::restore_context(Worker& worker, const ESTContext& ctx) {
  worker.streams.set_state(ctx.model_streams);
  auto buffers = worker.replica->buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    *buffers[i] = ctx.bn_buffers[i];
  }
}

void EasyScaleEngine::one_step() {
  ES_CHECK(!workers_.empty(), "configure_workers before run");
  // Keep the shared data-worker pool fed `kPrefetchSteps` ahead.
  if (pool_) {
    for (std::int64_t e = 0; e < config_.num_ests; ++e) {
      while (pipelines_[static_cast<std::size_t>(e)].cursor() <
             global_step_ + kPrefetchSteps) {
        pool_->enqueue(pipelines_[static_cast<std::size_t>(e)].make_item());
      }
    }
  }

  // Decide the witness BEFORE workers run: the replay needs the pre-step
  // EST contexts (streams + BN buffers), which run_worker mutates.
  const bool witness_due =
      config_.witness.witness_every > 0 &&
      (global_step_ + 1) % config_.witness.witness_every == 0;
  std::vector<std::int64_t> witnessed(workers_.size(), -1);
  std::vector<ESTContext> pre_contexts(workers_.size());
  std::vector<data::Batch> witness_batches(workers_.size());
  std::vector<float> witness_losses(workers_.size(), 0.0f);
  if (witness_due) {
    ES_CHECK(
        kernel_policy(config_.determinism) != kernels::KernelPolicy::kFastest,
        "re-execution witness requires a deterministic kernel policy");
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const auto& ests = workers_[w].ests;
      witnessed[w] = ests[static_cast<std::size_t>(
          witness_round_ % static_cast<std::int64_t>(ests.size()))];
      pre_contexts[w] = contexts_[static_cast<std::size_t>(witnessed[w])];
    }
    ++witness_round_;
  }

  // Witness-due steps stay sequential: the witness compares against
  // pre-reduce gradient buffers, which the pipelined flush averages in
  // flight.
  sync_->begin_step(/*allow_overlap=*/!witness_due);

  float last_loss = 0.0f;
  auto run_worker = [&](std::size_t wi) {
    Worker& worker = workers_[wi];
    for (std::int64_t est : worker.ests) {
      ESTContext& ctx = contexts_[static_cast<std::size_t>(est)];
      if (config_.context_switching) {
        restore_context(worker, ctx);
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.context_switches;
        }
      } else {
        worker.streams.set_state(ctx.model_streams);
      }
      const data::Batch batch =
          pool_ ? pool_->get(est, global_step_)
                : pipelines_[static_cast<std::size_t>(est)].next();
      if (witness_due && est == witnessed[wi]) witness_batches[wi] = batch;
      const auto part = static_cast<std::size_t>(est);
      auto& store = worker.replica->params();
      store.zero_grads();
      autograd::StepContext step_ctx;
      step_ctx.exec = &worker.exec;
      step_ctx.rng = &worker.streams;
      step_ctx.training = true;
      sync_->attach(part, store, step_ctx);
      const float loss = worker.replica->train_step(step_ctx, batch);
      if (witness_due && est == witnessed[wi]) witness_losses[wi] = loss;
      if (est == config_.num_ests - 1) last_loss = loss;
      // Gradient D2H swap: the only working-set category that must leave
      // the device per EST (§3.2).
      sync_->collect(part, store);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.gradient_bytes_swapped +=
            comm::gradient_bytes(sync_->part(part));
      }
      capture_context(worker, ctx);
    }
  };
  // With parallel workers each owns a disjoint replica + EST set; the only
  // shared writes (loss of the last EST, the EST-0 recorder, swap counters,
  // witness capture slots) are ordered by the join and race-free by
  // construction (distinct ESTs / per-worker slots).
  run_each(workers_.size(), config_.parallel_workers, run_worker);
  // Re-execution witness: replay before the all-reduce publishes, so a
  // corrupt contribution is caught while it is still attributable to one
  // worker (the averaged result would implicate everybody).
  if (witness_due) {
    run_witness(witnessed, pre_contexts, witness_batches, witness_losses);
  }
  // ElasticDDP: ring all-reduce over the *virtual* ranks with the recorded
  // bucket layout — bitwise independent of the physical worker count.  A
  // condemned worker aborts the step: its ESTs' gradients are
  // unrecoverable without a rollback.
  sync_->reduce();
  for (auto& worker : workers_) {
    sync_->part(0).to_store(worker.replica->params());
    worker.optimizer->step();
  }
  sync_->end_step(workers_[0].replica->params());
  losses_.push_back(last_loss);
  ++global_step_;
}

void EasyScaleEngine::run_witness(
    const std::vector<std::int64_t>& witnessed_ests,
    const std::vector<ESTContext>& pre_contexts,
    const std::vector<data::Batch>& batches,
    const std::vector<float>& live_losses) {
  ++witness_stats_.runs;
  if (!witness_replica_) {
    witness_replica_ = models::make_workload(config_.workload);
    witness_replica_->init(config_.seed);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const std::int64_t est = witnessed_ests[w];
    ++witness_stats_.replays;
    // Clean execution context: same device and policy as the live worker —
    // so deterministic variant selection matches bit for bit — but no
    // post-op hook and a private scratch/cache.
    kernels::ExecContext exec;
    exec.device = workers_[w].spec.device;
    exec.policy = kernel_policy(config_.determinism);
    exec.custom_gemm = config_.custom_d2_gemm;
    exec.intra_op_threads = config_.intra_op_threads;
    // Step-start parameters are still live on every replica (the optimizer
    // has not stepped yet); the pre-step context restores streams and BN
    // buffers, the captured batch replays the exact input.
    const auto& src = workers_[0].replica->params().all();
    const auto& dst = witness_replica_->params().all();
    ES_CHECK(src.size() == dst.size(), "witness replica parameter mismatch");
    for (std::size_t p = 0; p < src.size(); ++p) dst[p]->value = src[p]->value;
    witness_streams_.set_state(pre_contexts[w].model_streams);
    auto buffers = witness_replica_->buffers();
    ES_CHECK(buffers.size() == pre_contexts[w].bn_buffers.size(),
             "witness replica buffer mismatch");
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      *buffers[i] = pre_contexts[w].bn_buffers[i];
    }
    witness_replica_->params().zero_grads();
    autograd::StepContext step_ctx;
    step_ctx.exec = &exec;
    step_ctx.rng = &witness_streams_;
    step_ctx.training = true;
    const float replay_loss =
        witness_replica_->train_step(step_ctx, batches[w]);
    const comm::GradientSet replay =
        comm::GradientSet::from_store(witness_replica_->params());
    Digest live_d;
    Digest replay_d;
    for (const auto& g : sync_->part(static_cast<std::size_t>(est)).grads) {
      live_d.update(g.data());
    }
    for (const auto& g : replay.grads) replay_d.update(g.data());
    const bool loss_equal = std::bit_cast<std::uint32_t>(replay_loss) ==
                            std::bit_cast<std::uint32_t>(live_losses[w]);
    if (live_d.value() != replay_d.value() || !loss_equal) {
      ++witness_stats_.mismatches;
      witness_stats_.last_detected_worker = static_cast<std::int64_t>(w);
      std::ostringstream os;
      os << "integrity witness mismatch at step " << global_step_
         << ": worker " << w << " (EST " << est << ") produced gradients "
         << live_d.hex() << ", clean replay produced " << replay_d.hex();
      ES_LOG_WARN(os.str());
      throw IntegrityError(static_cast<std::int64_t>(w), est, global_step_,
                           os.str());
    }
  }
  // Every worker's replayed gradients matched the live ones, so the state
  // this step produces (deterministic all-reduce + optimizer on clean
  // gradients) is certifiably clean.
  last_clean_witness_step_ = global_step_ + 1;
}

void EasyScaleEngine::run_steps(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) one_step();
}

void EasyScaleEngine::run_epochs(std::int64_t n) {
  for (std::int64_t e = 0; e < n; ++e) {
    const std::int64_t epoch = global_step_ / steps_per_epoch_;
    for (auto& worker : workers_) worker.scheduler->set_epoch(epoch);
    run_steps(steps_per_epoch_);
  }
}

void EasyScaleEngine::inject_comm_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(config_.resilient_comm,
           "inject_comm_fault requires resilient_comm = true");
  ES_CHECK(sync_->resilient(), "configure_workers before injecting");
  sync_->inject_fault(event);
}

const comm::TransportStats& EasyScaleEngine::transport_stats() const {
  return sync_->transport_stats();
}

std::vector<double> EasyScaleEngine::comm_stall_per_worker() const {
  return sync_->stall_per_host();
}

std::vector<std::vector<std::int64_t>> EasyScaleEngine::current_assignment()
    const {
  std::vector<std::vector<std::int64_t>> plan;
  plan.reserve(workers_.size());
  for (const auto& w : workers_) plan.push_back(w.ests);
  return plan;
}

std::vector<WorkerSpec> EasyScaleEngine::current_worker_specs() const {
  std::vector<WorkerSpec> specs;
  specs.reserve(workers_.size());
  for (const auto& w : workers_) specs.push_back(w.spec);
  return specs;
}

std::uint64_t EasyScaleEngine::params_digest() const {
  ES_CHECK(!workers_.empty(), "no workers configured");
  Digest d;
  for (const auto* p : workers_[0].replica->params().all()) {
    d.update(p->value.data());
  }
  return d.value();
}

DigestChain EasyScaleEngine::params_digest_chain() const {
  ES_CHECK(!workers_.empty(), "no workers configured");
  DigestChain chain;
  std::uint64_t id = 0;
  for (const auto* p : workers_[0].replica->params().all()) {
    chain.push(id++, digest_floats(p->value.data()));
  }
  return chain;
}

void EasyScaleEngine::set_post_op_hook(std::int64_t worker,
                                       kernels::PostOpHook* hook) {
  ES_CHECK(worker >= 0 && worker < num_workers(),
           "post-op hook worker " << worker << " out of range");
  workers_[static_cast<std::size_t>(worker)].exec.post_op = hook;
}

const kernels::ExecContext& EasyScaleEngine::worker_exec(std::int64_t i) const {
  ES_CHECK(i >= 0 && i < num_workers(),
           "worker " << i << " out of range [0, " << num_workers() << ")");
  return workers_[static_cast<std::size_t>(i)].exec;
}

models::Workload& EasyScaleEngine::model_for_eval(std::int64_t est_rank) {
  ES_CHECK(!workers_.empty(), "no workers configured");
  ES_CHECK(est_rank >= 0 && est_rank < config_.num_ests,
           "EST rank " << est_rank << " out of range [0, " << config_.num_ests
                       << ")");
  restore_context(workers_[0], contexts_[static_cast<std::size_t>(est_rank)]);
  return *workers_[0].replica;
}

std::vector<std::uint8_t> EasyScaleEngine::checkpoint_locked() const {
  ByteWriter w;
  w.write(kCheckpointMagic);
  w.write(global_step_);
  // D1 records the gradient-bucket mapping; D0 deliberately loses it
  // (§5.1.1 explains the resulting divergence at stage boundaries).
  const bool save_layout =
      config_.determinism.level == DeterminismLevel::kD1;
  w.write<std::uint8_t>(save_layout ? 1 : 0);
  if (save_layout) {
    w.write<std::uint8_t>(sync_->rebuilt() ? 1 : 0);
    sync_->layout().save(w);
  }
  workers_[0].replica->params().save_values(w);
  workers_[0].optimizer->save(w);
  workers_[0].scheduler->save(w);
  for (std::int64_t e = 0; e < config_.num_ests; ++e) {
    contexts_[static_cast<std::size_t>(e)].save(w);
    pipelines_[static_cast<std::size_t>(e)].save(w);
  }
  // Queuing buffer: enqueued-but-unconsumed data batches (extra state).
  std::vector<data::WorkItem> pending;
  if (pool_) pending = pool_->pending_items();
  w.write<std::uint64_t>(pending.size());
  for (const auto& item : pending) item.save(w);
  return w.take();
}

std::vector<std::uint8_t> EasyScaleEngine::checkpoint() const {
  ES_CHECK(!workers_.empty(), "no workers configured");
  return checkpoint_locked();
}

void EasyScaleEngine::restore(std::span<const std::uint8_t> bytes) {
  ES_CHECK(!workers_.empty(), "configure_workers before restore");
  ByteReader r(bytes);
  ES_CHECK(r.read<std::uint32_t>() == kCheckpointMagic,
           "not an EasyScale checkpoint");
  global_step_ = r.read<std::int64_t>();
  const bool has_layout = r.read<std::uint8_t>() != 0;
  if (has_layout) {
    const bool rebuilt = r.read<std::uint8_t>() != 0;
    sync_->set_layout(comm::BucketLayout::load(r), rebuilt);
  } else {
    // D0: the bucket mapping was not checkpointed.  Fall back to the static
    // layout and schedule a rebuild — the restart therefore re-associates
    // the ring sums and training diverges bitwise from an uninterrupted
    // run.
    sync_->reset_layout(workers_[0].replica->params());
  }
  // Parameters / optimizer / scheduler load into worker 0, then replicate
  // onto every other worker.
  workers_[0].replica->params().load_values(r);
  workers_[0].optimizer->load(r);
  workers_[0].scheduler->load(r);
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    const auto& src = workers_[0].replica->params().all();
    const auto& dst = workers_[i].replica->params().all();
    for (std::size_t p = 0; p < src.size(); ++p) dst[p]->value = src[p]->value;
    ByteWriter ow;
    workers_[0].optimizer->save(ow);
    ByteReader orr(ow.bytes());
    workers_[i].optimizer->load(orr);
    ByteWriter sw;
    workers_[0].scheduler->save(sw);
    ByteReader sr(sw.bytes());
    workers_[i].scheduler->load(sr);
  }
  for (std::int64_t e = 0; e < config_.num_ests; ++e) {
    contexts_[static_cast<std::size_t>(e)] = ESTContext::load(r);
    pipelines_[static_cast<std::size_t>(e)].load(r);
  }
  const auto pending_count = r.read<std::uint64_t>();
  ES_CHECK(pending_count <= r.remaining(),
           "pending work-item count " << pending_count
                                      << " exceeds checkpoint payload");
  std::vector<data::WorkItem> pending;
  pending.reserve(pending_count);
  for (std::uint64_t i = 0; i < pending_count; ++i) {
    pending.push_back(data::WorkItem::load(r));
  }
  if (pool_) {
    for (auto& item : pending) pool_->enqueue(std::move(item));
  }
  r.require_exhausted("EasyScale checkpoint");
}

}  // namespace easyscale::core
