#include "parallel/trainer.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>

#include "common/digest.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace easyscale::parallel {

namespace {

constexpr std::int64_t kPrefetchSteps = 2;

/// Swap a rank's context out of a replica and its streams.
void capture(models::Workload& replica, const rng::StreamSet& streams,
             core::ESTContext& ctx) {
  ctx.model_streams = streams.state();
  auto buffers = replica.buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    ctx.bn_buffers[i] = *buffers[i];
  }
}

/// Swap a rank's context into a replica and its streams.
void install(const core::ESTContext& ctx, models::Workload& replica,
             rng::StreamSet& streams) {
  streams.set_state(ctx.model_streams);
  auto buffers = replica.buffers();
  ES_CHECK(buffers.size() == ctx.bn_buffers.size(), "buffer set mismatch");
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    *buffers[i] = ctx.bn_buffers[i];
  }
}

void copy_values(const autograd::ParameterStore& src,
                 autograd::ParameterStore& dst) {
  ES_CHECK(src.size() == dst.size(), "replica parameter mismatch");
  for (std::size_t p = 0; p < src.size(); ++p) {
    dst.all()[p]->value = src.all()[p]->value;
  }
}

}  // namespace

Trainer::Trainer(TrainerConfig config, const data::Dataset& train,
                 const data::AugmentConfig& augment,
                 const std::vector<WorkerSpec>& workers,
                 std::optional<Assignment> assignment)
    : Trainer(Unbuilt{}, std::move(config), train, augment) {
  std::vector<WorkerSpec> specs = workers;
  if (specs.empty()) {
    if (config_.devices.empty()) {
      config_.devices.assign(static_cast<std::size_t>(config_.world_size),
                             kernels::DeviceType::kV100);
    }
    ES_CHECK(static_cast<std::int64_t>(config_.devices.size()) ==
                 config_.world_size,
             "device list does not match world size");
    for (const auto device : config_.devices) specs.push_back({device});
  }
  configure_workers(specs, std::move(assignment));
}

Trainer::Trainer(Unbuilt, TrainerConfig config, const data::Dataset& train,
                 const data::AugmentConfig& augment)
    : config_(std::move(config)), train_(&train), augment_(augment) {
  ES_CHECK(config_.world_size > 0, "trainer world must be positive");
  if (config_.logical_world > 0) {
    ES_CHECK(config_.world_size % config_.logical_world == 0,
             "world_size must be a multiple of logical_world");
    ES_CHECK(config_.shard_degree == 1,
             "logical_world voting needs full gradient replicas; it is "
             "mutually exclusive with shard_degree > 1");
    ES_CHECK(config_.witness.witness_every == 0,
             "witness.witness_every and logical_world > 0 are mutually "
             "exclusive: the vote already checks every step");
    ES_CHECK(!config_.use_async_loader,
             "use_async_loader and logical_world > 0 are mutually exclusive: "
             "the pool keys batches by rank, and replayed ranks share one");
  }
  // The degree the first packing is checked against; build() makes the
  // plan.
  plan_.shard_degree = config_.shard_degree;
}

void Trainer::build(const std::vector<WorkerSpec>& specs, Assignment packing) {
  // The data/RNG world: with voting enabled, rank r replays logical rank
  // r % logical_world.
  const std::int64_t data_world =
      config_.logical_world > 0 ? config_.logical_world : config_.world_size;
  contexts_.resize(static_cast<std::size_t>(config_.world_size));
  pipelines_.reserve(contexts_.size());
  // Every rank cuts its shard from the same epoch permutation: draw it once.
  const auto order =
      std::make_shared<data::EpochOrder>(train_->size(), config_.seed, true);
  for (std::int64_t r = 0; r < config_.world_size; ++r) {
    const std::int64_t logical = r % data_world;
    pipelines_.emplace_back(*train_, augment_, data_world, logical,
                            config_.batch_per_worker, config_.seed, order);
    rng::StreamSet streams;
    streams.seed_all(config_.seed, static_cast<std::uint64_t>(logical));
    auto& ctx = contexts_[static_cast<std::size_t>(r)];
    ctx.virtual_rank = r;
    ctx.model_streams = streams.state();
  }
  steps_per_epoch_ =
      data::DistributedSampler(order, data_world, 0, config_.batch_per_worker)
          .steps_per_epoch();
  build_workers(specs, std::move(packing));
  // Every rank starts from the same initialized buffers, like DDP after
  // the rank-0 broadcast.
  for (auto& ctx : contexts_) {
    for (tensor::Tensor* b : workers_[0].workload->buffers()) {
      ctx.bn_buffers.push_back(*b);
    }
  }
  if (!config_.context_switching) {
    for (auto& w : workers_) {
      install(contexts_[static_cast<std::size_t>(w.ranks[0])], *w.workload,
              w.streams);
    }
  }
  const auto& params0 = workers_[0].workload->params();
  sync_.emplace(params0, config_.bucket_cap_bytes, contexts_.size(),
                config_.overlap_comm, config_.rebuild_buckets);
  plan_ = make_plan(static_cast<int>(config_.world_size),
                    config_.shard_degree, params0);
  rebuild_shard_maps();
  reset_fabric(config_.comm_faults);
  rebuild_loader();
}

Trainer::~Trainer() = default;

kernels::ExecContext Trainer::exec_for(kernels::DeviceType device) const {
  kernels::ExecContext exec;
  exec.device = device;
  exec.policy = config_.policy;
  exec.custom_gemm = config_.custom_d2_gemm;
  exec.intra_op_threads = config_.intra_op_threads;
  return exec;
}

Assignment Trainer::resolve_packing(const std::vector<WorkerSpec>& workers,
                                    std::optional<Assignment> assignment,
                                    int shard_degree) const {
  const std::int64_t world = config_.world_size;
  ES_CHECK(!workers.empty(), "need at least one worker");
  ES_CHECK(static_cast<std::int64_t>(workers.size()) <= world,
           "more workers (" << workers.size() << ") than ranks (" << world
                            << ")");
  Assignment packing(workers.size());
  if (assignment.has_value()) {
    ES_CHECK(assignment->size() == workers.size(),
             "assignment/worker count mismatch");
    packing = std::move(*assignment);
    std::vector<bool> seen(static_cast<std::size_t>(world), false);
    for (const auto& ranks : packing) {
      for (const auto r : ranks) {
        ES_CHECK(r >= 0 && r < world && !seen[static_cast<std::size_t>(r)],
                 "rank " << r << " out of range or assigned twice");
        seen[static_cast<std::size_t>(r)] = true;
      }
    }
    for (bool s : seen) ES_CHECK(s, "rank left unassigned");
  } else {  // contiguous balanced split
    const auto n = static_cast<std::int64_t>(workers.size());
    std::int64_t next = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t count = world / n + (i < world % n ? 1 : 0);
      for (std::int64_t k = 0; k < count; ++k) {
        packing[static_cast<std::size_t>(i)].push_back(next++);
      }
    }
  }
  // Sharding and voting index workers by rank: worker w must host rank w.
  bool identity = true;
  for (std::size_t w = 0; w < packing.size(); ++w) {
    identity = identity && packing[w].size() == 1 &&
               packing[w][0] == static_cast<std::int64_t>(w);
    ES_CHECK(config_.context_switching || packing[w].size() == 1,
             "context_switching off needs one rank per worker; worker "
                 << w << " hosts " << packing[w].size());
  }
  ES_CHECK(identity || shard_degree == 1,
           "shard_degree " << shard_degree
                           << " needs one rank per worker, worker w "
                              "hosting rank w");
  ES_CHECK(identity || config_.logical_world == 0,
           "logical_world " << config_.logical_world
                            << " needs one rank per worker, worker w "
                               "hosting rank w");
  return packing;
}

void Trainer::build_workers(const std::vector<WorkerSpec>& specs,
                            Assignment packing) {
  workers_.clear();
  workers_.reserve(specs.size());
  host_of_rank_.assign(contexts_.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Worker w;
    w.spec = specs[i];
    w.workload = models::make_workload(config_.workload);
    w.workload->init(config_.seed);  // same init everywhere (broadcast)
    w.optimizer = optim::make_optimizer(w.workload->params(), config_.optim);
    w.scheduler = std::make_unique<optim::StepLR>(
        *w.optimizer, config_.lr_step_epochs, config_.gamma);
    w.exec = exec_for(specs[i].device);
    w.ranks = std::move(packing[i]);
    for (const auto r : w.ranks) {
      host_of_rank_[static_cast<std::size_t>(r)] = static_cast<int>(i);
    }
    workers_.push_back(std::move(w));
  }
}

void Trainer::reset_fabric(std::vector<comm::CommFaultEvent> faults) {
  if (!config_.resilient_comm) return;
  // A fresh membership epoch: the group is rebuilt at the new worker
  // count.  Ranks ride their worker's links; co-hosted ranks exchange
  // chunks locally.
  sync_->reset_fabric(static_cast<int>(workers_.size()), host_of_rank_,
                      std::move(faults));
}

void Trainer::rebuild_loader() {
  pool_.reset();
  if (config_.use_async_loader) {
    pool_ = std::make_unique<data::SharedDataWorkerPool>(*train_,
                                                         config_.loader);
  }
}

void Trainer::configure_workers(const std::vector<WorkerSpec>& workers,
                                std::optional<Assignment> assignment) {
  Assignment packing =
      resolve_packing(workers, std::move(assignment), plan_.shard_degree);
  if (!sync_.has_value()) {
    build(workers, std::move(packing));
    return;
  }
  // On-demand checkpoint of the running state before tearing down the old
  // worker set (the scale in/out path).
  ByteWriter snapshot;
  save_state(snapshot);
  build_workers(workers, std::move(packing));
  reset_fabric({});
  ByteReader r(snapshot.bytes());
  load_state(r);
  r.require_exhausted("repacking snapshot");
}

Trainer::Worker& Trainer::host(std::int64_t rank) {
  ES_CHECK(rank >= 0 && rank < config_.world_size,
           "rank " << rank << " out of range [0, " << config_.world_size
                   << ")");
  return workers_[static_cast<std::size_t>(
      host_of_rank_.at(static_cast<std::size_t>(rank)))];
}

models::Workload& Trainer::model(std::int64_t rank) {
  Worker& w = host(rank);
  if (config_.context_switching) {
    install(contexts_[static_cast<std::size_t>(rank)], *w.workload,
            w.streams);
  }
  return *w.workload;
}

void Trainer::sync_resident_contexts() {
  if (config_.context_switching) return;  // contexts are current
  for (auto& w : workers_) {
    capture(*w.workload, w.streams,
            contexts_[static_cast<std::size_t>(w.ranks[0])]);
  }
}

Assignment Trainer::current_assignment() const {
  Assignment packing;
  packing.reserve(workers_.size());
  for (const auto& w : workers_) packing.push_back(w.ranks);
  return packing;
}

std::vector<WorkerSpec> Trainer::current_worker_specs() const {
  std::vector<WorkerSpec> specs;
  specs.reserve(workers_.size());
  for (const auto& w : workers_) specs.push_back(w.spec);
  return specs;
}

const kernels::ExecContext& Trainer::worker_exec(std::int64_t i) const {
  ES_CHECK(i >= 0 && i < num_workers(),
           "worker " << i << " out of range [0, " << num_workers() << ")");
  return workers_[static_cast<std::size_t>(i)].exec;
}

void Trainer::rebuild_shard_maps() {
  if (!plan_.sharded()) {
    sync_->set_shards({}, GatherMap{});
    return;
  }
  auto& params0 = workers_[0].workload->params();
  std::vector<comm::ShardSlices> owned(workers_.size());
  for (std::size_t r = 0; r < workers_.size(); ++r) {
    owned[r] = slices_for_shard(plan_, params0,
                                plan_.shard_index(static_cast<int>(r)));
  }
  sync_->set_shards(std::move(owned), gather_map(plan_, params0));
}

void Trainer::inject_comm_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(config_.resilient_comm,
           "inject_comm_fault requires resilient_comm = true");
  sync_.value().inject_fault(event);
}

const comm::TransportStats& Trainer::transport_stats() const {
  return sync_.value().transport_stats();
}

std::vector<double> Trainer::comm_stall_per_worker() const {
  return sync_.value().stall_per_host();
}

void Trainer::optimize_and_publish() {
  if (!plan_.sharded()) {
    for (auto& w : workers_) w.optimizer->step();
    return;
  }
  // ZeRO-1 update: each rank updates only the chunks its shard owns.  The
  // update is elementwise, so owned elements get the identical bits a full
  // step would produce (optim/optimizer.hpp).
  for (std::size_t r = 0; r < workers_.size(); ++r) {
    workers_[r].optimizer->step_slices(sync_->owned_slices(r));
  }
  // Publish: all-gather the owner-updated parameter chunks into every
  // replica (pure data movement from canonical owners).
  std::vector<autograd::ParameterStore*> stores;
  stores.reserve(workers_.size());
  for (auto& w : workers_) stores.push_back(&w.workload->params());
  sync_->all_gather(stores);
}

void Trainer::one_step() {
  const std::int64_t step = global_step_;
  // Keep the shared data-worker pool fed `kPrefetchSteps` ahead.
  if (pool_) {
    for (auto& pipeline : pipelines_) {
      while (pipeline.cursor() < step + kPrefetchSteps) {
        pool_->enqueue(pipeline.make_item());
      }
    }
  }
  // Decide the witness BEFORE workers run: the replay needs the pre-step
  // contexts (streams + BN buffers), which the step mutates.
  const bool witness_due = config_.witness.witness_every > 0 &&
                           (step + 1) % config_.witness.witness_every == 0;
  std::vector<Witnessed> witnessed;
  if (witness_due) {
    ES_CHECK(config_.policy != kernels::KernelPolicy::kFastest,
             "re-execution witness requires a deterministic kernel policy");
    sync_resident_contexts();
    witnessed.resize(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const auto& ranks = workers_[w].ranks;
      if (ranks.empty()) continue;
      witnessed[w].rank = ranks[static_cast<std::size_t>(
          witness_round_ % static_cast<std::int64_t>(ranks.size()))];
      witnessed[w].context =
          contexts_[static_cast<std::size_t>(witnessed[w].rank)];
    }
    ++witness_round_;
  }
  // Detect-before-publish voting replaces the collective: it reduces over
  // one majority representative per logical rank and throws
  // core::IntegrityError on a lost vote — BEFORE any corrupted gradient
  // reaches the optimizer.
  const bool voting = config_.logical_world > 0;
  VoteReport vote_report;
  GradSync::Reduction vote;
  if (voting) {
    vote = [this, &vote_report](const std::vector<std::size_t>* bucket_ids) {
      vote_and_reduce(bucket_ids, vote_report);
    };
  }
  // Witness-due steps stay sequential: the witness compares against
  // pre-reduce gradient buffers, which the pipelined flush averages in
  // flight.
  sync_->begin_step(/*allow_overlap=*/!witness_due, std::move(vote));
  const bool swapping = config_.context_switching;
  float last_loss = 0.0f;
  auto run_worker = [&](std::size_t wi) {
    Worker& worker = workers_[wi];
    auto& store = worker.workload->params();
    for (const std::int64_t rank : worker.ranks) {
      const auto r = static_cast<std::size_t>(rank);
      if (swapping) {
        install(contexts_[r], *worker.workload, worker.streams);
        ++worker.swaps.context_switches;
      }
      const data::Batch batch =
          pool_ ? pool_->get(rank, step) : pipelines_[r].next();
      store.zero_grads();
      autograd::StepContext ctx;
      ctx.exec = &worker.exec;
      ctx.rng = &worker.streams;
      ctx.training = true;
      sync_->attach(r, store, ctx);
      const float loss = worker.workload->train_step(ctx, batch);
      sync_->collect(r, store);
      if (witness_due && rank == witnessed[wi].rank) {
        witnessed[wi].batch = batch;
        witnessed[wi].loss = loss;
      }
      if (rank + 1 == config_.world_size) last_loss = loss;
      if (swapping) {
        // Gradient D2H swap: the only working-set category that must
        // leave the device per rank (§3.2).
        worker.swaps.gradient_bytes_swapped +=
            comm::gradient_bytes(sync_->part(r));
        capture(*worker.workload, worker.streams, contexts_[r]);
        worker.swaps.context_bytes_swapped += contexts_[r].byte_size();
      }
    }
  };
  // With parallel workers each owns a disjoint replica and rank set; the
  // shared writes (the last rank's loss, the participant-0 recorder, the
  // witness slots) are race-free by construction and ordered by the join.
  run_each(workers_.size(), config_.parallel_workers, run_worker);
  if (swapping) {
    for (auto& w : workers_) {
      stats_.context_switches += w.swaps.context_switches;
      stats_.gradient_bytes_swapped += w.swaps.gradient_bytes_swapped;
      stats_.context_bytes_swapped += w.swaps.context_bytes_swapped;
      w.swaps = {};
    }
  }
  // Re-execution witness: replay before the collective publishes, so a
  // corrupt contribution is caught while it is still attributable to one
  // worker (the averaged result would implicate everybody).
  if (witness_due) run_witness(witnessed);
  // Bucketed ring all-reduce over the virtual ranks when replicated,
  // reduce-scatter (same reduction bits, owned elements only) when sharded
  // — bitwise independent of the packing.  A condemned worker aborts the
  // step: its ranks' gradients are unrecoverable without a rollback.
  sync_->reduce();
  // An all-reduce (or a clean vote, whose representative for logical rank
  // 0 is rank 0) leaves the full average in part 0; a reduce-scatter
  // leaves each rank's owned elements in its own part.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    sync_->part(plan_.sharded() ? w : 0)
        .to_store(workers_[w].workload->params());
  }
  if (voting) last_vote_report_ = std::move(vote_report);
  optimize_and_publish();
  sync_->end_step(workers_[0].workload->params());
  losses_.push_back(last_loss);
  ++global_step_;
}

void Trainer::run_witness(const std::vector<Witnessed>& witnessed) {
  ++witness_stats_.runs;
  if (!witness_replica_) {
    witness_replica_ = models::make_workload(config_.workload);
    witness_replica_->init(config_.seed);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const auto& [rank, context, batch, live_loss] = witnessed[w];
    if (rank < 0) continue;
    ++witness_stats_.replays;
    // Clean execution context: same device and policy as the live worker —
    // so deterministic variant selection matches bit for bit — but no
    // post-op hook and a private scratch/cache.
    kernels::ExecContext exec = exec_for(workers_[w].spec.device);
    // Step-start parameters are still live on every replica (the optimizer
    // has not stepped yet); the pre-step context restores streams and BN
    // buffers, the captured batch replays the exact input.
    copy_values(workers_[0].workload->params(), witness_replica_->params());
    install(context, *witness_replica_, witness_streams_);
    witness_replica_->params().zero_grads();
    autograd::StepContext step_ctx;
    step_ctx.exec = &exec;
    step_ctx.rng = &witness_streams_;
    step_ctx.training = true;
    const float replay_loss =
        witness_replica_->train_step(step_ctx, batch);
    Digest live_d;
    Digest replay_d;
    for (const auto& g : sync_->part(static_cast<std::size_t>(rank)).grads) {
      live_d.update(g.data());
    }
    for (const auto* p : witness_replica_->params().all()) {
      replay_d.update(p->grad.data());
    }
    const bool loss_equal = std::bit_cast<std::uint32_t>(replay_loss) ==
                            std::bit_cast<std::uint32_t>(live_loss);
    if (live_d.value() != replay_d.value() || !loss_equal) {
      ++witness_stats_.mismatches;
      witness_stats_.last_detected_worker = static_cast<std::int64_t>(w);
      std::ostringstream os;
      os << "integrity witness mismatch at step " << global_step_
         << ": worker " << w << " (EST " << rank << ") produced gradients "
         << live_d.hex() << ", clean replay produced " << replay_d.hex();
      ES_LOG_WARN(os.str());
      throw core::IntegrityError(static_cast<std::int64_t>(w), rank,
                                 global_step_, os.str());
    }
  }
  // Every worker's replayed gradients matched the live ones, so the state
  // this step produces (deterministic collective + optimizer on clean
  // gradients) is certifiably clean.
  last_clean_witness_step_ = global_step_ + 1;
}

void Trainer::set_witness_every(std::int64_t every) {
  ES_CHECK(every == 0 || config_.logical_world == 0,
           "witness.witness_every and logical_world > 0 are mutually "
           "exclusive: the vote already checks every step");
  config_.witness.witness_every = every;
}

void Trainer::set_post_op_hook(std::int64_t worker,
                               kernels::PostOpHook* hook) {
  ES_CHECK(worker >= 0 && worker < num_workers(),
           "post-op hook worker " << worker << " out of range [0, "
                                  << num_workers() << ")");
  workers_[static_cast<std::size_t>(worker)].exec.post_op = hook;
}

void Trainer::vote_and_reduce(const std::vector<std::size_t>* bucket_ids,
                              VoteReport& report) {
  const std::int64_t logical = config_.logical_world;
  const auto world = static_cast<std::size_t>(config_.world_size);
  const comm::BucketLayout& layout = sync_->layout();
  const std::size_t num_buckets =
      bucket_ids != nullptr ? bucket_ids->size() : layout.num_buckets();
  auto bucket_at = [&](std::size_t i) {
    return bucket_ids != nullptr ? (*bucket_ids)[i] : i;
  };
  // Per-rank, per-bucket digests over the raw gradient bit patterns, in
  // the layout's reduction order.
  std::vector<std::vector<std::uint64_t>> digests(world);
  for (std::size_t r = 0; r < world; ++r) {
    digests[r].reserve(num_buckets);
    for (std::size_t i = 0; i < num_buckets; ++i) {
      Digest d;
      for (const int pid : layout.buckets[bucket_at(i)]) {
        d.update(std::span<const float>(
            sync_->part(r).grads[static_cast<std::size_t>(pid)].data()));
      }
      digests[r].push_back(d.value());
    }
  }
  report.buckets_checked += static_cast<std::int64_t>(world * num_buckets);
  // A whole-layout vote ships every non-collector rank's digest vector to
  // rank 0 over the fabric when one exists; an overlapped bucket's vote
  // keeps them local.  The per-chunk checksum turns length-preserving
  // in-flight corruption into a visible kCorrupt, and this control plane
  // simply retransmits (bounded; the simulated sender still holds ground
  // truth, so a persistent fabric failure degrades to the local copy
  // rather than a wrong vote).
  comm::SimTransport* fabric = sync_->transport();
  if (bucket_ids == nullptr && fabric != nullptr) {
    for (std::int64_t r = 1; r < config_.world_size; ++r) {
      ByteWriter w;
      w.write_vector(digests[static_cast<std::size_t>(r)]);
      const std::vector<std::uint8_t> payload = w.take();
      for (int attempt = 0; attempt < 4; ++attempt) {
        auto d = fabric->send_payload(static_cast<int>(r), 0, payload);
        report.digest_bytes_exchanged +=
            static_cast<std::int64_t>(payload.size());
        if (d.status == comm::DeliveryStatus::kDelivered) {
          ByteReader reader(d.bytes);
          digests[static_cast<std::size_t>(r)] =
              reader.read_vector<std::uint64_t>();
          reader.require_exhausted("gradient digest vote payload");
          break;
        }
        ++report.exchange_retransmits;
      }
    }
  }
  // Majority vote inside each redundancy group {l, l+L, l+2L, ...}: the
  // representative is the lowest rank agreeing with the majority digest on
  // every bucket; dissenters are corrupt.  A 1-1 split has no majority —
  // both members are reported (detection without attribution).
  std::vector<comm::GradientSet*> representatives;
  representatives.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    std::vector<std::int64_t> group;
    for (std::int64_t r = l; r < config_.world_size; r += logical) {
      group.push_back(r);
    }
    for (std::size_t i = 0; i < num_buckets; ++i) {
      std::map<std::uint64_t, std::int64_t> votes;
      for (const std::int64_t r : group) {
        ++votes[digests[static_cast<std::size_t>(r)][i]];
      }
      if (votes.size() <= 1) continue;  // unanimous bucket
      std::uint64_t majority = 0;
      std::int64_t best = 0;
      bool tied = false;
      for (const auto& [digest, count] : votes) {
        if (count > best) {
          best = count;
          majority = digest;
          tied = false;
        } else if (count == best) {
          tied = true;
        }
      }
      for (const std::int64_t r : group) {
        if (tied || digests[static_cast<std::size_t>(r)][i] != majority) {
          report.corrupt_ranks.push_back(r);
        }
      }
    }
    std::sort(report.corrupt_ranks.begin(), report.corrupt_ranks.end());
    report.corrupt_ranks.erase(
        std::unique(report.corrupt_ranks.begin(), report.corrupt_ranks.end()),
        report.corrupt_ranks.end());
    for (const std::int64_t r : group) {
      if (!std::binary_search(report.corrupt_ranks.begin(),
                              report.corrupt_ranks.end(), r)) {
        representatives.push_back(&sync_->part(static_cast<std::size_t>(r)));
        break;
      }
    }
  }
  if (!report.corrupt_ranks.empty() ||
      static_cast<std::int64_t>(representatives.size()) != logical) {
    const std::int64_t first =
        report.corrupt_ranks.empty() ? -1 : report.corrupt_ranks.front();
    std::ostringstream os;
    os << "gradient digest vote failed at step " << global_step_;
    if (bucket_ids != nullptr) {
      os << " (bucket " << bucket_at(0) << ", overlapped flush)";
    }
    os << ":";
    for (const std::int64_t r : report.corrupt_ranks) os << " rank" << r;
    // Publish the report before the throw (it may unwind through the
    // pipeline's drain()): detect-before-publish is visible on a failed
    // step too.
    last_vote_report_ = report;
    throw core::IntegrityError(first, first >= 0 ? first % logical : -1,
                               global_step_, os.str());
  }
  // Reduce over the representatives only: bitwise equal to a clean DDP run
  // at world_size = logical_world.  On a clean step they are ranks
  // 0..logical-1, so every bucket reduces the same parts in the same ring
  // association, overlapped or not.
  sync_->reduce_subset(representatives, bucket_ids);
}

void Trainer::copy_chunk_state(const Plan& plan, std::size_t chunk,
                               std::size_t src, std::size_t dst) {
  const auto& params0 = workers_[0].workload->params();
  auto src_state = workers_[src].optimizer->state_tensors();
  auto dst_state = workers_[dst].optimizer->state_tensors();
  for (const auto& s : slices_for_chunk(plan, params0, chunk)) {
    // State tensor t shadows parameter t % num_params (SGD: momentum per
    // param; Adam: m then v per param — optim/*.hpp state order).
    for (std::size_t t = 0; t < src_state.size(); ++t) {
      if (t % params0.size() != s.param) continue;
      std::copy(src_state[t]->data().begin() + s.begin,
                src_state[t]->data().begin() + s.end,
                dst_state[t]->data().begin() + s.begin);
    }
  }
}

void Trainer::gather_canonical_state_into(const Plan& from, std::int64_t dst) {
  if (!from.sharded()) return;  // every rank already holds full state
  for (std::size_t c = 0; c < from.chunks.size(); ++c) {
    const auto src = static_cast<std::size_t>(from.canonical_rank(c));
    if (static_cast<std::int64_t>(src) == dst) continue;
    copy_chunk_state(from, c, src, static_cast<std::size_t>(dst));
  }
}

void Trainer::reshard(int new_shard_degree) {
  ES_CHECK(config_.logical_world == 0,
           "reshard requires logical_world == 0");
  if (new_shard_degree == plan_.shard_degree) return;
  (void)resolve_packing(current_worker_specs(), current_assignment(),
                        new_shard_degree);
  auto& params0 = workers_[0].workload->params();
  const Plan new_plan =
      make_plan(static_cast<int>(config_.world_size), new_shard_degree,
                params0);
  ES_CHECK(new_plan.chunks == plan_.chunks,
           "plan chunk bounds must stay fixed across reshard");
  // Redistribute optimizer-state chunks: every chunk travels from its old
  // canonical owner to each rank whose NEW shard owns it.  No state is
  // split or re-summed — ownership is the only thing that changes, which
  // is why the continued trajectory is bitwise unchanged.
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    const auto src = static_cast<std::size_t>(plan_.canonical_rank(c));
    for (std::size_t r = 0; r < workers_.size(); ++r) {
      if (r != src && new_plan.shard_index(static_cast<int>(r)) ==
                          new_plan.chunk_owner(c)) {
        copy_chunk_state(plan_, c, src, r);
      }
    }
  }
  plan_ = new_plan;
  config_.shard_degree = new_shard_degree;
  rebuild_shard_maps();
}

namespace {

/// Per-chunk digest chain over the canonical flattened parameter values —
/// degree-independent because the chunk bounds are (PR 7's keystone).
DigestChain chunk_chain_of(const Plan& plan,
                           const autograd::ParameterStore& params) {
  DigestChain chain;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    Digest d;
    for (const auto& s : slices_for_chunk(plan, params, c)) {
      d.update(std::span<const float>(params.all()[s.param]->value.data())
                   .subspan(static_cast<std::size_t>(s.begin),
                            static_cast<std::size_t>(s.end - s.begin)));
    }
    chain.push(static_cast<std::uint64_t>(c), d.value());
  }
  return chain;
}

}  // namespace

void Trainer::save_state(ByteWriter& w) {
  sync_resident_contexts();
  // Assemble canonical optimizer state on worker 0 (a gather from the
  // chunk owners); its serialized state is then degree-independent.
  gather_canonical_state_into(plan_, 0);
  w.write_string(config_.workload);
  w.write(config_.world_size);
  w.write(global_step_);
  // D1 records the gradient-bucket mapping; D0 deliberately loses it
  // (§5.1.1 explains the resulting divergence at stage boundaries).
  w.write(config_.checkpoint_layout);
  if (config_.checkpoint_layout) {
    w.write(sync_->rebuilt());
    sync_->layout().save(w);
    w.write_vector(sync_->contrib_counts());
  }
  workers_[0].workload->params().save_values(w);
  workers_[0].optimizer->save(w);
  workers_[0].scheduler->save(w);
  for (std::size_t r = 0; r < contexts_.size(); ++r) {
    contexts_[r].save(w);
    pipelines_[r].save(w);
  }
  // Queuing buffer: enqueued-but-unconsumed data batches (extra state).
  std::vector<data::WorkItem> pending;
  if (pool_) pending = pool_->pending_items();
  w.write<std::uint64_t>(pending.size());
  for (const auto& item : pending) item.save(w);
}

void Trainer::load_state(ByteReader& r) {
  const std::string workload = r.read_string();
  ES_CHECK(workload == config_.workload,
           "checkpoint workload '" << workload << "' != trainer workload '"
                                   << config_.workload << "'");
  const auto world = r.read<std::int64_t>();
  ES_CHECK(world == config_.world_size, "checkpoint payload world mismatch");
  global_step_ = r.read<std::int64_t>();
  if (r.read<bool>()) {
    const bool rebuilt = r.read<bool>();
    sync_->set_layout(comm::BucketLayout::load(r), rebuilt);
    sync_->set_contrib_counts(r.read_vector<int>());
  } else {
    // D0: the bucket mapping was not checkpointed.  Fall back to the static
    // layout and schedule a rebuild, so the restart re-associates the ring
    // sums and diverges bitwise from an uninterrupted run.
    sync_->reset_layout(workers_[0].workload->params());
  }
  // Every worker reads the canonical parameters, optimizer and schedule:
  // parameters are replicated under every plan, and full optimizer state
  // is correct under any shard degree (each rank reads only the chunks its
  // CURRENT plan owns; the rest is canonical surplus).
  const ByteReader canonical = r;
  for (auto& w : workers_) {
    r = canonical;
    w.workload->params().load_values(r);
    w.optimizer->load(r);
    w.scheduler->load(r);
  }
  for (std::size_t rank = 0; rank < contexts_.size(); ++rank) {
    contexts_[rank] = core::ESTContext::load(r);
    ES_CHECK(contexts_[rank].virtual_rank == static_cast<std::int64_t>(rank),
             "checkpoint context " << rank << " belongs to rank "
                                   << contexts_[rank].virtual_rank);
    pipelines_[rank].load(r);
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
  // A fresh loader: the queued batches are the image's, not the old pool's.
  rebuild_loader();
  if (pool_) {
    for (auto& item : pending) pool_->enqueue(std::move(item));
  }
  if (!config_.context_switching) {
    for (auto& w : workers_) {
      install(contexts_[static_cast<std::size_t>(w.ranks[0])], *w.workload,
              w.streams);
    }
  }
}

DigestChain Trainer::params_digest_chain() const {
  DigestChain chain;
  std::uint64_t id = 0;
  for (const auto* p : workers_.at(0).workload->params().all()) {
    chain.push(id++, digest_floats(p->value.data()));
  }
  return chain;
}

std::vector<std::uint8_t> Trainer::checkpoint_bytes() {
  ES_CHECK(sync_.has_value(), "configure_workers before checkpoint_bytes");
  // Per-tensor chain over the canonical parameters + the shard frame with
  // the per-chunk chain; save_state writes the payload in place.
  core::ShardFrameMeta shard;
  shard.world_size = static_cast<std::int32_t>(config_.world_size);
  shard.shard_degree = plan_.shard_degree;
  shard.total_numel = plan_.total_numel;
  for (const auto& c : plan_.chunks) {
    shard.chunk_begin.push_back(c.begin);
    shard.chunk_end.push_back(c.end);
  }
  shard.chunk_chain = chunk_chain_of(plan_, workers_[0].workload->params());
  return core::serialize_image(params_digest_chain(), shard,
                               [this](ByteWriter& w) { save_state(w); });
}

void Trainer::restore_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                       const std::string& what) {
  restore_checkpoint(core::parse_image(bytes, what), what);
}

void Trainer::restore_checkpoint(const core::CheckpointImage& image,
                                 const std::string& what) {
  ES_CHECK(sync_.has_value(), "configure_workers before restoring " << what);
  const core::ShardFrameMeta& meta = image.shard;
  ES_CHECK(meta.world_size == config_.world_size,
           "checkpoint world_size " << meta.world_size
                                    << " != trainer world_size "
                                    << config_.world_size << " (" << what
                                    << ")");
  bool same_chunks = meta.total_numel == plan_.total_numel &&
                     meta.chunk_begin.size() == plan_.chunks.size();
  for (std::size_t c = 0; same_chunks && c < plan_.chunks.size(); ++c) {
    same_chunks = meta.chunk_begin[c] == plan_.chunks[c].begin &&
                  meta.chunk_end[c] == plan_.chunks[c].end;
  }
  ES_CHECK(same_chunks, "checkpoint chunks (" << meta.total_numel
                                              << " elements) disagree with "
                                                 "the plan's ("
                                              << plan_.total_numel << ", "
                                              << what << ")");
  ByteReader r(image.payload);
  load_state(r);
  r.require_exhausted("parallel trainer checkpoint payload");
  // Attest the restore against the degree-independent chunk chain: the
  // restored canonical parameters must re-derive the stored records.
  const DigestChain rechain =
      chunk_chain_of(plan_, workers_[0].workload->params());
  ES_CHECK(rechain == meta.chunk_chain,
           "restored parameters do not re-derive the checkpoint's per-chunk "
           "digest chain (" << what << ")");
}

void Trainer::run_steps(std::int64_t n) {
  ES_CHECK(sync_.has_value(), "configure_workers before run_steps");
  for (std::int64_t i = 0; i < n; ++i) one_step();
}

void Trainer::run_epochs(std::int64_t n) {
  for (std::int64_t e = 0; e < n; ++e) {
    const std::int64_t epoch = global_step_ / steps_per_epoch_;
    for (auto& w : workers_) w.scheduler->set_epoch(epoch);
    run_steps(steps_per_epoch_);
  }
}

std::uint64_t Trainer::params_digest() const {
  Digest d;
  for (const auto* p : workers_.at(0).workload->params().all()) {
    d.update(p->value.data());
  }
  return d.value();
}

}  // namespace easyscale::parallel
