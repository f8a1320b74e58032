#include "parallel/trainer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/digest.hpp"
#include "common/thread_pool.hpp"
#include "core/checkpoint_io.hpp"
#include "core/integrity.hpp"

namespace easyscale::parallel {

Trainer::Trainer(TrainerConfig config, const data::Dataset& train,
                 const data::AugmentConfig& augment)
    : config_(std::move(config)) {
  ES_CHECK(config_.world_size > 0, "trainer world must be positive");
  if (config_.devices.empty()) {
    config_.devices.assign(static_cast<std::size_t>(config_.world_size),
                           kernels::DeviceType::kV100);
  }
  ES_CHECK(static_cast<std::int64_t>(config_.devices.size()) ==
               config_.world_size,
           "device list does not match world size");
  if (config_.logical_world > 0) {
    ES_CHECK(config_.world_size % config_.logical_world == 0,
             "world_size must be a multiple of logical_world");
    ES_CHECK(config_.shard_degree == 1,
             "logical_world voting needs full gradient replicas; it is "
             "mutually exclusive with shard_degree > 1");
  }
  // The sharding world: with voting enabled, rank r replays logical rank
  // r % logical_world, so the data/RNG world is the logical one.
  const std::int64_t shard_world =
      config_.logical_world > 0 ? config_.logical_world : config_.world_size;
  replicas_.resize(static_cast<std::size_t>(config_.world_size));
  for (std::int64_t r = 0; r < config_.world_size; ++r) {
    const std::int64_t logical = r % shard_world;
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.workload = models::make_workload(config_.workload);
    rep.workload->init(config_.seed);  // same init on all ranks (broadcast)
    rep.optimizer =
        optim::make_optimizer(rep.workload->params(), config_.optim);
    rep.scheduler = std::make_unique<optim::StepLR>(
        *rep.optimizer, config_.lr_step_epochs, config_.gamma);
    rep.pipeline = std::make_unique<data::RankDataPipeline>(
        train, augment, shard_world, logical, config_.batch_per_worker,
        config_.seed);
    rep.streams.seed_all(config_.seed, static_cast<std::uint64_t>(logical));
    rep.exec.device = config_.devices[static_cast<std::size_t>(r)];
    rep.exec.policy = config_.policy;
    rep.exec.custom_gemm = config_.custom_d2_gemm;
    rep.exec.intra_op_threads = config_.intra_op_threads;
  }
  const data::DistributedSampler probe(train.size(), shard_world, 0,
                                       config_.batch_per_worker, config_.seed);
  steps_per_epoch_ = probe.steps_per_epoch();
  const auto& params0 = replicas_[0].workload->params();
  sync_.emplace(params0, config_.bucket_cap_bytes, replicas_.size(),
                config_.overlap_comm, config_.rebuild_buckets);
  plan_ = make_plan(static_cast<int>(config_.world_size),
                    config_.shard_degree, params0);
  rebuild_shard_maps();
  if (config_.resilient_comm) {
    // Identity mapping: one transport rank per physical rank.  The fixed
    // world cannot shrink, and a sharded plan must roll back and reshard.
    sync_->reset_fabric(static_cast<int>(config_.world_size),
                        config_.transport, config_.resilient, {},
                        config_.comm_faults);
  }
}

Trainer::Replica& Trainer::replica(std::int64_t rank) {
  ES_CHECK(rank >= 0 && rank < config_.world_size,
           "rank " << rank << " out of range [0, " << config_.world_size
                   << ")");
  return replicas_[static_cast<std::size_t>(rank)];
}

void Trainer::rebuild_shard_maps() {
  if (!plan_.sharded()) {
    sync_->set_shards({}, GatherMap{});
    return;
  }
  auto& params0 = replicas_[0].workload->params();
  std::vector<comm::ShardSlices> owned(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    owned[r] = slices_for_shard(plan_, params0,
                                plan_.shard_index(static_cast<int>(r)));
  }
  sync_->set_shards(std::move(owned), gather_map(plan_, params0));
}

void Trainer::inject_comm_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(config_.resilient_comm,
           "inject_comm_fault requires resilient_comm = true");
  sync_->inject_fault(event);
}

const comm::TransportStats& Trainer::transport_stats() const {
  return sync_->transport_stats();
}

void Trainer::optimize_and_publish() {
  if (!plan_.sharded()) {
    for (auto& rep : replicas_) rep.optimizer->step();
    return;
  }
  // ZeRO-1 update: each rank updates only the chunks its shard owns.  The
  // update is elementwise, so owned elements get the identical bits a full
  // step would produce (optim/optimizer.hpp).
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    replicas_[r].optimizer->step_slices(sync_->owned_slices(r));
  }
  // Publish: all-gather the owner-updated parameter chunks into every
  // replica (pure data movement from canonical owners).
  std::vector<autograd::ParameterStore*> stores;
  stores.reserve(replicas_.size());
  for (auto& rep : replicas_) stores.push_back(&rep.workload->params());
  sync_->all_gather(stores);
}

void Trainer::one_step() {
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
  sync_->begin_step(/*allow_overlap=*/true, std::move(vote));
  float last_loss = 0.0f;
  auto run_rank = [&](std::size_t r) {
    Replica& rep = replicas_[r];
    auto& store = rep.workload->params();
    store.zero_grads();
    autograd::StepContext ctx;
    ctx.exec = &rep.exec;
    ctx.rng = &rep.streams;
    ctx.training = true;
    sync_->attach(r, store, ctx);
    const data::Batch batch = rep.pipeline->next();
    const float loss = rep.workload->train_step(ctx, batch);
    sync_->collect(r, store);
    if (r + 1 == replicas_.size()) last_loss = loss;
  };
  run_each(replicas_.size(), config_.parallel_workers, run_rank);
  // Bucketed ring all-reduce when replicated, reduce-scatter (same
  // reduction bits, owned elements only) when sharded.
  sync_->reduce();
  // After a clean vote rank 0 is logical rank 0's representative and holds
  // the full average: publish it everywhere.
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    sync_->part(voting ? 0 : r).to_store(replicas_[r].workload->params());
  }
  if (voting) last_vote_report_ = std::move(vote_report);
  optimize_and_publish();
  sync_->end_step(replicas_[0].workload->params());
  losses_.push_back(last_loss);
  ++global_step_;
}

void Trainer::set_post_op_hook(std::int64_t rank, kernels::PostOpHook* hook) {
  replica(rank).exec.post_op = hook;
}

void Trainer::vote_and_reduce(const std::vector<std::size_t>* bucket_ids,
                              VoteReport& report) {
  const std::int64_t logical = config_.logical_world;
  const comm::BucketLayout& layout = sync_->layout();
  const std::size_t num_buckets =
      bucket_ids != nullptr ? bucket_ids->size() : layout.num_buckets();
  auto bucket_at = [&](std::size_t i) {
    return bucket_ids != nullptr ? (*bucket_ids)[i] : i;
  };
  // Per-rank, per-bucket digests over the raw gradient bit patterns, in
  // the layout's reduction order.
  std::vector<std::vector<std::uint64_t>> digests(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
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
  report.buckets_checked +=
      static_cast<std::int64_t>(replicas_.size() * num_buckets);
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
  const auto& params0 = replicas_[0].workload->params();
  auto src_state = replicas_[src].optimizer->state_tensors();
  auto dst_state = replicas_[dst].optimizer->state_tensors();
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
  auto& params0 = replicas_[0].workload->params();
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
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
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

void Trainer::build_checkpoint_image(std::vector<std::uint8_t>* payload,
                                     DigestChain* chain,
                                     core::ShardFrameMeta* meta) {
  auto& params0 = replicas_[0].workload->params();
  // Assemble canonical optimizer state on rank 0 (a gather from the chunk
  // owners); rank 0's serialized state is then degree-independent.
  gather_canonical_state_into(plan_, 0);
  ByteWriter w;
  w.write_string(config_.workload);
  w.write(config_.world_size);
  w.write(global_step_);
  w.write(sync_->rebuilt());
  sync_->layout().save(w);
  w.write_vector(sync_->contrib_counts());
  params0.save_values(w);
  replicas_[0].optimizer->save(w);
  replicas_[0].scheduler->save(w);
  for (auto& rep : replicas_) {
    rep.streams.state().save(w);
    rep.pipeline->save(w);
  }
  w.write_vector(losses_);
  *payload = w.take();
  // Per-tensor chain over the canonical parameters (like verified
  // checkpoints) + the v3 shard frame with the per-chunk chain.
  *chain = DigestChain();
  for (std::size_t i = 0; i < params0.size(); ++i) {
    Digest d;
    d.update(std::span<const float>(params0.all()[i]->value.data()));
    chain->push(static_cast<std::uint64_t>(i), d.value());
  }
  *meta = core::ShardFrameMeta{};
  meta->world_size = static_cast<std::int32_t>(config_.world_size);
  meta->shard_degree = plan_.shard_degree;
  meta->total_numel = plan_.total_numel;
  for (const auto& c : plan_.chunks) {
    meta->chunk_begin.push_back(c.begin);
    meta->chunk_end.push_back(c.end);
  }
  meta->chunk_chain = chunk_chain_of(plan_, params0);
}

void Trainer::save_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> payload;
  DigestChain chain;
  core::ShardFrameMeta meta;
  build_checkpoint_image(&payload, &chain, &meta);
  core::save_checkpoint_file(path, payload, chain, &meta);
}

std::vector<std::uint8_t> Trainer::checkpoint_bytes() {
  std::vector<std::uint8_t> payload;
  DigestChain chain;
  core::ShardFrameMeta meta;
  build_checkpoint_image(&payload, &chain, &meta);
  ByteWriter w;
  chain.save(w);
  meta.save(w);
  w.write_vector(payload);
  // Whole-image digest trailer: the chunk chain only attests parameters,
  // so flips inside optimizer/scheduler/RNG/loss sections need this to be
  // rejected at restore time.
  w.write<std::uint64_t>(digest_bytes(w.bytes()));
  return w.take();
}

void Trainer::restore_checkpoint(const std::string& path) {
  DigestChain chain;
  std::optional<core::ShardFrameMeta> meta;
  const std::vector<std::uint8_t> bytes =
      core::load_checkpoint_file(path, &chain, &meta);
  ES_CHECK(meta.has_value(),
           "checkpoint " << path << " has no shard frame (pre-v3); "
                         << "parallel::Trainer needs a v3 checkpoint");
  apply_checkpoint_image(bytes, *meta, path);
}

void Trainer::restore_checkpoint_bytes(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const DigestChain chain = DigestChain::load(r);  // verifies every link
  const core::ShardFrameMeta meta = core::ShardFrameMeta::load(r);
  const auto payload = r.read_vector<std::uint8_t>();
  const auto image_digest = r.read<std::uint64_t>();
  r.require_exhausted("trainer snapshot image");
  ES_CHECK(digest_bytes(std::span<const std::uint8_t>(
               bytes.data(), bytes.size() - sizeof(std::uint64_t))) ==
               image_digest,
           "trainer snapshot image digest mismatch (torn snapshot)");
  apply_checkpoint_image(payload, meta, "peer snapshot");
}

void Trainer::apply_checkpoint_image(const std::vector<std::uint8_t>& bytes,
                                     const core::ShardFrameMeta& meta,
                                     const std::string& what) {
  ES_CHECK(meta.world_size == config_.world_size,
           "checkpoint world_size " << meta.world_size
                                    << " != trainer world_size "
                                    << config_.world_size << " (" << what
                                    << ")");
  ES_CHECK(meta.total_numel == plan_.total_numel,
           "checkpoint total_numel " << meta.total_numel
                                     << " != plan total_numel "
                                     << plan_.total_numel << " (" << what
                                     << ")");
  ES_CHECK(meta.chunk_begin.size() == plan_.chunks.size(),
           "checkpoint chunk count " << meta.chunk_begin.size()
                                     << " != plan chunk count "
                                     << plan_.chunks.size()
                                     << " (" << what << ")");
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    ES_CHECK(meta.chunk_begin[c] == plan_.chunks[c].begin &&
                 meta.chunk_end[c] == plan_.chunks[c].end,
             "checkpoint chunk " << c << " bounds disagree with the plan");
  }
  ByteReader r(bytes);
  const std::string workload = r.read_string();
  ES_CHECK(workload == config_.workload,
           "checkpoint workload '" << workload << "' != trainer workload '"
                                   << config_.workload << "'");
  const auto world = r.read<std::int64_t>();
  ES_CHECK(world == config_.world_size, "checkpoint payload world mismatch");
  global_step_ = r.read<std::int64_t>();
  const bool rebuilt = r.read<bool>();
  sync_->set_layout(comm::BucketLayout::load(r), rebuilt);
  sync_->set_contrib_counts(r.read_vector<int>());
  // Canonical parameters into rank 0, then replicate (parameters are
  // replicated under every plan).
  auto& params0 = replicas_[0].workload->params();
  params0.load_values(r);
  for (std::size_t rep = 1; rep < replicas_.size(); ++rep) {
    auto& store = replicas_[rep].workload->params();
    for (std::size_t i = 0; i < params0.size(); ++i) {
      store.all()[i]->value = params0.all()[i]->value;
    }
  }
  // Canonical optimizer + schedule state into every rank: full state
  // everywhere is correct under any shard degree (each rank reads only the
  // chunks its CURRENT plan owns; the rest is canonical surplus).
  replicas_[0].optimizer->load(r);
  replicas_[0].scheduler->load(r);
  {
    ByteWriter copy;
    replicas_[0].optimizer->save(copy);
    replicas_[0].scheduler->save(copy);
    for (std::size_t rep = 1; rep < replicas_.size(); ++rep) {
      ByteReader rr(copy.bytes());
      replicas_[rep].optimizer->load(rr);
      replicas_[rep].scheduler->load(rr);
    }
  }
  for (auto& rep : replicas_) {
    rep.streams.set_state(rng::StreamSetState::load(r));
    rep.pipeline->load(r);
  }
  losses_ = r.read_vector<float>();
  r.require_exhausted("parallel trainer checkpoint payload");
  // Attest the restore against the degree-independent chunk chain: the
  // restored canonical parameters must re-derive the stored records.
  const DigestChain rechain = chunk_chain_of(plan_, params0);
  ES_CHECK(rechain == meta.chunk_chain,
           "restored parameters do not re-derive the checkpoint's per-chunk "
           "digest chain (" << what << ")");
}

void Trainer::run_steps(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) one_step();
}

void Trainer::run_epochs(std::int64_t n) {
  for (std::int64_t e = 0; e < n; ++e) {
    const std::int64_t epoch = global_step_ / steps_per_epoch_;
    for (auto& rep : replicas_) rep.scheduler->set_epoch(epoch);
    run_steps(steps_per_epoch_);
  }
}

std::uint64_t Trainer::params_digest() const {
  Digest d;
  for (const auto* p : replicas_[0].workload->params().all()) {
    d.update(p->value.data());
  }
  return d.value();
}

}  // namespace easyscale::parallel
