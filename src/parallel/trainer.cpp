#include "parallel/trainer.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "common/digest.hpp"
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
  // Resolve once so the rebuild after the first iteration uses the same cap.
  config_.bucket_cap_bytes = comm::resolve_bucket_cap(
      config_.bucket_cap_bytes, replicas_[0].workload->params());
  comm::BucketManager mgr(replicas_[0].workload->params(),
                          config_.bucket_cap_bytes);
  layout_ = mgr.initial_layout();
  plan_ = make_plan(static_cast<int>(config_.world_size),
                    config_.shard_degree, replicas_[0].workload->params(),
                    config_.plan_chunks);
  rebuild_shard_maps();
  if (config_.resilient_comm) {
    transport_ = std::make_unique<comm::SimTransport>(
        static_cast<int>(config_.world_size), config_.transport,
        config_.comm_faults);
    monitor_ = std::make_unique<comm::MembershipMonitor>(
        static_cast<int>(config_.world_size), config_.transport);
  }
}

void Trainer::rebuild_shard_maps() {
  auto& params0 = replicas_[0].workload->params();
  owned_slices_.assign(replicas_.size(), {});
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    owned_slices_[r] =
        plan_.sharded()
            ? slices_for_shard(plan_, params0,
                               plan_.shard_index(static_cast<int>(r)))
            : optim::full_slices(params0);
  }
  gather_map_ = plan_.sharded() ? gather_map(plan_, params0) : GatherMap{};
}

void Trainer::inject_comm_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(config_.resilient_comm,
           "inject_comm_fault requires resilient_comm = true");
  transport_->inject(event);
}

const comm::TransportStats& Trainer::transport_stats() const {
  ES_CHECK(transport_ != nullptr, "resilient comm not configured");
  return transport_->stats();
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
    replicas_[r].optimizer->step_slices(owned_slices_[r]);
  }
  // Publish: all-gather the owner-updated parameter chunks into every
  // replica (pure data movement from canonical owners).
  std::vector<autograd::ParameterStore*> stores;
  stores.reserve(replicas_.size());
  for (auto& rep : replicas_) stores.push_back(&rep.workload->params());
  if (config_.resilient_comm) {
    comm::ResilientConfig rcfg = config_.resilient;
    rcfg.on_death = comm::DeathPolicy::kAbort;
    const comm::CollectiveReport piece = comm::resilient_all_gather_params(
        stores, gather_map_.slices, gather_map_.source_of_slice, *transport_,
        *monitor_, rcfg);
    comm::CollectiveReport total =
        last_comm_report_.value_or(comm::CollectiveReport{});
    comm::merge_collective_report(total, piece);
    last_comm_report_ = std::move(total);
  } else {
    comm::all_gather_params(stores, gather_map_.slices,
                            gather_map_.source_of_slice);
  }
}

void Trainer::one_step() {
  // The overlapped path needs per-parameter contribution counts, which a
  // sequential step records first — exactly DDP's unoverlapped first
  // iteration (which it spends observing ready order anyway).
  const bool need_counts = config_.overlap_comm && contrib_counts_.empty();
  if (config_.overlap_comm && !need_counts) {
    one_step_overlapped();
    return;
  }
  autograd::GradReadyRecorder recorder;
  float last_loss = 0.0f;
  auto run_rank = [&](std::int64_t r) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.workload->params().zero_grads();
    autograd::StepContext ctx;
    ctx.exec = &rep.exec;
    ctx.rng = &rep.streams;
    ctx.training = true;
    // Stock DDP observes ready order on the first iteration to rebuild the
    // bucket mapping; rank 0's order is representative (identical graphs).
    if (r == 0 && ((config_.rebuild_buckets && !rebuilt_) || need_counts)) {
      recorder.begin(rep.workload->params().size());
      ctx.grad_ready = &recorder;
    }
    const data::Batch batch = rep.pipeline->next();
    const float loss = rep.workload->train_step(ctx, batch);
    if (r == config_.world_size - 1) last_loss = loss;
  };
  if (config_.parallel_workers && config_.world_size > 1) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config_.world_size));
    for (std::int64_t r = 0; r < config_.world_size; ++r) {
      threads.emplace_back([&run_rank, r] { run_rank(r); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (std::int64_t r = 0; r < config_.world_size; ++r) run_rank(r);
  }
  // Gradient synchronization over the physical world: bucketed ring
  // all-reduce when replicated, reduce-scatter (same reduction bits, owned
  // elements only) when sharded.
  std::vector<comm::GradientSet> sets;
  sets.reserve(replicas_.size());
  for (auto& rep : replicas_) {
    sets.push_back(comm::GradientSet::from_store(rep.workload->params()));
  }
  if (config_.logical_world > 0) {
    // Detect-before-publish: vote on per-bucket digests, reduce over one
    // majority representative per logical rank, broadcast into every
    // store.  Throws core::IntegrityError on a lost vote — BEFORE any
    // corrupted gradient reaches the optimizer.
    vote_and_reduce(sets);
  } else {
    std::vector<comm::GradientSet*> parts;
    parts.reserve(sets.size());
    for (auto& s : sets) parts.push_back(&s);
    if (config_.resilient_comm) {
      // Identity mapping: one transport rank per physical rank.  A
      // condemned rank aborts training (kAbort): the fixed world cannot
      // shrink, and a sharded plan must roll back and reshard.
      comm::ResilientConfig rcfg = config_.resilient;
      rcfg.on_death = comm::DeathPolicy::kAbort;
      last_comm_report_ =
          plan_.sharded()
              ? comm::resilient_reduce_scatter_average(
                    layout_, parts, owned_slices_, *transport_, *monitor_,
                    rcfg)
              : comm::resilient_allreduce_average(layout_, parts, *transport_,
                                                  *monitor_, rcfg);
    } else if (plan_.sharded()) {
      comm::reduce_scatter_average(layout_, parts, owned_slices_);
    } else {
      comm::allreduce_average(layout_, parts);
    }
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      sets[r].to_store(replicas_[r].workload->params());
    }
  }
  optimize_and_publish();
  if (config_.rebuild_buckets && !rebuilt_) {
    comm::BucketManager mgr(replicas_[0].workload->params(),
                            config_.bucket_cap_bytes);
    layout_ = mgr.layout_from_ready_order(recorder.order());
    rebuilt_ = true;
  }
  if (need_counts) contrib_counts_ = recorder.counts();
  losses_.push_back(last_loss);
  ++global_step_;
}

void Trainer::one_step_overlapped() {
  if (engine_ == nullptr) {
    engine_ = std::make_unique<comm::AsyncCollectiveEngine>(config_.async_comm);
  }
  const std::size_t num_buckets = layout_.num_buckets();
  // One gradient set per rank, kept across steps; each rank's flush copies
  // a finished bucket's gradients in ("D2H") before publishing it, and
  // finish() flushes every bucket, so no stale gradient survives a step.
  if (overlap_sets_.empty()) {
    overlap_sets_.reserve(replicas_.size());
    for (auto& rep : replicas_) {
      overlap_sets_.push_back(
          comm::GradientSet::zeros_like(rep.workload->params()));
    }
  }
  std::vector<comm::GradientSet>& sets = overlap_sets_;
  std::vector<comm::GradientSet*> parts;
  parts.reserve(sets.size());
  for (auto& s : sets) parts.push_back(&s);
  // Owner-side validation once per step; the per-bucket jobs then run with
  // validation skipped (see resilient_allreduce_average for why).
  if (plan_.sharded()) {
    comm::validate_reduce_scatter_inputs(layout_, parts, owned_slices_);
  } else {
    comm::validate_allreduce_inputs(layout_, parts);
  }

  // Job-side state: touched only by the engine's one executor at a time
  // (the comm slot or the draining caller) until drain() returns.
  comm::CollectiveReport step_report;
  VoteReport vote_report;
  auto job = [&](std::size_t b) -> double {
    if (config_.logical_world > 0) {
      vote_and_reduce_bucket(b, sets, vote_report);
      return 0.0;
    }
    if (config_.resilient_comm) {
      comm::ResilientConfig rcfg = config_.resilient;
      rcfg.on_death = comm::DeathPolicy::kAbort;
      const std::vector<std::size_t> ids{b};
      const comm::CollectiveReport piece =
          plan_.sharded()
              ? comm::resilient_reduce_scatter_average(
                    layout_, parts, owned_slices_, *transport_, *monitor_,
                    rcfg, nullptr, &ids)
              : comm::resilient_allreduce_average(layout_, parts, *transport_,
                                                  *monitor_, rcfg, nullptr,
                                                  &ids);
      comm::merge_collective_report(step_report, piece);
      return piece.virtual_time_s;
    }
    if (plan_.sharded()) {
      comm::reduce_scatter_average_bucket(layout_, b, parts, owned_slices_);
    } else {
      comm::allreduce_average_bucket(layout_, b, parts);
    }
    return 0.0;
  };

  comm::OverlapCoordinator coordinator(
      num_buckets, static_cast<int>(replicas_.size()), *engine_);
  engine_->begin_step(job);
  float last_loss = 0.0f;
  auto run_rank = [&](std::int64_t r) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.workload->params().zero_grads();
    comm::BucketReadyTracker tracker(
        layout_, contrib_counts_, [&, r](std::size_t b) {
          auto& store =
              replicas_[static_cast<std::size_t>(r)].workload->params();
          auto& set = sets[static_cast<std::size_t>(r)];
          for (const int pid : layout_.buckets[b]) {
            set.grads[static_cast<std::size_t>(pid)] =
                store.all()[static_cast<std::size_t>(pid)]->grad;
          }
          coordinator.publish(b);
        });
    autograd::StepContext ctx;
    ctx.exec = &rep.exec;
    ctx.rng = &rep.streams;
    ctx.training = true;
    ctx.ready_sink = &tracker;
    const data::Batch batch = rep.pipeline->next();
    const float loss = rep.workload->train_step(ctx, batch);
    tracker.finish();
    if (r == config_.world_size - 1) last_loss = loss;
  };
  if (config_.parallel_workers && config_.world_size > 1) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config_.world_size));
    for (std::int64_t r = 0; r < config_.world_size; ++r) {
      threads.emplace_back([&run_rank, r] { run_rank(r); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (std::int64_t r = 0; r < config_.world_size; ++r) run_rank(r);
  }
  // drain() rethrows any job failure (IntegrityError, RankDeathError,
  // CollectiveAbortedError) exactly like the sequential sync would.
  const comm::OverlapStats stats = engine_->drain();
  last_overlap_stats_ = stats;
  if (config_.logical_world > 0) {
    // Every bucket's group-0 representative is rank 0 on a clean step, so
    // sets[0] holds the full averaged result — publish it everywhere,
    // matching the sequential path bit for bit.
    last_vote_report_ = std::move(vote_report);
    for (auto& rep : replicas_) sets[0].to_store(rep.workload->params());
  } else {
    if (config_.resilient_comm) {
      step_report.overlap_frac = stats.overlap_frac;
      last_comm_report_ = std::move(step_report);
    }
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      sets[r].to_store(replicas_[r].workload->params());
    }
  }
  optimize_and_publish();
  losses_.push_back(last_loss);
  ++global_step_;
}

void Trainer::set_post_op_hook(std::int64_t rank, kernels::PostOpHook* hook) {
  ES_CHECK(rank >= 0 && rank < config_.world_size,
           "hook rank " << rank << " out of range");
  replicas_[static_cast<std::size_t>(rank)].exec.post_op = hook;
}

void Trainer::vote_and_reduce(std::vector<comm::GradientSet>& sets) {
  const std::int64_t logical = config_.logical_world;
  VoteReport report;
  // Per-rank, per-bucket digests over the raw gradient bit patterns, in
  // the layout's reduction order.
  std::vector<std::vector<std::uint64_t>> digests(sets.size());
  for (std::size_t r = 0; r < sets.size(); ++r) {
    digests[r].reserve(layout_.num_buckets());
    for (const auto& bucket : layout_.buckets) {
      Digest d;
      for (const int pid : bucket) {
        d.update(std::span<const float>(
            sets[r].grads[static_cast<std::size_t>(pid)].data()));
      }
      digests[r].push_back(d.value());
    }
  }
  report.buckets_checked = static_cast<std::int64_t>(
      sets.size() * layout_.num_buckets());
  // Ship every non-collector rank's digest vector to rank 0 over the
  // fabric when one exists.  The per-chunk checksum turns length-
  // preserving in-flight corruption into a visible kCorrupt, and this
  // control plane simply retransmits (bounded; the simulated sender still
  // holds ground truth, so a persistent fabric failure degrades to the
  // local copy rather than a wrong vote).
  if (transport_ != nullptr) {
    for (std::int64_t r = 1; r < config_.world_size; ++r) {
      ByteWriter w;
      w.write_vector(digests[static_cast<std::size_t>(r)]);
      const std::vector<std::uint8_t> payload = w.take();
      for (int attempt = 0; attempt < 4; ++attempt) {
        auto d = transport_->send_payload(static_cast<int>(r), 0, payload);
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
  std::vector<comm::GradientSet*> parts;
  parts.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    std::vector<std::int64_t> group;
    for (std::int64_t r = l; r < config_.world_size; r += logical) {
      group.push_back(r);
    }
    std::int64_t representative = -1;
    for (std::size_t b = 0; b < layout_.num_buckets(); ++b) {
      std::map<std::uint64_t, std::int64_t> votes;
      for (const std::int64_t r : group) {
        ++votes[digests[static_cast<std::size_t>(r)][b]];
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
        const bool guilty =
            tied || digests[static_cast<std::size_t>(r)][b] != majority;
        if (guilty) report.corrupt_ranks.push_back(r);
      }
    }
    std::sort(report.corrupt_ranks.begin(), report.corrupt_ranks.end());
    report.corrupt_ranks.erase(
        std::unique(report.corrupt_ranks.begin(), report.corrupt_ranks.end()),
        report.corrupt_ranks.end());
    for (const std::int64_t r : group) {
      const bool clean =
          std::find(report.corrupt_ranks.begin(), report.corrupt_ranks.end(),
                    r) == report.corrupt_ranks.end();
      if (clean) {
        representative = r;
        break;
      }
    }
    if (representative >= 0) {
      parts.push_back(&sets[static_cast<std::size_t>(representative)]);
    }
  }
  if (!report.corrupt_ranks.empty() ||
      static_cast<std::int64_t>(parts.size()) != logical) {
    const std::int64_t first =
        report.corrupt_ranks.empty() ? -1 : report.corrupt_ranks.front();
    std::ostringstream os;
    os << "gradient digest vote failed at step " << global_step_ << ":";
    for (const std::int64_t r : report.corrupt_ranks) os << " rank" << r;
    last_vote_report_ = std::move(report);
    throw core::IntegrityError(first, first >= 0 ? first % logical : -1,
                               global_step_, os.str());
  }
  // Reduce over the representatives only: bitwise equal to a clean DDP run
  // at world_size = logical_world.  All representatives end up with the
  // identical average; publish the first into every replica's store.
  comm::allreduce_average(layout_, parts);
  for (auto& rep : replicas_) {
    parts[0]->to_store(rep.workload->params());
  }
  last_vote_report_ = std::move(report);
}

void Trainer::vote_and_reduce_bucket(std::size_t b,
                                     std::vector<comm::GradientSet>& sets,
                                     VoteReport& report) {
  const std::int64_t logical = config_.logical_world;
  // Per-rank digest of this bucket's raw gradient bit patterns.
  std::vector<std::uint64_t> digests(sets.size());
  for (std::size_t r = 0; r < sets.size(); ++r) {
    Digest d;
    for (const int pid : layout_.buckets[b]) {
      d.update(std::span<const float>(
          sets[r].grads[static_cast<std::size_t>(pid)].data()));
    }
    digests[r] = d.value();
  }
  report.buckets_checked += static_cast<std::int64_t>(sets.size());
  std::vector<comm::GradientSet*> representatives;
  representatives.reserve(static_cast<std::size_t>(logical));
  for (std::int64_t l = 0; l < logical; ++l) {
    std::vector<std::int64_t> group;
    for (std::int64_t r = l; r < config_.world_size; r += logical) {
      group.push_back(r);
    }
    std::map<std::uint64_t, std::int64_t> votes;
    for (const std::int64_t r : group) {
      ++votes[digests[static_cast<std::size_t>(r)]];
    }
    if (votes.size() > 1) {
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
        if (tied || digests[static_cast<std::size_t>(r)] != majority) {
          report.corrupt_ranks.push_back(r);
        }
      }
    }
    std::int64_t representative = -1;
    for (const std::int64_t r : group) {
      if (std::find(report.corrupt_ranks.begin(), report.corrupt_ranks.end(),
                    r) == report.corrupt_ranks.end()) {
        representative = r;
        break;
      }
    }
    if (representative >= 0) {
      representatives.push_back(&sets[static_cast<std::size_t>(representative)]);
    }
  }
  if (!report.corrupt_ranks.empty() ||
      static_cast<std::int64_t>(representatives.size()) != logical) {
    std::sort(report.corrupt_ranks.begin(), report.corrupt_ranks.end());
    report.corrupt_ranks.erase(
        std::unique(report.corrupt_ranks.begin(), report.corrupt_ranks.end()),
        report.corrupt_ranks.end());
    const std::int64_t first =
        report.corrupt_ranks.empty() ? -1 : report.corrupt_ranks.front();
    std::ostringstream os;
    os << "gradient digest vote failed at step " << global_step_ << " (bucket "
       << b << ", overlapped flush):";
    for (const std::int64_t r : report.corrupt_ranks) os << " rank" << r;
    // Publish the report before the throw unwinds through drain(): the
    // detect-before-publish contract is visible even on a failed step.
    last_vote_report_ = report;
    throw core::IntegrityError(first, first >= 0 ? first % logical : -1,
                               global_step_, os.str());
  }
  // On a clean bucket the representatives are ranks 0..logical-1, the same
  // parts (and ring association) the sequential vote reduces over.
  comm::allreduce_average_bucket(layout_, b, representatives);
}

void Trainer::gather_canonical_state_into(const Plan& from, std::int64_t dst) {
  if (!from.sharded()) return;  // every rank already holds full state
  auto& params0 = replicas_[0].workload->params();
  const std::size_t num_params = params0.size();
  auto dst_state =
      replicas_[static_cast<std::size_t>(dst)].optimizer->state_tensors();
  for (std::size_t c = 0; c < from.chunks.size(); ++c) {
    const auto src_rank = static_cast<std::size_t>(from.canonical_rank(c));
    if (static_cast<std::int64_t>(src_rank) == dst) continue;
    auto src_state = replicas_[src_rank].optimizer->state_tensors();
    const auto slices = slices_for_chunk(from, params0, c);
    for (const auto& s : slices) {
      // State tensor t shadows parameter t % num_params (SGD: momentum per
      // param; Adam: m then v per param — optim/*.hpp state order).
      for (std::size_t t = 0; t < src_state.size(); ++t) {
        if (t % num_params != s.param) continue;
        std::copy(src_state[t]->data().begin() + s.begin,
                  src_state[t]->data().begin() + s.end,
                  dst_state[t]->data().begin() + s.begin);
      }
    }
  }
}

void Trainer::reshard(int new_shard_degree) {
  ES_CHECK(config_.logical_world == 0,
           "reshard requires logical_world == 0");
  if (new_shard_degree == plan_.shard_degree) return;
  auto& params0 = replicas_[0].workload->params();
  const Plan new_plan =
      make_plan(static_cast<int>(config_.world_size), new_shard_degree,
                params0, config_.plan_chunks);
  ES_CHECK(new_plan.chunks == plan_.chunks,
           "plan chunk bounds must stay fixed across reshard");
  // Redistribute optimizer-state chunks: every chunk travels from its old
  // canonical owner to each rank whose NEW shard owns it.  No state is
  // split or re-summed — ownership is the only thing that changes, which
  // is why the continued trajectory is bitwise unchanged.
  const std::size_t num_params = params0.size();
  for (std::size_t c = 0; c < plan_.chunks.size(); ++c) {
    const auto src_rank = static_cast<std::size_t>(plan_.canonical_rank(c));
    auto src_state = replicas_[src_rank].optimizer->state_tensors();
    const auto slices = slices_for_chunk(plan_, params0, c);
    const int new_owner = new_plan.chunk_owner(c);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      if (r == src_rank) continue;
      if (new_plan.shard_index(static_cast<int>(r)) != new_owner) continue;
      auto dst_state = replicas_[r].optimizer->state_tensors();
      for (const auto& s : slices) {
        for (std::size_t t = 0; t < src_state.size(); ++t) {
          if (t % num_params != s.param) continue;
          std::copy(src_state[t]->data().begin() + s.begin,
                    src_state[t]->data().begin() + s.end,
                    dst_state[t]->data().begin() + s.begin);
        }
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
  w.write(rebuilt_);
  layout_.save(w);
  w.write_vector(contrib_counts_);
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
                                     << " (plan_chunks must match)");
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
  rebuilt_ = r.read<bool>();
  layout_ = comm::BucketLayout::load(r);
  contrib_counts_ = r.read_vector<int>();
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
