#include "parallel/grad_sync.hpp"

namespace easyscale::parallel {

GradSync::GradSync(const autograd::ParameterStore& params,
                   std::int64_t bucket_cap_bytes, std::size_t num_parts,
                   bool overlap, bool rebuild_buckets)
    : cap_bytes_(comm::resolve_bucket_cap(bucket_cap_bytes, params)),
      overlap_(overlap),
      rebuild_buckets_(rebuild_buckets),
      layout_(comm::BucketManager(params, cap_bytes_).initial_layout()),
      sets_(num_parts, comm::GradientSet::zeros_like(params)),
      trackers_(num_parts) {
  parts_.reserve(num_parts);
  for (auto& s : sets_) parts_.push_back(&s);
}

void GradSync::set_layout(comm::BucketLayout layout, bool rebuilt) {
  layout_ = std::move(layout);
  rebuilt_ = rebuilt;
}

void GradSync::reset_layout(const autograd::ParameterStore& params) {
  layout_ = comm::BucketManager(params, cap_bytes_).initial_layout();
  rebuilt_ = false;
}

void GradSync::set_contrib_counts(std::vector<int> counts) {
  contrib_counts_ = std::move(counts);
}

void GradSync::reset_fabric(int hosts, std::vector<int> host_of_part,
                            std::vector<comm::CommFaultEvent> faults) {
  transport_ = std::make_unique<comm::SimTransport>(
      hosts, comm::TransportConfig{}, std::move(faults));
  monitor_ = std::make_unique<comm::MembershipMonitor>(
      hosts, comm::TransportConfig{});
  resilient_.on_death = comm::DeathPolicy::kAbort;
  host_of_part_ = std::move(host_of_part);
  last_comm_report_.reset();
}

void GradSync::inject_fault(const comm::CommFaultEvent& event) {
  ES_CHECK(transport_ != nullptr, "resilient comm not configured");
  transport_->inject(event);
}

const comm::TransportStats& GradSync::transport_stats() const {
  ES_CHECK(transport_ != nullptr, "resilient comm not configured");
  return transport_->stats();
}

std::vector<double> GradSync::stall_per_host() const {
  std::vector<double> stalls;
  if (transport_ == nullptr) return stalls;
  stalls.reserve(static_cast<std::size_t>(transport_->world()));
  for (int h = 0; h < transport_->world(); ++h) {
    stalls.push_back(transport_->stall_seconds(h));
  }
  return stalls;
}

void GradSync::set_shards(std::vector<comm::ShardSlices> owned,
                          GatherMap gather) {
  owned_ = std::move(owned);
  gather_ = std::move(gather);
}

void GradSync::begin_step(bool allow_overlap, Reduction reduction) {
  record_ = rebuild_buckets_ && !rebuilt_;
  // The overlapped flush needs per-parameter contribution counts, which a
  // sequential step records first — like DDP's unoverlapped first
  // iteration, which it spends observing ready order anyway.
  need_counts_ = overlap_ && contrib_counts_.empty();
  overlapped_ = overlap_ && !record_ && !need_counts_ && allow_overlap;
  reduction_ = std::move(reduction);
  if (!overlapped_) return;
  // Owner-side validation once per step; the per-bucket jobs skip it (see
  // resilient_allreduce_average for why).
  if (owned_.empty()) {
    comm::validate_allreduce_inputs(layout_, parts_);
  } else {
    comm::validate_reduce_scatter_inputs(layout_, parts_, owned_);
  }
  if (async_ == nullptr) {
    async_ = std::make_unique<comm::AsyncCollectiveEngine>();
  }
  step_report_ = comm::CollectiveReport{};
  coordinator_.emplace(layout_.num_buckets(), static_cast<int>(sets_.size()),
                       *async_);
  async_->begin_step([this](std::size_t b) { return reduce_bucket(b); });
}

void GradSync::attach(std::size_t part, autograd::ParameterStore& store,
                      autograd::StepContext& ctx) {
  // Participant 0's order is representative: every graph is identical.
  if (part == 0 && (record_ || need_counts_)) {
    recorder_.begin(store.size());
    ctx.grad_ready = &recorder_;
  }
  if (!overlapped_) return;
  // As backward finishes a bucket, its gradients swap out ("D2H") and the
  // bucket is published; the last participant to publish hands it to the
  // communicator slot mid-backward.
  trackers_[part].emplace(
      layout_, contrib_counts_, [this, part, &store](std::size_t b) {
        auto& set = sets_[part];
        for (const int pid : layout_.buckets[b]) {
          set.grads[static_cast<std::size_t>(pid)] =
              store.all()[static_cast<std::size_t>(pid)]->grad;
        }
        coordinator_->publish(b);
      });
  ctx.ready_sink = &*trackers_[part];
}

void GradSync::collect(std::size_t part,
                       const autograd::ParameterStore& store) {
  if (overlapped_) {
    // Flush whatever backward did not already, before the participant's
    // store moves on (to its worker's next EST, say).
    trackers_[part]->finish();
    return;
  }
  auto& set = sets_[part];
  for (std::size_t i = 0; i < store.size(); ++i) {
    set.grads[i] = store.all()[i]->grad;
  }
}

void GradSync::reduce() {
  if (overlapped_) {
    // Every bucket's job is already submitted (collect flushed the tails);
    // drain() rethrows a job failure exactly like the sequential
    // collective would.
    const comm::OverlapStats stats = async_->drain();
    last_overlap_stats_ = stats;
    if (resilient() && !reduction_) {
      step_report_.overlap_frac = stats.overlap_frac;
      last_comm_report_ = std::move(step_report_);
    }
  } else if (reduction_) {
    reduction_(nullptr);
  } else if (auto report = collective(parts_, nullptr, resilient())) {
    last_comm_report_ = std::move(report);
  }
}

void GradSync::end_step(const autograd::ParameterStore& params) {
  if (record_) {
    ES_CHECK(!recorder_.order().empty(), "grad-ready order not captured");
    layout_ = comm::BucketManager(params, cap_bytes_)
                  .layout_from_ready_order(recorder_.order());
    rebuilt_ = true;
  }
  if (need_counts_) contrib_counts_ = recorder_.counts();
}

double GradSync::reduce_bucket(std::size_t bucket) {
  // Jobs run one at a time, so one id buffer serves every bucket.
  one_bucket_[0] = bucket;
  if (reduction_) {
    reduction_(&one_bucket_);
    return 0.0;
  }
  const auto piece = collective(parts_, &one_bucket_, resilient());
  if (!piece.has_value()) return 0.0;
  comm::merge_collective_report(step_report_, *piece);
  return piece->virtual_time_s;
}

void GradSync::reduce_subset(std::vector<comm::GradientSet*>& parts,
                             const std::vector<std::size_t>* bucket_ids) {
  collective(parts, bucket_ids, /*over_fabric=*/false);
}

std::optional<comm::CollectiveReport> GradSync::collective(
    std::vector<comm::GradientSet*>& parts,
    const std::vector<std::size_t>* bucket_ids, bool over_fabric) {
  const bool sharded = !owned_.empty();
  if (over_fabric) {
    return sharded ? comm::resilient_reduce_scatter_average(
                         layout_, parts, owned_, *transport_, *monitor_,
                         resilient_, hosts(), bucket_ids)
                   : comm::resilient_allreduce_average(
                         layout_, parts, *transport_, *monitor_, resilient_,
                         hosts(), bucket_ids);
  }
  if (bucket_ids == nullptr) {
    if (sharded) {
      comm::reduce_scatter_average(layout_, parts, owned_);
    } else {
      comm::allreduce_average(layout_, parts);
    }
    return std::nullopt;
  }
  for (const std::size_t b : *bucket_ids) {
    if (sharded) {
      comm::reduce_scatter_average_bucket(layout_, b, parts, owned_);
    } else {
      comm::allreduce_average_bucket(layout_, b, parts);
    }
  }
  return std::nullopt;
}

void GradSync::all_gather(
    const std::vector<autograd::ParameterStore*>& stores) {
  if (!resilient()) {
    comm::all_gather_params(stores, gather_.slices, gather_.source_of_slice);
    return;
  }
  const comm::CollectiveReport piece = comm::resilient_all_gather_params(
      stores, gather_.slices, gather_.source_of_slice, *transport_, *monitor_,
      resilient_, hosts());
  comm::CollectiveReport total =
      last_comm_report_.value_or(comm::CollectiveReport{});
  comm::merge_collective_report(total, piece);
  last_comm_report_ = std::move(total);
}

}  // namespace easyscale::parallel
