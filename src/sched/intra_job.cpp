#include "sched/intra_job.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace easyscale::sched {

IntraJobScheduler::IntraJobScheduler(parallel::Trainer& trainer,
                                     Companion companion, bool allow_heter)
    : trainer_(&trainer),
      companion_(std::move(companion)),
      allow_heter_(allow_heter) {}

void IntraJobScheduler::reconfigure_trainer(const Plan& plan) {
  ES_CHECK(plan.valid(), "cannot apply an invalid plan");
  std::vector<parallel::WorkerSpec> specs;
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    for (std::int64_t i = 0; i < plan.gpus[static_cast<std::size_t>(t)];
         ++i) {
      specs.push_back(parallel::WorkerSpec{static_cast<DeviceType>(t)});
    }
  }
  // EST ranks are dealt contiguously following the plan's per-GPU counts.
  std::vector<std::vector<std::int64_t>> assignment(specs.size());
  std::int64_t next = 0;
  for (std::size_t g = 0; g < specs.size(); ++g) {
    for (std::int64_t k = 0; k < plan.ests[g]; ++k) {
      assignment[g].push_back(next++);
    }
  }
  ES_CHECK(next == companion_.max_p(), "plan does not place every EST");
  trainer_->configure_workers(specs, assignment);
}

Plan IntraJobScheduler::best_plan(const GpuVector& available) const {
  if (!trainer_->needs_identity_packing()) {
    return companion_.best_plan(available, allow_heter_);
  }
  // One EST per GPU needs max_p GPUs: the fastest available (device types
  // are listed fastest first), all of one type unless the job is
  // heterogeneous.
  GpuVector gpus{};
  std::int64_t left = companion_.max_p();
  for (std::size_t t = 0; t < available.size() && left > 0; ++t) {
    if (!allow_heter_ && available[t] < left) continue;
    gpus[t] = std::min(left, available[t]);
    left -= gpus[t];
  }
  return companion_.spread_plan(gpus);
}

bool IntraJobScheduler::apply_best_plan(const GpuVector& available) {
  const Plan plan = best_plan(available);
  if (!plan.valid()) return false;
  apply_plan(plan);
  return true;
}

std::vector<Companion::Proposal> IntraJobScheduler::make_proposals(
    const GpuVector& spare, std::size_t top_k) const {
  // One EST per GPU already spans max_p GPUs: no scale-out fits.
  if (trainer_->needs_identity_packing()) return {};
  return companion_.proposals(current_, spare, allow_heter_, top_k);
}

void IntraJobScheduler::apply_plan(const Plan& plan) {
  reconfigure_trainer(plan);
  previous_ = current_;
  current_ = plan;
  ES_LOG_DEBUG("intra-job scheduler applied plan with "
               << total(plan.gpus) << " GPU(s), est tp " << plan.throughput);
}

bool IntraJobScheduler::report_throughput(double observed_mbps) {
  companion_.report_throughput(current_, observed_mbps);
  const bool scaled_out =
      previous_.valid() && total(current_.gpus) > total(previous_.gpus);
  if (scaled_out && previous_observed_ > 0.0 &&
      observed_mbps < previous_observed_) {
    // Role-3 fallback: more GPUs made things slower — release them.
    ES_LOG_INFO("intra-job scheduler falling back after slowdown ("
                << observed_mbps << " < " << previous_observed_ << " mb/s)");
    const Plan back = previous_;
    reconfigure_trainer(back);
    current_ = back;
    previous_ = Plan{};
    return true;
  }
  previous_observed_ = observed_mbps;
  return false;
}

bool IntraJobScheduler::rebalance_stragglers(double threshold_s) {
  const auto stalls = trainer_->comm_stall_per_worker();
  if (stalls.size() < 2) return false;  // nothing to move between
  auto assignment = trainer_->current_assignment();
  std::size_t best = 0;
  std::size_t worst = stalls.size();  // sentinel: none above threshold
  for (std::size_t w = 0; w < stalls.size(); ++w) {
    if (stalls[w] < stalls[best]) best = w;  // ties keep the lowest index
    if (stalls[w] > threshold_s && assignment[w].size() > 1 &&
        (worst == stalls.size() || stalls[w] > stalls[worst])) {
      worst = w;
    }
  }
  if (worst == stalls.size() || worst == best) return false;
  const std::int64_t est = assignment[worst].back();
  assignment[worst].pop_back();
  assignment[best].push_back(est);
  ES_LOG_INFO("rebalancing EST " << est << " off stalled worker " << worst
                                 << " (" << stalls[worst] << "s stall) onto "
                                 << best);
  trainer_->configure_workers(trainer_->current_worker_specs(),
                             std::move(assignment));
  if (current_.valid() && current_.ests.size() == stalls.size()) {
    --current_.ests[worst];
    ++current_.ests[best];
  }
  return true;
}

bool IntraJobScheduler::quarantine_worker(std::int64_t slot) {
  auto specs = trainer_->current_worker_specs();
  auto assignment = trainer_->current_assignment();
  if (slot < 0 || slot >= static_cast<std::int64_t>(specs.size()) ||
      specs.size() < 2 || trainer_->needs_identity_packing()) {
    return false;
  }
  const auto s = static_cast<std::size_t>(slot);
  const std::vector<std::int64_t> orphans = assignment[s];
  blocklist_.push_back(specs[s]);
  specs.erase(specs.begin() + slot);
  assignment.erase(assignment.begin() + slot);
  // Deal the condemned worker's ESTs to the least-loaded survivors (lowest
  // index wins ties, keeping the remap deterministic).
  for (const std::int64_t est : orphans) {
    std::size_t target = 0;
    for (std::size_t w = 1; w < assignment.size(); ++w) {
      if (assignment[w].size() < assignment[target].size()) target = w;
    }
    assignment[target].push_back(est);
  }
  ES_LOG_INFO("quarantining worker " << slot << ": " << orphans.size()
                                     << " EST(s) remapped onto "
                                     << specs.size() << " survivor(s)");
  trainer_->configure_workers(specs, std::move(assignment));
  // The running plan no longer matches the worker set; drop it so the next
  // apply_best_plan starts from the quarantined capacity.
  previous_ = Plan{};
  current_ = Plan{};
  return true;
}

int IntraJobScheduler::apply_quarantine_decisions(
    const fault::DecisionLog& log) {
  // Only entries BEHIND the cursor are new; the cursor then jumps to the
  // log's end, so replaying the same committed log (e.g. after a controller
  // failover handed a follower the full history) applies nothing twice.
  int vacated = 0;
  const auto& records = log.records();
  for (std::size_t i = static_cast<std::size_t>(quarantine_cursor_);
       i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.kind != fault::DecisionKind::kQuarantine) continue;
    // arg1 carries the condemned worker slot (arg0 is the device id, kept
    // for the cluster ledger).  A slot that cannot be vacated any more —
    // the membership already moved past it — is skipped, not an error:
    // the decision was applied by whoever committed it.
    if (quarantine_worker(rec.arg1)) ++vacated;
  }
  quarantine_cursor_ = static_cast<std::int64_t>(records.size());
  return vacated;
}

}  // namespace easyscale::sched
