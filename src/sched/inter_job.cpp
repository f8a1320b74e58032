#include "sched/inter_job.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace easyscale::sched {

void InterJobScheduler::add_job(std::string name,
                                parallel::Trainer& trainer,
                                Companion companion, bool allow_heter) {
  ES_CHECK(find(name) == nullptr, "job name already registered: " << name);
  Job job;
  job.name = std::move(name);
  job.intra = std::make_unique<IntraJobScheduler>(trainer, std::move(companion),
                                                  allow_heter);
  jobs_.push_back(std::move(job));
}

void InterJobScheduler::remove_job(const std::string& name) {
  const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [&](const Job& j) { return j.name == name; });
  ES_CHECK(it != jobs_.end(), "unknown job: " << name);
  jobs_.erase(it);
}

InterJobScheduler::Job* InterJobScheduler::find(const std::string& name) {
  for (auto& j : jobs_) {
    if (j.name == name) return &j;
  }
  return nullptr;
}

GpuVector InterJobScheduler::allocation(const std::string& name) const {
  for (const auto& j : jobs_) {
    if (j.name == name && j.intra->current_plan().valid()) {
      return j.intra->current_plan().gpus;
    }
  }
  return GpuVector{};
}

GpuVector InterJobScheduler::free_pool() const {
  GpuVector free = capacity_;
  for (const auto& j : jobs_) {
    if (!j.intra->current_plan().valid()) continue;
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      free[static_cast<std::size_t>(t)] -=
          j.intra->current_plan().gpus[static_cast<std::size_t>(t)];
    }
  }
  return free;
}

int InterJobScheduler::revoke(const GpuVector& revoked) {
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    const auto idx = static_cast<std::size_t>(t);
    ES_CHECK(revoked[idx] >= 0, "negative revocation count");
    capacity_[idx] = std::max<std::int64_t>(0, capacity_[idx] - revoked[idx]);
  }
  return reschedule();
}

int InterJobScheduler::reschedule() {
  int changes = 0;
  // Capacity shrink: any job whose plan no longer fits scales in first
  // (training never fails; it just reconfigures — §5.3).
  for (;;) {
    GpuVector free = free_pool();
    bool over = false;
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      if (free[static_cast<std::size_t>(t)] < 0) over = true;
    }
    if (!over) break;
    // Shrink the most-recently-registered over-committed job to its best
    // plan inside the reduced pool.
    for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
      if (!it->intra->current_plan().valid()) continue;
      GpuVector reach = free_pool();
      for (int t = 0; t < kNumDeviceTypes; ++t) {
        auto& v = reach[static_cast<std::size_t>(t)];
        v += it->intra->current_plan().gpus[static_cast<std::size_t>(t)];
        v = std::max<std::int64_t>(v, 0);
      }
      const Plan p = it->intra->best_plan(reach);
      if (p.valid() && !(p.gpus == it->intra->current_plan().gpus)) {
        it->intra->apply_plan(p);
      } else {
        // Cannot shrink into the pool (or would not change): pause the job
        // entirely — it resumes when capacity returns.
        it->intra->release();
      }
      ++changes;
      break;
    }
  }
  // FIFO starts: each unscheduled job gets its best plan over the whole
  // free pool.
  for (auto& j : jobs_) {
    if (j.intra->current_plan().valid()) continue;
    if (j.intra->apply_best_plan(free_pool())) ++changes;
  }
  // Greedy proposal acceptance (the §3.4 rule shared with the cluster
  // service's kGreedy policy).
  GpuVector free = free_pool();
  changes += grow_greedily(
      jobs_.size(), free,
      [&](std::size_t i, const GpuVector& spare) {
        const IntraJobScheduler& intra = *jobs_[i].intra;
        return intra.current_plan().valid()
                   ? intra.make_proposals(spare)
                   : std::vector<Companion::Proposal>{};
      },
      [&](std::size_t i, const Companion::Proposal& prop) {
        jobs_[i].intra->apply_plan(prop.plan);
      });
  ES_LOG_DEBUG("inter-job reschedule applied " << changes << " change(s)");
  return changes;
}

}  // namespace easyscale::sched
