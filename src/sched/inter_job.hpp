// Live inter-job (cluster) scheduler — the top of the §3.4 hierarchy,
// operating on REAL running jobs (parallel::Trainer + IntraJobScheduler
// pairs), not simulator stubs.
//
// Jobs register with the cluster; each scheduling round the cluster
//  1. grants each GPU-less job, in FIFO order, Companion::best_plan over
//     the whole free pool, then
//  2. runs sched::grow_greedily: collect Role-2 proposals from every job's
//     intra-job scheduler and approve the one with the highest marginal
//     speedup-per-GPU (ties broken toward more GPUs), until nothing fits.
// Capacity changes (e.g. serving jobs claiming GPUs) are applied with
// set_capacity; affected jobs scale in at the next round — the co-location
// behaviour of §5.3, but executing real training underneath.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/intra_job.hpp"

namespace easyscale::sched {

class InterJobScheduler {
 public:
  explicit InterJobScheduler(GpuVector capacity) : capacity_(capacity) {}

  /// Register a running job.  The cluster does not own the trainer.
  void add_job(std::string name, parallel::Trainer& trainer,
               Companion companion, bool allow_heter);

  /// Remove a finished job, releasing its GPUs.
  void remove_job(const std::string& name);

  /// Change total capacity (serving jobs arriving/leaving).  Shrinking may
  /// force scale-ins at the next round.
  void set_capacity(const GpuVector& capacity) { capacity_ = capacity; }
  [[nodiscard]] const GpuVector& capacity() const { return capacity_; }

  /// Spot-style revocation: remove `revoked` GPUs from the capacity and
  /// reschedule immediately, so affected jobs scale in within the grace
  /// period instead of failing (fault::FaultSupervisor's cluster-level
  /// counterpart).  Returns the number of plan changes applied.
  int revoke(const GpuVector& revoked);

  /// One scheduling round; returns the number of plan changes applied.
  int reschedule();

  /// GPUs currently granted to `name` (zero vector when unscheduled).
  [[nodiscard]] GpuVector allocation(const std::string& name) const;

  [[nodiscard]] GpuVector free_pool() const;
  [[nodiscard]] std::size_t num_jobs() const { return jobs_.size(); }

 private:
  struct Job {
    std::string name;
    std::unique_ptr<IntraJobScheduler> intra;
  };

  [[nodiscard]] Job* find(const std::string& name);

  GpuVector capacity_{};
  std::vector<Job> jobs_;
};

}  // namespace easyscale::sched
