// The companion module (§3.4): a per-job database of scheduling plans and
// the analytical waste/throughput model of Equations (1a)-(1d).
//
// A plan maps a job's maxP ESTs onto a multiset of GPUs.  ESTs on one GPU
// execute serially (time-slicing), so a GPU holding A ESTs of a workload
// with capability C mini-batches/s needs A/C seconds per global step; the
// slowest GPU (f_overload) gates the whole Sync-SGD job.  waste measures
// the capability the plan strands, and estimated throughput is aggregate
// capability minus waste.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "kernels/device.hpp"

namespace easyscale::sched {

using kernels::DeviceType;
using kernels::kNumDeviceTypes;

/// GPUs per device type (indexed by DeviceType).
using GpuVector = std::array<std::int64_t, kNumDeviceTypes>;

[[nodiscard]] inline std::int64_t total(const GpuVector& v) {
  std::int64_t t = 0;
  for (auto n : v) t += n;
  return t;
}

/// A concrete EST-to-GPU mapping: ests[g] is the EST count on the g-th GPU
/// of the plan (GPUs listed per type, in type order).
struct Plan {
  GpuVector gpus{};                 // N_i
  std::vector<std::int64_t> ests;   // per-GPU EST count, grouped by type
  double f_overload = 0.0;          // max_i A_i / C_i  (seconds per step)
  double waste = 0.0;               // Eq. (1c)
  double throughput = 0.0;          // Eq. (1d), mini-batches per second
  double steps_per_second = 0.0;    // 1 / f_overload (global steps)

  [[nodiscard]] bool valid() const { return f_overload > 0.0; }

  void save(ByteWriter& w) const;
  [[nodiscard]] static Plan load(ByteReader& r);
};

/// Memoized plan database shared across Companions.  Plans are pure
/// functions of (workload, maxP, GPU multiset) at the default calibration,
/// and a cluster-scale run evaluates the same few hundred keys millions of
/// times — the cache turns every repeat into one hash probe.  Cached plans
/// are byte-identical to freshly computed ones (unit-tested): the greedy
/// EST deal is deterministic, so memoization cannot change a schedule.
///
/// Not internally synchronized; share one cache per (single-threaded)
/// scheduling loop, as the cluster service does.
class PlanCache {
 public:
  /// Serialization format version.  v1 keys predate shard_degree — a plan
  /// cached for one degree could be served for another — so load() drops
  /// every entry of a stale-version image (bypass, never silent reuse) and
  /// the next make_plan recomputes fresh.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Lookup; nullptr on miss.  Hits are counted.  `shard_degree` is part
  /// of the key: a plan evaluated for a sharded job never answers a
  /// replicated one (or vice versa), even with identical GPUs.
  [[nodiscard]] const Plan* find(const std::string& workload,
                                 std::int64_t max_p, const GpuVector& gpus,
                                 int shard_degree = 1);
  void insert(const std::string& workload, std::int64_t max_p,
              const GpuVector& gpus, Plan plan, int shard_degree = 1);

  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return plans_.size(); }
  void clear();

  /// Persist the cache (format kFormatVersion).
  void save(ByteWriter& w) const;
  /// Restore a persisted cache image; returns the number of entries
  /// restored.  A stale format version restores ZERO entries — stale-keyed
  /// plans are bypassed, never silently reused.
  std::size_t load(ByteReader& r);

 private:
  /// Key: workload '\0' maxP, shard_degree, per-type GPU counts, packed
  /// into a string so the map owns stable storage.
  static std::string key(const std::string& workload, std::int64_t max_p,
                         const GpuVector& gpus, int shard_degree);

  std::unordered_map<std::string, Plan> plans_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

class Companion {
 public:
  Companion(std::string workload, std::int64_t max_p);

  /// Attach a shared memoization cache (not owned; may be nullptr to
  /// detach).  The cache is only consulted while the companion is at its
  /// default calibration — a report_throughput recalibration changes every
  /// capability, so calibrated companions compute plans directly.
  void set_plan_cache(PlanCache* cache) { cache_ = cache; }

  /// Optimizer-state shard degree of this job's parallel::Plan (1 =
  /// replicated).  Part of the cache key — two jobs differing only in
  /// degree never share a memoized plan.
  void set_shard_degree(int degree) { shard_degree_ = degree; }
  [[nodiscard]] int shard_degree() const { return shard_degree_; }

  /// Per-EST capability C_i of one GPU of `type` for this workload.
  [[nodiscard]] double capability(DeviceType type) const;

  /// Balance maxP ESTs over the given GPUs (greedy longest-processing-time)
  /// and evaluate Eq. (1).  Returns an invalid plan when gpus is empty.
  [[nodiscard]] Plan make_plan(const GpuVector& gpus) const;
  /// Eq. (1) for exactly one EST on each GPU (a job whose ranks cannot
  /// share a GPU).  Invalid unless total(gpus) == maxP; never cached.
  [[nodiscard]] Plan spread_plan(const GpuVector& gpus) const;

  /// Best plan under `available` GPUs.  Greedy-constructive: repeatedly add
  /// the GPU that improves estimated throughput the most.  `allow_heter`
  /// false restricts the plan to a single device type (EasyScale_homo, or a
  /// D2-ineligible job).
  [[nodiscard]] Plan best_plan(const GpuVector& available,
                               bool allow_heter) const;

  /// Role-2 resource proposals: top-K scale-out options from `current`
  /// under `available` spare GPUs, with their estimated speedup.
  struct Proposal {
    GpuVector extra_gpus{};
    Plan plan;
    double speedup = 0.0;  // new throughput / current throughput
    std::int64_t gpu_count = 0;
    [[nodiscard]] double speedup_per_gpu() const {
      return gpu_count > 0 ? (speedup - 1.0) / static_cast<double>(gpu_count)
                           : 0.0;
    }
  };
  [[nodiscard]] std::vector<Proposal> proposals(const Plan& current,
                                                const GpuVector& available,
                                                bool allow_heter,
                                                std::size_t top_k = 3) const;

  /// Report observed throughput; when the estimate drifts by more than 20%
  /// the database recalibrates its capability scale (the "actively update"
  /// behaviour of §3.4).
  void report_throughput(const Plan& plan, double observed_mbps);

  [[nodiscard]] std::int64_t max_p() const { return max_p_; }
  [[nodiscard]] const std::string& workload() const { return workload_; }

 private:
  /// The uncached Eq. (1) evaluation behind make_plan (greedy EST deal)
  /// and spread_plan (one EST per GPU).
  [[nodiscard]] Plan compute_plan(const GpuVector& gpus,
                                  bool one_per_gpu = false) const;

  std::string workload_;
  std::int64_t max_p_;
  double calibration_ = 1.0;  // multiplicative correction from reports
  int shard_degree_ = 1;
  PlanCache* cache_ = nullptr;
};

/// The §3.4 inter-job growth rule, shared by the live InterJobScheduler and
/// the cluster service's kGreedy policy.  Each round collects every job's
/// Role-2 proposals under `free` (`propose(i, free)`, empty for a job that
/// holds no GPUs), accepts the one with the highest speedup-per-GPU (ties
/// toward more GPUs, then toward the lower job index), subtracts its extra
/// GPUs from `free` and installs it through `accept(i, proposal)`.  Stops
/// when no proposal is left or the best one does not fit.  Returns the
/// number of proposals accepted.
int grow_greedily(
    std::size_t num_jobs, GpuVector& free,
    const std::function<std::vector<Companion::Proposal>(
        std::size_t, const GpuVector&)>& propose,
    const std::function<void(std::size_t, const Companion::Proposal&)>&
        accept);

}  // namespace easyscale::sched
