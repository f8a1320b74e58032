// The multi-tenant cluster service: a long-running, event-driven scheduler
// over the EasyScale elastic-job model (ROADMAP item 4, grounded in
// "Elastic Deep Learning in Multi-Tenant GPU Clusters").
//
// Layering:
//   ClusterService            event loop (calendar queue), placement,
//     ├── allocation policy   kFairShare: weighted max-min + SLA
//     │                       entitlements (the multi-tenant service);
//     │                       kGreedy: the §3.4 EasyScale scheduler;
//     │                       kGang: the YARN-CS baseline (Figs 14-15)
//     ├── Companion+PlanCache Eq. (1) throughput of every placement
//     └── capacity feeds      failures (repairable), SDC quarantine
//                             (permanent), degraded fabric links, and the
//                             Fig-1 serving co-location curve
//
// The service is *fluid*: between events every running job progresses at
// the steps/second of its current plan, so the only work is at arrivals,
// completions and capacity changes — an indexed calendar queue drains
// those in amortized O(1), which is what lets a 100k-GPU, week-long,
// tens-of-thousands-of-jobs trace finish in seconds of wall-clock.
//
// Revocation flows through the elastic shrink path: when capacity leaves
// (serving peaks, failures, quarantine) the fair-share targets drop and
// affected jobs *scale in* — spot tenants first, then burst above quota,
// guaranteed never below quota — no job is ever killed (§5.3: preemptions
// yes, failures zero).  kGreedy rebuilds its allocation inside the smaller
// pool, so it never kills either; only kGang, which cannot shrink a job,
// kills gangs (ClusterMetrics::failed_jobs).
//
// Determinism contract: same tenants + trace + config (including the
// queue kind) ⇒ bitwise-identical schedule digest and metrics JSON, at
// any thread count (asserted over ≥16 seeds by cluster_soak_test).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/allocator.hpp"
#include "cluster/calendar_queue.hpp"
#include "cluster/metrics.hpp"
#include "cluster/tenant.hpp"
#include "fault/quarantine_feed.hpp"
#include "sched/companion.hpp"
#include "trace/generators.hpp"

namespace easyscale::cluster {

/// A fault-degraded fabric link: `gpus` GPUs of `device_type` sit behind
/// it for `duration_s`.  Placement avoids them (they fill last), and jobs
/// forced onto them lose `penalty` of the affected GPUs' throughput.
struct LinkDegradeEvent {
  double t_s = 0.0;
  double duration_s = 3600.0;
  int device_type = 0;
  std::int64_t gpus = 0;
  double penalty = 0.5;  // throughput fraction lost on degraded GPUs
};

/// How a rebalance turns the pool into per-job allocations.
enum class AllocationPolicy : int {
  /// Tenant-level weighted max-min fair share with SLA entitlements, then
  /// FIFO within each tenant: one GPU per job first, the rest grows jobs
  /// toward maxP.  Placement keeps unchanged jobs on their devices.
  kFairShare,
  /// The §3.4 EasyScale inter-job scheduler, rebuilt at every rebalance:
  /// in FIFO order each job gets its best single-GPU plan, then
  /// sched::grow_greedily accepts Companion proposals.  A job's
  /// allow_heter picks EasyScale_heter over EasyScale_homo.
  kGreedy,
  /// YARN-CS gang scheduling: strict FIFO admission with head-of-line
  /// blocking, each job asking min(max_p, capacity[preferred_type]) GPUs of
  /// its preferred type.  When capacity drops under the running gangs of a
  /// type, the most recently started one (ties: higher job id) is killed,
  /// loses its progress and rejoins the head of the queue.
  kGang,
};

[[nodiscard]] const char* policy_name(AllocationPolicy policy);

struct ClusterServiceConfig {
  sched::GpuVector capacity{};  // healthy GPUs per device type
  QueueKind queue = QueueKind::kCalendar;
  /// kGreedy and kGang schedule a single tenant (the trace experiment of
  /// §5.2); the service rejects them with more than one.
  AllocationPolicy policy = AllocationPolicy::kFairShare;
  double max_sim_s = 365.0 * 86400.0;  // safety bound

  /// SLA targets: a tier-`x` job attains its SLA when
  /// JCT <= stretch_x * ideal_jct + slack, where ideal_jct is the job's
  /// run time on an uncontended full-maxP best-type allocation.
  double sla_stretch_guaranteed = 3.0;
  double sla_stretch_burst = 8.0;
  double sla_stretch_spot = 1e12;  // spot sells no latency SLA
  double sla_slack_s = 300.0;

  /// Capacity feeds (all optional, all deterministic inputs).
  std::vector<trace::ClusterFailureEvent> failures;      // repairable
  std::vector<fault::QuarantineEvent> quarantines;       // permanent (SDC)
  std::vector<LinkDegradeEvent> link_degrades;           // fabric
  /// Serving co-location (Fig 1): lend up to `serving_peak_fraction` of
  /// each type to the serving fleet, following the diurnal curve sampled
  /// every `serving_update_period_s`.
  bool serving_colocation = false;
  trace::ServingLoadConfig serving{};
  double serving_update_period_s = 600.0;
  double serving_peak_fraction = 0.3;
};

class ClusterService {
 public:
  ClusterService(std::vector<Tenant> tenants, std::vector<ClusterJob> jobs,
                 ClusterServiceConfig config);
  ~ClusterService();

  /// Drain the event queue to completion and return the metrics.
  [[nodiscard]] ClusterMetrics run();

  [[nodiscard]] const sched::PlanCache& plan_cache() const { return cache_; }

  /// Start and finish times of job `idx` (its index in the constructor's
  /// job list); -1 until they happen.  The start is the first GPU grant —
  /// under kGang, the grant of the gang that finished.
  [[nodiscard]] double start_s(std::size_t idx) const;
  [[nodiscard]] double finish_s(std::size_t idx) const;

 private:
  struct JobState;
  struct CapacityStep;
  struct Ev;

  void build_capacity_steps();
  /// One allocator round under cfg_.policy; records a timeline point when
  /// the total allocation changed.
  void rebalance(double now);
  void rebalance_fair_share(double now);
  void rebalance_greedy(double now);
  void rebalance_gang(double now);
  /// Install mixes[k] for job order[k], each drawing healthy GPUs before
  /// degraded-link ones, in order.
  void install(const std::vector<std::size_t>& order,
               const std::vector<sched::GpuVector>& mixes, double now);
  void settle(JobState& js, double now);
  void finish_job(std::size_t idx, double now);
  /// Install a new allocation for job `idx`: settle progress, recompute
  /// the Eq. (1) rate (degraded GPUs contribute at 1 - penalty), bump the
  /// finish-event generation and fold the decision into the digest.
  void apply_plan(std::size_t idx, const sched::GpuVector& mix,
                  const sched::GpuVector& degraded, double now);

  std::vector<Tenant> tenants_;
  std::vector<ClusterJob> jobs_;
  ClusterServiceConfig cfg_;
  sched::PlanCache cache_;

  std::vector<JobState> states_;
  /// Per tenant: its arrived, unfinished jobs in FIFO order (a job leaves
  /// in finish_job), and the sum of their maxP.
  std::vector<std::vector<std::size_t>> tenant_active_;
  std::vector<std::int64_t> tenant_demand_;

  /// kFairShare scratch, reused by every rebalance: the requests of the
  /// tenants with live jobs and their tenant indices, the shares, the
  /// per-job GPU targets (flat, request by request, parallel to each
  /// request's tenant_active_ list) and the jobs to place afresh, with
  /// their targets.
  std::vector<ShareRequest> requests_;
  std::vector<std::size_t> req_tenant_;
  std::vector<std::int64_t> shares_;
  FairShareWorkspace share_ws_;
  std::vector<std::int64_t> target_;
  std::vector<std::pair<std::size_t, std::int64_t>> replace_;
  std::vector<CapacityStep> capacity_steps_;
  std::unique_ptr<EventQueue<Ev>> queue_;
  std::deque<std::size_t> gang_queue_;  // kGang admission order
  std::int64_t allocated_ = 0;          // GPUs held by unfinished jobs

  sched::GpuVector healthy_{};   // currently schedulable, full-speed
  sched::GpuVector degraded_{};  // schedulable behind a degraded link
  std::array<double, sched::kNumDeviceTypes> degrade_penalty_{};

  ClusterMetrics metrics_;
  std::uint64_t digest_ = kFnvOffset;
};

}  // namespace easyscale::cluster
