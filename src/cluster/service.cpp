#include "cluster/service.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "models/profile.hpp"

namespace easyscale::cluster {

namespace {

[[nodiscard]] std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

const char* policy_name(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kFairShare: return "kFairShare";
    case AllocationPolicy::kGreedy: return "kGreedy";
    case AllocationPolicy::kGang: return "kGang";
  }
  return "?";
}

/// Per-job runtime state.  Progress is fluid and lazy: `remaining_steps`
/// is exact as of `last_change_s`; between events the job advances at
/// `rate` steps/second, so nothing is touched until its rate changes.
struct ClusterService::JobState {
  std::unique_ptr<sched::Companion> companion;
  std::size_t tenant_index = 0;
  double remaining_steps = 0.0;
  double rate = 0.0;
  double last_change_s = 0.0;
  sched::GpuVector alloc{};
  sched::GpuVector degraded_alloc{};
  std::int64_t gen = 0;  // invalidates in-flight finish events
  double start_s = -1.0;
  double finish_s = -1.0;
  double gpu_seconds = 0.0;
  /// Device types in descending capability for this workload (placement
  /// preference), computed once.
  std::array<int, sched::kNumDeviceTypes> type_order{};
  bool done = false;
};

/// One precomputed point of the capacity timeline: the pool state that
/// holds from `t_s` until the next step.
struct ClusterService::CapacityStep {
  double t_s = 0.0;
  sched::GpuVector healthy{};
  sched::GpuVector degraded{};
  std::array<double, sched::kNumDeviceTypes> penalty{};
};

struct ClusterService::Ev {
  enum Kind : std::uint8_t { kArrival, kFinish, kCapacity };
  Kind kind = kArrival;
  std::int64_t a = 0;  // job index (arrival/finish) or capacity-step index
  std::int64_t b = 0;  // finish: generation stamp
};

ClusterService::ClusterService(std::vector<Tenant> tenants,
                               std::vector<ClusterJob> jobs,
                               ClusterServiceConfig config)
    : tenants_(std::move(tenants)),
      jobs_(std::move(jobs)),
      cfg_(std::move(config)) {
  ES_CHECK(!tenants_.empty(), "cluster service needs tenants");
  ES_CHECK(!jobs_.empty(), "cluster service needs jobs");
  ES_CHECK(sched::total(cfg_.capacity) > 0, "cluster service needs GPUs");
  ES_CHECK(cfg_.policy == AllocationPolicy::kFairShare || tenants_.size() == 1,
           "policy " << policy_name(cfg_.policy)
                     << " schedules a single tenant, got " << tenants_.size());

  std::unordered_map<std::int64_t, std::size_t> tenant_index;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    tenant_index[tenants_[i].id] = i;
  }
  tenant_active_.resize(tenants_.size());
  tenant_demand_.resize(tenants_.size(), 0);
  metrics_.per_tenant.resize(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    metrics_.per_tenant[i].tenant = tenants_[i].id;
    metrics_.per_tenant[i].tier = tenants_[i].tier;
    metrics_.per_tenant[i].weight = tenants_[i].weight;
  }

  states_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto it = tenant_index.find(jobs_[i].tenant);
    ES_CHECK(it != tenant_index.end(),
             "job " << jobs_[i].spec.id << " names unknown tenant "
                    << jobs_[i].tenant);
    ES_CHECK(cfg_.policy != AllocationPolicy::kGang ||
                 cfg_.capacity[static_cast<std::size_t>(
                     jobs_[i].spec.preferred_type)] > 0,
             "policy kGang: job " << jobs_[i].spec.id
                                  << " prefers a device type the cluster "
                                     "has no GPUs of");
    JobState& js = states_[i];
    js.tenant_index = it->second;
    js.companion = std::make_unique<sched::Companion>(jobs_[i].spec.workload,
                                                      jobs_[i].spec.max_p);
    js.companion->set_plan_cache(&cache_);
    js.remaining_steps = static_cast<double>(jobs_[i].spec.total_steps);
    // Placement preference: descending profiled capability, ties toward
    // the lower type index.
    std::array<int, sched::kNumDeviceTypes> order{};
    for (int t = 0; t < sched::kNumDeviceTypes; ++t) order[t] = t;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ca = js.companion->capability(static_cast<sched::DeviceType>(a));
      const double cb = js.companion->capability(static_cast<sched::DeviceType>(b));
      if (ca != cb) return ca > cb;
      return a < b;
    });
    js.type_order = order;
  }

  build_capacity_steps();
  healthy_ = cfg_.capacity;

  // Initial day width: the mean event separation over the submission
  // window (a good first guess keeps early resizes rare).
  double last_arrival = 0.0;
  for (const auto& j : jobs_) last_arrival = std::max(last_arrival, j.spec.arrival_s);
  const double day = std::max(
      1e-3, last_arrival / static_cast<double>(jobs_.size() + 1));
  queue_ = std::make_unique<EventQueue<Ev>>(cfg_.queue, day);
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    queue_->push(jobs_[i].spec.arrival_s,
                 Ev{Ev::kArrival, static_cast<std::int64_t>(i), 0});
  }
  for (std::size_t i = 0; i < capacity_steps_.size(); ++i) {
    queue_->push(capacity_steps_[i].t_s,
                 Ev{Ev::kCapacity, static_cast<std::int64_t>(i), 0});
  }
}

ClusterService::~ClusterService() = default;

double ClusterService::start_s(std::size_t idx) const {
  return states_.at(idx).start_s;
}

double ClusterService::finish_s(std::size_t idx) const {
  return states_.at(idx).finish_s;
}

void ClusterService::build_capacity_steps() {
  // Sweep every capacity-affecting boundary once, in time order, keeping
  // running counters — O((F + Q + D + S) log ·) at construction instead of
  // an O(feed) rescan per event at runtime.
  struct Delta {
    int kind;  // 0 failure+, 1 failure-, 2 quarantine, 3 degrade+, 4 degrade-, 5 serving
    int type = 0;
    std::int64_t count = 0;
    double penalty = 0.0;
    sched::GpuVector lent{};
  };
  std::multimap<double, Delta> deltas;
  for (const auto& f : cfg_.failures) {
    ES_CHECK(f.device_type >= 0 && f.device_type < sched::kNumDeviceTypes,
             "failure device type out of range");
    deltas.insert({f.t_s, {0, f.device_type, 1, 0.0, {}}});
    deltas.insert({f.t_s + f.repair_s, {1, f.device_type, 1, 0.0, {}}});
  }
  for (const auto& q : cfg_.quarantines) {
    deltas.insert({q.t_s, {2, q.device_type, 1, 0.0, {}}});
  }
  for (const auto& d : cfg_.link_degrades) {
    ES_CHECK(d.penalty >= 0.0 && d.penalty <= 1.0, "penalty must be in [0,1]");
    deltas.insert({d.t_s, {3, d.device_type, d.gpus, d.penalty, {}}});
    deltas.insert({d.t_s + d.duration_s, {4, d.device_type, d.gpus, d.penalty, {}}});
  }
  if (cfg_.serving_colocation) {
    const auto curve = trace::serving_load_curve(cfg_.serving);
    std::int64_t peak = 1;
    for (auto v : curve) peak = std::max(peak, v);
    sched::GpuVector prev_lent{};
    bool first = true;
    for (double t = 0.0; t / 60.0 < static_cast<double>(curve.size());
         t += cfg_.serving_update_period_s) {
      const auto minute = static_cast<std::size_t>(t / 60.0);
      const double frac =
          static_cast<double>(curve[minute]) / static_cast<double>(peak);
      sched::GpuVector lent{};
      for (int ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
        lent[static_cast<std::size_t>(ty)] = static_cast<std::int64_t>(
            frac * cfg_.serving_peak_fraction *
            static_cast<double>(cfg_.capacity[static_cast<std::size_t>(ty)]));
      }
      if (first || lent != prev_lent) {
        deltas.insert({t, {5, 0, 0, 0.0, lent}});
        prev_lent = lent;
        first = false;
      }
    }
  }

  sched::GpuVector down{}, quarantined{}, lent{};
  std::array<std::int64_t, sched::kNumDeviceTypes> degraded_raw{};
  std::array<std::multiset<double>, sched::kNumDeviceTypes> penalties;
  for (auto it = deltas.begin(); it != deltas.end();) {
    const double t = it->first;
    for (; it != deltas.end() && it->first == t; ++it) {
      const Delta& d = it->second;
      const auto ty = static_cast<std::size_t>(d.type);
      switch (d.kind) {
        case 0: down[ty] += d.count; break;
        case 1: down[ty] -= d.count; break;
        case 2: ++quarantined[ty]; break;
        case 3:
          degraded_raw[ty] += d.count;
          penalties[ty].insert(d.penalty);
          break;
        case 4:
          degraded_raw[ty] -= d.count;
          penalties[ty].erase(penalties[ty].find(d.penalty));
          break;
        case 5: lent = d.lent; break;
      }
    }
    CapacityStep step;
    step.t_s = t;
    for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
      const std::int64_t avail = std::max<std::int64_t>(
          0, cfg_.capacity[ty] - down[ty] - quarantined[ty] - lent[ty]);
      step.degraded[ty] = std::min(degraded_raw[ty], avail);
      step.healthy[ty] = avail - step.degraded[ty];
      step.penalty[ty] = penalties[ty].empty() ? 0.0 : *penalties[ty].rbegin();
    }
    capacity_steps_.push_back(step);
  }
}

void ClusterService::settle(JobState& js, double now) {
  const double dt = now - js.last_change_s;
  if (dt > 0.0 && js.rate > 0.0) {
    js.remaining_steps -= js.rate * dt;
    const double gpu_s =
        static_cast<double>(sched::total(js.alloc)) * dt;
    js.gpu_seconds += gpu_s;
    metrics_.per_tenant[js.tenant_index].gpu_seconds += gpu_s;
  }
  js.last_change_s = now;
}

void ClusterService::finish_job(std::size_t idx, double now) {
  JobState& js = states_[idx];
  settle(js, now);
  js.remaining_steps = 0.0;
  js.done = true;
  js.finish_s = now;
  js.rate = 0.0;
  allocated_ -= sched::total(js.alloc);
  // Leave the tenant's live list.  Lists are FIFO and jobs tend to finish
  // in arrival order, so the job sits near the front.
  auto& active = tenant_active_[js.tenant_index];
  active.erase(std::find(active.begin(), active.end(), idx));
  tenant_demand_[js.tenant_index] -= jobs_[idx].spec.max_p;
  ++metrics_.jobs_finished;
  const Tenant& tenant = tenants_[js.tenant_index];
  const double jct = now - jobs_[idx].spec.arrival_s;
  auto& tier = metrics_.per_tier[static_cast<int>(tenant.tier)];
  ++tier.finished;
  TenantMetrics& tm = metrics_.per_tenant[js.tenant_index];
  ++tm.finished;
  tm.jct_sum += jct;
  digest_ = fnv1a64(digest_, double_bits(now));
  digest_ = fnv1a64(digest_, 0xF1A15Bull ^
                                 static_cast<std::uint64_t>(jobs_[idx].spec.id));
}

ClusterMetrics ClusterService::run() {
  double now = 0.0;
  std::size_t done = 0;
  bool need_rebalance = false;
  std::vector<std::vector<double>> tier_jcts(3);
  std::vector<double> ideal(jobs_.size(), -1.0);

  while (!queue_->empty()) {
    const auto ev = queue_->pop();
    ++metrics_.events_processed;
    ES_CHECK(ev.t >= now - 1e-9, "event queue went backward in time");
    now = std::max(now, ev.t);
    ES_CHECK(now <= cfg_.max_sim_s, "cluster service hit the safety bound");
    switch (ev.payload.kind) {
      case Ev::kArrival: {
        const auto idx = static_cast<std::size_t>(ev.payload.a);
        states_[idx].last_change_s = now;
        tenant_active_[states_[idx].tenant_index].push_back(idx);
        tenant_demand_[states_[idx].tenant_index] += jobs_[idx].spec.max_p;
        if (cfg_.policy == AllocationPolicy::kGang) gang_queue_.push_back(idx);
        need_rebalance = true;
        break;
      }
      case Ev::kFinish: {
        const auto idx = static_cast<std::size_t>(ev.payload.a);
        JobState& js = states_[idx];
        if (js.done || js.gen != ev.payload.b) break;  // stale prediction
        finish_job(idx, now);
        const Tenant& tenant = tenants_[js.tenant_index];
        const double jct = now - jobs_[idx].spec.arrival_s;
        tier_jcts[static_cast<int>(tenant.tier)].push_back(jct);
        // SLA verdict against the uncontended ideal.
        if (ideal[idx] < 0.0) {
          sched::GpuVector g{};
          g[static_cast<std::size_t>(js.type_order[0])] =
              js.companion->max_p();
          const sched::Plan p = js.companion->make_plan(g);
          ideal[idx] = static_cast<double>(jobs_[idx].spec.total_steps) /
                       p.steps_per_second;
        }
        const double stretch =
            tenant.tier == SlaTier::kGuaranteed ? cfg_.sla_stretch_guaranteed
            : tenant.tier == SlaTier::kBurst    ? cfg_.sla_stretch_burst
                                                : cfg_.sla_stretch_spot;
        if (jct <= stretch * ideal[idx] + cfg_.sla_slack_s) {
          ++metrics_.per_tier[static_cast<int>(tenant.tier)].sla_attained;
        }
        ++done;
        need_rebalance = true;
        break;
      }
      case Ev::kCapacity: {
        const CapacityStep& step =
            capacity_steps_[static_cast<std::size_t>(ev.payload.a)];
        healthy_ = step.healthy;
        degraded_ = step.degraded;
        degrade_penalty_ = step.penalty;
        need_rebalance = true;
        break;
      }
    }
    // Coalesce: drain every event at this timestamp before re-planning,
    // so a burst of same-time arrivals costs one allocator round.
    if (!queue_->empty() && queue_->peek().t <= now) continue;
    if (need_rebalance && done < jobs_.size()) {
      rebalance(now);
      need_rebalance = false;
    }
    if (done == jobs_.size()) break;  // drained; remaining events are moot
  }
  ES_CHECK(done == jobs_.size(), "cluster service finished with "
                                     << jobs_.size() - done
                                     << " job(s) unfinished");

  metrics_.makespan = now;
  for (int t = 0; t < 3; ++t) {
    auto& m = metrics_.per_tier[t];
    m.jct_p50 = percentile(tier_jcts[t], 50.0);
    m.jct_p90 = percentile(tier_jcts[t], 90.0);
    m.jct_p99 = percentile(tier_jcts[t], 99.0);
  }
  std::vector<double> normalized;
  for (const auto& tm : metrics_.per_tenant) {
    if (tm.finished > 0 && tm.weight > 0.0) {
      normalized.push_back(tm.gpu_seconds / tm.weight);
    }
  }
  metrics_.fairness = jain_index(normalized);
  metrics_.plan_cache_hits = cache_.hits();
  metrics_.plan_cache_misses = cache_.misses();
  metrics_.schedule_digest = digest_;
  return metrics_;
}

void ClusterService::rebalance(double now) {
  ++metrics_.reallocations;
  switch (cfg_.policy) {
    case AllocationPolicy::kFairShare: rebalance_fair_share(now); break;
    case AllocationPolicy::kGreedy: rebalance_greedy(now); break;
    case AllocationPolicy::kGang: rebalance_gang(now); break;
  }
  auto& timeline = metrics_.allocated_gpus;
  if (timeline.empty() ? allocated_ != 0 : timeline.back().gpus != allocated_) {
    timeline.push_back({now, allocated_});
  }
}

void ClusterService::install(const std::vector<std::size_t>& order,
                             const std::vector<sched::GpuVector>& mixes,
                             double now) {
  sched::GpuVector healthy_free = healthy_;
  for (std::size_t k = 0; k < order.size(); ++k) {
    sched::GpuVector degr{};
    for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
      const std::int64_t from_healthy =
          std::min(mixes[k][ty], healthy_free[ty]);
      healthy_free[ty] -= from_healthy;
      degr[ty] = mixes[k][ty] - from_healthy;
    }
    apply_plan(order[k], mixes[k], degr, now);
  }
}

void ClusterService::rebalance_greedy(double now) {
  const std::vector<std::size_t>& active = tenant_active_[0];
  sched::GpuVector free{};
  for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
    free[ty] = healthy_[ty] + degraded_[ty];
  }
  // Rebuild from scratch (an EasyScale scale event is a seconds-scale
  // checkpoint + restart): FIFO minimal starts on the best single GPU,
  // then every bit of growth through globally ranked proposals, which
  // doubles as migration off slow GPU types.
  std::vector<sched::Plan> plans(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) {
    const sched::Companion& companion = *states_[active[k]].companion;
    for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
      if (free[ty] <= 0) continue;
      sched::GpuVector one{};
      one[ty] = 1;
      const sched::Plan p = companion.make_plan(one);
      if (p.valid() && p.throughput > plans[k].throughput) plans[k] = p;
    }
    for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
      free[ty] -= plans[k].gpus[ty];
    }
  }
  sched::grow_greedily(
      active.size(), free,
      [&](std::size_t k, const sched::GpuVector& spare) {
        return plans[k].valid()
                   ? states_[active[k]].companion->proposals(
                         plans[k], spare, jobs_[active[k]].spec.allow_heter)
                   : std::vector<sched::Companion::Proposal>{};
      },
      [&](std::size_t k, const sched::Companion::Proposal& prop) {
        plans[k] = prop.plan;
      });
  std::vector<sched::GpuVector> mixes(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) mixes[k] = plans[k].gpus;
  install(active, mixes, now);
}

void ClusterService::rebalance_gang(double now) {
  const std::vector<std::size_t>& active = tenant_active_[0];
  sched::GpuVector free{};
  for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
    free[ty] = healthy_[ty] + degraded_[ty];
    for (std::size_t j : active) free[ty] -= states_[j].alloc[ty];
  }
  // A gang cannot shrink: while a type is over-subscribed, kill its most
  // recently started gang (ties toward the higher job id); it loses its
  // progress and rejoins the head of the queue.
  for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
    while (free[ty] < 0) {
      std::size_t victim = jobs_.size();
      for (std::size_t j : active) {
        if (states_[j].alloc[ty] == 0) continue;
        if (victim == jobs_.size() ||
            states_[j].start_s > states_[victim].start_s ||
            (states_[j].start_s == states_[victim].start_s &&
             jobs_[j].spec.id > jobs_[victim].spec.id)) {
          victim = j;
        }
      }
      JobState& js = states_[victim];
      for (std::size_t t = 0; t < sched::kNumDeviceTypes; ++t) {
        free[t] += js.alloc[t];
      }
      apply_plan(victim, sched::GpuVector{}, sched::GpuVector{}, now);
      const auto steps = static_cast<double>(jobs_[victim].spec.total_steps);
      metrics_.lost_steps +=
          static_cast<std::int64_t>(steps - js.remaining_steps);
      js.remaining_steps = steps;
      js.start_s = -1.0;  // the restart is a fresh gang
      ++metrics_.failed_jobs;
      gang_queue_.push_front(victim);
    }
  }
  // Strict FIFO admission: only the head of the queue may start.  Users
  // size gang requests to the partition, so a job never asks for more GPUs
  // of its type than the cluster owns.  Running gangs keep their GPUs (a
  // link-health change may still move them between the pools).
  std::vector<sched::GpuVector> mixes(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) {
    mixes[k] = states_[active[k]].alloc;
  }
  while (!gang_queue_.empty()) {
    const std::size_t idx = gang_queue_.front();
    const auto ty = static_cast<std::size_t>(jobs_[idx].spec.preferred_type);
    const std::int64_t want =
        std::min(jobs_[idx].spec.max_p, cfg_.capacity[ty]);
    if (free[ty] < want) break;
    free[ty] -= want;
    const auto pos = std::find(active.begin(), active.end(), idx);
    mixes[static_cast<std::size_t>(pos - active.begin())][ty] = want;
    gang_queue_.pop_front();
  }
  install(active, mixes, now);
}

void ClusterService::rebalance_fair_share(double now) {
  // 1. Tenant demand of the live jobs (kept up to date at arrivals and
  // finishes).
  requests_.clear();
  req_tenant_.clear();
  std::size_t live = 0;
  for (std::size_t ti = 0; ti < tenants_.size(); ++ti) {
    if (tenant_active_[ti].empty()) continue;
    ShareRequest r;
    r.tenant = tenants_[ti].id;
    r.tier = tenants_[ti].tier;
    r.quota = tenants_[ti].quota_gpus;
    r.weight = tenants_[ti].weight;
    r.demand = tenant_demand_[ti];
    requests_.push_back(r);
    req_tenant_.push_back(ti);
    live += tenant_active_[ti].size();
  }
  if (requests_.empty()) return;

  // 2. Tenant-level fair share of the whole pool (degraded GPUs are still
  // capacity, just slow), then FIFO distribution within each tenant:
  // every job gets one GPU first (no job starves behind a gang), the rest
  // grows jobs toward maxP in arrival order.  target_ holds one entry per
  // live job, request by request, in each tenant's FIFO order.
  const std::int64_t cap = sched::total(healthy_) + sched::total(degraded_);
  fair_share(requests_, cap, share_ws_, shares_);
  target_.assign(live, 0);
  for (std::size_t r = 0, base = 0; r < requests_.size(); ++r) {
    const auto& active = tenant_active_[req_tenant_[r]];
    std::int64_t* target = target_.data() + base;
    std::int64_t left = shares_[r];
    for (std::size_t k = 0; k < active.size() && left > 0; ++k) {
      target[k] = 1;
      --left;
    }
    for (std::size_t k = 0; k < active.size() && left > 0; ++k) {
      const std::int64_t grow =
          std::min(left, jobs_[active[k]].spec.max_p - target[k]);
      target[k] += grow;
      left -= grow;
    }
    base += active.size();
  }

  // 3. Placement.  Pass A: jobs whose GPU count is unchanged keep their
  // devices if the pools still contain them (stability — a freed V100
  // must not churn every running job).  Pass B: changed jobs place fresh,
  // preferring healthy GPUs of the fastest types; degraded-link pools
  // fill last (fault-aware placement), quarantined capacity is simply
  // absent from both pools.
  sched::GpuVector healthy_free = healthy_;
  sched::GpuVector degraded_free = degraded_;
  replace_.clear();
  for (std::size_t r = 0, base = 0; r < requests_.size(); ++r) {
    const auto& active = tenant_active_[req_tenant_[r]];
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t j = active[k];
      const std::int64_t target = target_[base + k];
      JobState& js = states_[j];
      if (target != sched::total(js.alloc) || target == 0) {
        if (target != 0) replace_.push_back({j, target});
        continue;
      }
      bool fits = true;
      for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
        if (js.alloc[ty] > healthy_free[ty] + degraded_free[ty]) fits = false;
      }
      if (!fits) {
        replace_.push_back({j, target});
        continue;
      }
      sched::GpuVector degr{};
      for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
        const std::int64_t from_healthy =
            std::min(js.alloc[ty], healthy_free[ty]);
        healthy_free[ty] -= from_healthy;
        degr[ty] = js.alloc[ty] - from_healthy;
        degraded_free[ty] -= degr[ty];
      }
      if (degr != js.degraded_alloc || sched::total(degr) > 0) {
        // Same device count but the link-health mix (or an active degrade
        // penalty) may have changed: rate-only update, no-op if equal.
        apply_plan(j, js.alloc, degr, now);
      }
    }
    base += active.size();
  }
  for (const auto& [j, target] : replace_) {
    JobState& js = states_[j];
    sched::GpuVector mix{}, degr{};
    std::int64_t want = target;
    if (jobs_[j].spec.allow_heter) {
      for (int oi = 0; oi < sched::kNumDeviceTypes && want > 0; ++oi) {
        const auto ty = static_cast<std::size_t>(js.type_order[oi]);
        const std::int64_t take = std::min(want, healthy_free[ty]);
        mix[ty] += take;
        healthy_free[ty] -= take;
        want -= take;
      }
      for (int oi = 0; oi < sched::kNumDeviceTypes && want > 0; ++oi) {
        const auto ty = static_cast<std::size_t>(js.type_order[oi]);
        const std::int64_t take = std::min(want, degraded_free[ty]);
        mix[ty] += take;
        degr[ty] += take;
        degraded_free[ty] -= take;
        want -= take;
      }
    } else {
      // Single-type jobs take the best type that can host the most GPUs.
      int best_ty = -1;
      std::int64_t best_count = 0;
      for (int oi = 0; oi < sched::kNumDeviceTypes; ++oi) {
        const auto ty = static_cast<std::size_t>(js.type_order[oi]);
        const std::int64_t can =
            std::min(want, healthy_free[ty] + degraded_free[ty]);
        if (can > best_count) {
          best_count = can;
          best_ty = static_cast<int>(ty);
        }
      }
      if (best_ty >= 0) {
        const auto ty = static_cast<std::size_t>(best_ty);
        const std::int64_t from_healthy =
            std::min(best_count, healthy_free[ty]);
        mix[ty] = best_count;
        degr[ty] = best_count - from_healthy;
        healthy_free[ty] -= from_healthy;
        degraded_free[ty] -= degr[ty];
      }
    }
    apply_plan(j, mix, degr, now);
  }
  // Jobs squeezed to zero release everything (they stay queued, never
  // killed — the elastic pause).
  for (std::size_t r = 0, base = 0; r < requests_.size(); ++r) {
    const auto& active = tenant_active_[req_tenant_[r]];
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t j = active[k];
      if (target_[base + k] == 0 && sched::total(states_[j].alloc) > 0) {
        apply_plan(j, sched::GpuVector{}, sched::GpuVector{}, now);
      }
    }
    base += active.size();
  }
}

void ClusterService::apply_plan(std::size_t idx, const sched::GpuVector& mix,
                                const sched::GpuVector& degr, double now) {
  JobState& js = states_[idx];
  const std::int64_t old_count = sched::total(js.alloc);
  const std::int64_t new_count = sched::total(mix);
  // Penalty factor first: the degraded share of the allocation loses
  // `penalty` of its contribution.
  double factor = 1.0;
  if (new_count > 0) {
    double lost = 0.0;
    for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
      lost += static_cast<double>(degr[ty]) * degrade_penalty_[ty];
    }
    factor = 1.0 - lost / static_cast<double>(new_count);
  }
  double new_rate = 0.0;
  if (new_count > 0) {
    const sched::Plan plan = js.companion->make_plan(mix);
    ES_CHECK(plan.valid(), "placement produced an invalid plan");
    new_rate = plan.steps_per_second * factor;
  }
  if (mix == js.alloc && degr == js.degraded_alloc && new_rate == js.rate) {
    return;  // nothing changed; keep the in-flight finish prediction
  }
  settle(js, now);
  allocated_ += new_count - old_count;
  js.alloc = mix;
  js.degraded_alloc = degr;
  js.rate = new_rate;
  ++js.gen;
  if (new_count > 0 && js.start_s < 0.0) js.start_s = now;
  if (new_count < old_count) ++metrics_.preemptions;
  if (js.rate > 0.0 && js.remaining_steps > 0.0) {
    queue_->push(now + js.remaining_steps / js.rate,
                 Ev{Ev::kFinish, static_cast<std::int64_t>(idx), js.gen});
  }
  digest_ = fnv1a64(digest_, double_bits(now));
  digest_ = fnv1a64(digest_, static_cast<std::uint64_t>(jobs_[idx].spec.id));
  for (std::size_t ty = 0; ty < sched::kNumDeviceTypes; ++ty) {
    digest_ = fnv1a64(digest_, static_cast<std::uint64_t>(mix[ty]) ^
                                   (static_cast<std::uint64_t>(degr[ty]) << 32));
  }
}

}  // namespace easyscale::cluster
