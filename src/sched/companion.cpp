#include "sched/companion.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "models/profile.hpp"

namespace easyscale::sched {

void Plan::save(ByteWriter& w) const {
  for (const auto n : gpus) w.write(n);
  w.write_vector(ests);
  w.write(f_overload);
  w.write(waste);
  w.write(throughput);
  w.write(steps_per_second);
}

Plan Plan::load(ByteReader& r) {
  Plan plan;
  for (auto& n : plan.gpus) n = r.read<std::int64_t>();
  plan.ests = r.read_vector<std::int64_t>();
  plan.f_overload = r.read<double>();
  plan.waste = r.read<double>();
  plan.throughput = r.read<double>();
  plan.steps_per_second = r.read<double>();
  return plan;
}

std::string PlanCache::key(const std::string& workload, std::int64_t max_p,
                           const GpuVector& gpus, int shard_degree) {
  std::string k = workload;
  k.push_back('\0');
  k.append(reinterpret_cast<const char*>(&max_p), sizeof max_p);
  k.append(reinterpret_cast<const char*>(&shard_degree), sizeof shard_degree);
  k.append(reinterpret_cast<const char*>(gpus.data()),
           sizeof(gpus[0]) * gpus.size());
  return k;
}

const Plan* PlanCache::find(const std::string& workload, std::int64_t max_p,
                            const GpuVector& gpus, int shard_degree) {
  const auto it = plans_.find(key(workload, max_p, gpus, shard_degree));
  if (it == plans_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void PlanCache::insert(const std::string& workload, std::int64_t max_p,
                       const GpuVector& gpus, Plan plan, int shard_degree) {
  plans_.insert_or_assign(key(workload, max_p, gpus, shard_degree),
                          std::move(plan));
}

void PlanCache::clear() {
  plans_.clear();
  hits_ = 0;
  misses_ = 0;
}

void PlanCache::save(ByteWriter& w) const {
  w.write(kFormatVersion);
  w.write<std::uint64_t>(plans_.size());
  for (const auto& [k, plan] : plans_) {
    w.write_string(k);
    plan.save(w);
  }
}

std::size_t PlanCache::load(ByteReader& r) {
  const auto version = r.read<std::uint32_t>();
  if (version != kFormatVersion) {
    // Stale image: v1 keys lack shard_degree, so a v1 entry could answer a
    // lookup for the wrong degree.  Bypass everything; callers recompute.
    return 0;
  }
  const auto count = r.read<std::uint64_t>();
  std::size_t restored = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string k = r.read_string();
    plans_.insert_or_assign(std::move(k), Plan::load(r));
    ++restored;
  }
  return restored;
}

Companion::Companion(std::string workload, std::int64_t max_p)
    : workload_(std::move(workload)), max_p_(max_p) {
  ES_CHECK(max_p_ > 0, "maxP must be positive");
}

double Companion::capability(DeviceType type) const {
  return calibration_ * models::profiled_throughput(workload_, type);
}

Plan Companion::make_plan(const GpuVector& gpus) const {
  // Memoization is only sound at the default calibration: a recalibrated
  // companion's capabilities differ from every other job's, so it computes
  // directly and never pollutes the shared cache.
  if (cache_ == nullptr || calibration_ != 1.0) return compute_plan(gpus);
  if (const Plan* hit = cache_->find(workload_, max_p_, gpus, shard_degree_)) {
    return *hit;
  }
  Plan plan = compute_plan(gpus);
  cache_->insert(workload_, max_p_, gpus, plan, shard_degree_);
  return plan;
}

Plan Companion::spread_plan(const GpuVector& gpus) const {
  return total(gpus) == max_p_ ? compute_plan(gpus, true) : Plan{};
}

Plan Companion::compute_plan(const GpuVector& gpus, bool one_per_gpu) const {
  Plan plan;
  plan.gpus = gpus;
  const std::int64_t n_gpus = total(gpus);
  if (n_gpus == 0) return plan;
  // Expand GPU list (grouped by type) with capabilities.
  std::vector<double> caps;
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    for (std::int64_t i = 0; i < gpus[static_cast<std::size_t>(t)]; ++i) {
      caps.push_back(capability(static_cast<DeviceType>(t)));
    }
  }
  plan.ests.assign(caps.size(), 0);
  // Every GPU in the plan must host at least one EST (idle GPUs would be
  // pure waste); refuse plans with more GPUs than ESTs.
  if (n_gpus > max_p_) return Plan{};
  if (one_per_gpu) plan.ests.assign(caps.size(), 1);
  // Greedy: place each EST on the GPU with the lowest resulting step time.
  for (std::int64_t e = 0; !one_per_gpu && e < max_p_; ++e) {
    std::size_t best = 0;
    double best_time = 1e300;
    for (std::size_t g = 0; g < caps.size(); ++g) {
      const double t = static_cast<double>(plan.ests[g] + 1) / caps[g];
      if (t < best_time) {
        best_time = t;
        best = g;
      }
    }
    ++plan.ests[best];
  }
  // Eq. (1b): the slowest GPU gates the global step.
  plan.f_overload = 0.0;
  for (std::size_t g = 0; g < caps.size(); ++g) {
    plan.f_overload = std::max(
        plan.f_overload, static_cast<double>(plan.ests[g]) / caps[g]);
  }
  // Eq. (1c): stranded capability.  nEST == maxP here (no over-provision
  // term; EST count is fixed at model design time).
  plan.waste = 0.0;
  double agg = 0.0;
  for (std::size_t g = 0; g < caps.size(); ++g) {
    agg += caps[g];
    plan.waste +=
        caps[g] - static_cast<double>(plan.ests[g]) / plan.f_overload;
  }
  plan.throughput = agg - plan.waste;  // Eq. (1d)
  plan.steps_per_second = 1.0 / plan.f_overload;
  return plan;
}

Plan Companion::best_plan(const GpuVector& available, bool allow_heter) const {
  Plan best;
  if (!allow_heter) {
    // Single-type plans: for each type, the best GPU count.
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      const std::int64_t avail = available[static_cast<std::size_t>(t)];
      const std::int64_t cap = std::min<std::int64_t>(avail, max_p_);
      for (std::int64_t n = 1; n <= cap; ++n) {
        GpuVector g{};
        g[static_cast<std::size_t>(t)] = n;
        const Plan p = make_plan(g);
        if (p.valid() && p.throughput > best.throughput) best = p;
      }
    }
    return best;
  }
  // Greedy constructive over mixed types.  Each round adds the single GPU
  // whose plan evaluates best and keeps walking through throughput
  // plateaus (e.g. 2 -> 3 V100 may not help but 4 does); the best plan
  // seen anywhere along the walk is returned, ties resolved toward fewer
  // GPUs / less waste.
  GpuVector chosen{};
  while (total(chosen) < std::min<std::int64_t>(max_p_, total(available))) {
    Plan round_best;
    int round_type = -1;
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      if (chosen[static_cast<std::size_t>(t)] >=
          available[static_cast<std::size_t>(t)]) {
        continue;
      }
      GpuVector trial = chosen;
      ++trial[static_cast<std::size_t>(t)];
      const Plan p = make_plan(trial);
      if (!p.valid()) continue;
      if (round_type < 0 || p.throughput > round_best.throughput ||
          (p.throughput == round_best.throughput &&
           p.waste < round_best.waste)) {
        round_best = p;
        round_type = t;
      }
    }
    if (round_type < 0) break;
    ++chosen[static_cast<std::size_t>(round_type)];
    if (!best.valid() || round_best.throughput > best.throughput) {
      best = round_best;
    }
  }
  return best;
}

std::vector<Companion::Proposal> Companion::proposals(
    const Plan& current, const GpuVector& available, bool allow_heter,
    std::size_t top_k) const {
  std::vector<Proposal> out;
  const double base_tp = current.valid() ? current.throughput : 0.0;
  // Incremental options: +1 / +2 / +4 GPUs of each type (homogeneous
  // increments, §3.4 "scale out with incremental homogeneous GPUs").
  for (int t = 0; t < kNumDeviceTypes; ++t) {
    if (!allow_heter && current.valid()) {
      // Homo jobs may only grow in the type they already use.
      bool uses_type = current.gpus[static_cast<std::size_t>(t)] > 0;
      if (!uses_type && total(current.gpus) > 0) continue;
    }
    for (std::int64_t inc : {1, 2, 4}) {
      if (available[static_cast<std::size_t>(t)] < inc) continue;
      GpuVector trial = current.gpus;
      trial[static_cast<std::size_t>(t)] += inc;
      const Plan p = make_plan(trial);
      if (!p.valid()) continue;
      if (base_tp > 0.0 && p.throughput <= base_tp) continue;
      Proposal prop;
      prop.extra_gpus = GpuVector{};
      prop.extra_gpus[static_cast<std::size_t>(t)] = inc;
      prop.plan = p;
      prop.speedup = base_tp > 0.0 ? p.throughput / base_tp : 1e9;
      prop.gpu_count = inc;
      out.push_back(prop);
    }
  }
  std::sort(out.begin(), out.end(), [](const Proposal& a, const Proposal& b) {
    if (a.speedup_per_gpu() != b.speedup_per_gpu()) {
      return a.speedup_per_gpu() > b.speedup_per_gpu();
    }
    return a.gpu_count > b.gpu_count;
  });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

int grow_greedily(
    std::size_t num_jobs, GpuVector& free,
    const std::function<std::vector<Companion::Proposal>(
        std::size_t, const GpuVector&)>& propose,
    const std::function<void(std::size_t, const Companion::Proposal&)>&
        accept) {
  int accepted = 0;
  for (;;) {
    std::size_t best_job = num_jobs;
    Companion::Proposal best;
    for (std::size_t i = 0; i < num_jobs; ++i) {
      for (auto& prop : propose(i, free)) {
        if (best_job == num_jobs ||
            prop.speedup_per_gpu() > best.speedup_per_gpu() ||
            (prop.speedup_per_gpu() == best.speedup_per_gpu() &&
             prop.gpu_count > best.gpu_count)) {
          best_job = i;
          best = std::move(prop);
        }
      }
    }
    if (best_job == num_jobs) break;
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      if (best.extra_gpus[static_cast<std::size_t>(t)] >
          free[static_cast<std::size_t>(t)]) {
        return accepted;
      }
    }
    for (int t = 0; t < kNumDeviceTypes; ++t) {
      free[static_cast<std::size_t>(t)] -=
          best.extra_gpus[static_cast<std::size_t>(t)];
    }
    accept(best_job, best);
    ++accepted;
  }
  return accepted;
}

void Companion::report_throughput(const Plan& plan, double observed_mbps) {
  if (!plan.valid() || plan.throughput <= 0.0) return;
  const double ratio = observed_mbps / plan.throughput;
  if (ratio < 0.8 || ratio > 1.2) {
    calibration_ *= ratio;
  }
}

}  // namespace easyscale::sched
