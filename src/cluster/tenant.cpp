#include "cluster/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "rng/philox.hpp"

namespace easyscale::cluster {

namespace {

/// Workload mix cycled through submissions (same population as the
/// Philly-like trace; conv models are D2-restricted, §3.3).
struct TraceWorkload {
  const char* name;
  bool allow_heter;
};
constexpr TraceWorkload kWorkloads[] = {
    {"ShuffleNetv2", false}, {"ResNet50", false},       {"VGG19", false},
    {"YOLOv3", false},       {"NeuMF", true},           {"Bert", true},
    {"Electra", true},       {"SwinTransformer", true},
};
constexpr std::int64_t kMaxPOptions[] = {2, 4, 8, 16};

[[nodiscard]] SlaTier parse_tier(const std::string& s) {
  if (s == "guaranteed") return SlaTier::kGuaranteed;
  if (s == "burst") return SlaTier::kBurst;
  if (s == "spot") return SlaTier::kSpot;
  ES_CHECK(false, "unknown SLA tier '" << s << "'");
  return SlaTier::kSpot;
}

}  // namespace

const char* tier_name(SlaTier tier) {
  switch (tier) {
    case SlaTier::kGuaranteed: return "guaranteed";
    case SlaTier::kBurst: return "burst";
    case SlaTier::kSpot: return "spot";
  }
  return "?";
}

std::vector<ClusterJob> single_tenant_jobs(
    const std::vector<sim::JobSpec>& specs, bool heter) {
  std::vector<ClusterJob> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) {
    jobs.push_back({spec, 0});
    jobs.back().spec.allow_heter = heter && spec.allow_heter;
  }
  return jobs;
}

std::vector<Tenant> make_tenants(std::int64_t num_tenants,
                                 std::int64_t cluster_gpus,
                                 std::uint64_t seed) {
  ES_CHECK(num_tenants > 0, "need at least one tenant");
  ES_CHECK(cluster_gpus > 0, "cluster must have GPUs");
  rng::Philox gen(seed);
  std::vector<Tenant> tenants;
  tenants.reserve(static_cast<std::size_t>(num_tenants));
  // Tier mix of a production fleet: a few big guaranteed tenants, a broad
  // burst middle class, and a spot tail.  Quotas sum to ~60% of the
  // cluster so surplus capacity exists for burst/spot to compete over.
  const double quota_pool = 0.6 * static_cast<double>(cluster_gpus);
  double weight_sum = 0.0;
  std::vector<double> raw_weights;
  for (std::int64_t i = 0; i < num_tenants; ++i) {
    // Zipf-ish size: tenant rank r gets weight 1/(r+1), shuffled by seed.
    raw_weights.push_back(1.0 / (1.0 + gen.next_double() * 9.0));
    weight_sum += raw_weights.back();
  }
  for (std::int64_t i = 0; i < num_tenants; ++i) {
    Tenant t;
    t.id = i;
    t.name = "tenant-" + std::to_string(i);
    t.tier = i % 3 == 0 ? SlaTier::kGuaranteed
                        : (i % 3 == 1 ? SlaTier::kBurst : SlaTier::kSpot);
    t.weight = raw_weights[static_cast<std::size_t>(i)];
    if (t.tier != SlaTier::kSpot) {
      t.quota_gpus = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(quota_pool * t.weight / weight_sum));
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

std::vector<ClusterJob> tenant_trace(const std::vector<Tenant>& tenants,
                                     const TenantTraceConfig& cfg) {
  ES_CHECK(!tenants.empty(), "tenant_trace needs tenants");
  ES_CHECK(cfg.horizon_s > 0.0, "horizon must be positive");
  ES_CHECK(cfg.peak_jobs_per_tenant_day > 0.0, "arrival rate must be positive");

  // The Fig-1 diurnal curve, normalized to [0, 1] as a thinning envelope:
  // submissions are dense where serving traffic (people) is awake.
  trace::ServingLoadConfig serving = cfg.serving;
  serving.minutes = std::max<std::int64_t>(
      1440, static_cast<std::int64_t>(cfg.horizon_s / 60.0) + 1);
  const auto curve = trace::serving_load_curve(serving);
  std::int64_t peak = 1;
  for (auto v : curve) peak = std::max(peak, v);

  // Per-tenant streams are independently seeded, so generation order (and
  // thread count) cannot change the draw sequence of any stream.
  std::vector<std::vector<ClusterJob>> per_tenant(tenants.size());
  const int ways =
      cfg.threads > 0 ? cfg.threads : ComputePool::env_default_threads();
  ComputePool::global().parallel_for(
      ways, static_cast<std::int64_t>(tenants.size()), 1,
      [&](int /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t ti = begin; ti < end; ++ti) {
          const Tenant& tenant = tenants[static_cast<std::size_t>(ti)];
          rng::Philox gen(cfg.seed ^
                          (0x9E3779B97F4A7C15ull *
                           static_cast<std::uint64_t>(tenant.id + 1)));
          auto& out = per_tenant[static_cast<std::size_t>(ti)];
          // Thinned Poisson: candidates at the peak rate, each kept with
          // probability curve(t)/peak.
          const double peak_rate_s =
              cfg.peak_jobs_per_tenant_day / 86400.0;
          double t = 0.0;
          for (;;) {
            t += -std::log(1.0 - gen.next_double()) / peak_rate_s;
            if (t >= cfg.horizon_s) break;
            const auto minute = static_cast<std::size_t>(t / 60.0);
            const double keep =
                static_cast<double>(curve[std::min(minute, curve.size() - 1)]) /
                static_cast<double>(peak);
            if (gen.next_double() >= keep) continue;
            ClusterJob job;
            job.tenant = tenant.id;
            const auto& w = kWorkloads[gen.next_below(std::size(kWorkloads))];
            job.spec.workload = w.name;
            job.spec.allow_heter = w.allow_heter;
            job.spec.max_p =
                kMaxPOptions[gen.next_below(std::size(kMaxPOptions))];
            job.spec.arrival_s = t;
            const double steps = std::exp(cfg.runtime_mu +
                                          cfg.runtime_sigma * gen.next_normal());
            job.spec.total_steps = std::clamp(
                static_cast<std::int64_t>(steps), cfg.min_steps, cfg.max_steps);
            out.push_back(std::move(job));
          }
        }
      });

  std::vector<ClusterJob> jobs;
  for (auto& stream : per_tenant) {
    for (auto& j : stream) jobs.push_back(std::move(j));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const ClusterJob& a, const ClusterJob& b) {
              if (a.spec.arrival_s != b.spec.arrival_s) {
                return a.spec.arrival_s < b.spec.arrival_s;
              }
              return a.tenant < b.tenant;
            });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].spec.id = static_cast<std::int64_t>(i);
  }
  return jobs;
}

void save_trace_tsv(const std::string& path,
                    const std::vector<Tenant>& tenants,
                    const std::vector<ClusterJob>& jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ES_CHECK(f != nullptr, "cannot write trace file " << path);
  std::fprintf(f, "# easyscale cluster trace v1\n");
  for (const auto& t : tenants) {
    std::fprintf(f, "tenant\t%lld\t%s\t%s\t%lld\t%.9f\n",
                 static_cast<long long>(t.id), t.name.c_str(),
                 tier_name(t.tier), static_cast<long long>(t.quota_gpus),
                 t.weight);
  }
  for (const auto& j : jobs) {
    std::fprintf(f, "job\t%lld\t%lld\t%s\t%lld\t%.9f\t%lld\t%d\n",
                 static_cast<long long>(j.spec.id),
                 static_cast<long long>(j.tenant), j.spec.workload.c_str(),
                 static_cast<long long>(j.spec.max_p), j.spec.arrival_s,
                 static_cast<long long>(j.spec.total_steps),
                 j.spec.allow_heter ? 1 : 0);
  }
  std::fclose(f);
}

std::vector<ClusterJob> load_trace_tsv(const std::string& path,
                                       std::vector<Tenant>* tenants) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  ES_CHECK(f != nullptr, "cannot read trace file " << path);
  std::vector<ClusterJob> jobs;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n' || line[0] == '\0') continue;
    char kind[16], name[128], tier[16];
    if (std::strncmp(line, "tenant\t", 7) == 0) {
      Tenant t;
      long long id = 0, quota = 0;
      const int n = std::sscanf(line, "%15s %lld %127s %15s %lld %lf", kind,
                                &id, name, tier, &quota, &t.weight);
      ES_CHECK(n == 6, "malformed tenant line in " << path);
      t.id = id;
      t.name = name;
      t.tier = parse_tier(tier);
      t.quota_gpus = quota;
      if (tenants != nullptr) tenants->push_back(std::move(t));
    } else if (std::strncmp(line, "job\t", 4) == 0) {
      ClusterJob j;
      long long id = 0, tenant = 0, max_p = 0, steps = 0;
      int heter = 0;
      const int n =
          std::sscanf(line, "%15s %lld %lld %127s %lld %lf %lld %d", kind, &id,
                      &tenant, name, &max_p, &j.spec.arrival_s, &steps, &heter);
      ES_CHECK(n == 8, "malformed job line in " << path);
      j.spec.id = id;
      j.tenant = tenant;
      j.spec.workload = name;
      j.spec.max_p = max_p;
      j.spec.total_steps = steps;
      j.spec.allow_heter = heter != 0;
      jobs.push_back(std::move(j));
    } else {
      ES_CHECK(false, "unknown record in trace file " << path);
    }
  }
  std::fclose(f);
  return jobs;
}

}  // namespace easyscale::cluster
