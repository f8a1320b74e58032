#include "cluster/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common/error.hpp"

namespace easyscale::cluster {

double percentile(std::vector<double> sample, double p) {
  ES_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range");
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  return sample[rank > 0 ? rank - 1 : 0];
}

double ClusterMetrics::mean_jct() const {
  double sum = 0.0;
  for (const auto& tm : per_tenant) sum += tm.jct_sum;
  return jobs_finished > 0 ? sum / static_cast<double>(jobs_finished) : 0.0;
}

double ClusterMetrics::mean_allocated_gpus() const {
  if (makespan <= 0.0) return 0.0;
  double area = 0.0;
  for (std::size_t i = 0; i < allocated_gpus.size(); ++i) {
    const double end = i + 1 < allocated_gpus.size()
                           ? allocated_gpus[i + 1].t_s
                           : makespan;
    area += static_cast<double>(allocated_gpus[i].gpus) *
            (end - allocated_gpus[i].t_s);
  }
  return area / makespan;
}

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string ClusterMetrics::to_json(double wall_s) const {
  std::string j;
  j += "{\n";
  append(j, "  \"makespan_s\": %.9f,\n", makespan);
  append(j, "  \"jobs_finished\": %lld,\n",
         static_cast<long long>(jobs_finished));
  append(j, "  \"preemptions\": %lld,\n", static_cast<long long>(preemptions));
  append(j, "  \"reallocations\": %lld,\n",
         static_cast<long long>(reallocations));
  append(j, "  \"events_processed\": %lld,\n",
         static_cast<long long>(events_processed));
  append(j, "  \"plan_cache_hits\": %lld,\n",
         static_cast<long long>(plan_cache_hits));
  append(j, "  \"plan_cache_misses\": %lld,\n",
         static_cast<long long>(plan_cache_misses));
  append(j, "  \"fairness_jain\": %.9f,\n", fairness);
  append(j, "  \"schedule_digest\": \"%016llx\",\n",
         static_cast<unsigned long long>(schedule_digest));
  if (wall_s >= 0.0) {
    append(j, "  \"wall_s\": %.9f,\n", wall_s);
    append(j, "  \"events_per_second\": %.3f,\n",
           wall_s > 0.0 ? static_cast<double>(events_processed) / wall_s : 0.0);
  }
  j += "  \"tiers\": {\n";
  for (int t = 0; t < 3; ++t) {
    const TierMetrics& m = per_tier[t];
    append(j,
           "    \"%s\": {\"finished\": %lld, \"sla_attainment\": %.9f, "
           "\"jct_p50_s\": %.9f, \"jct_p90_s\": %.9f, \"jct_p99_s\": %.9f}%s\n",
           tier_name(static_cast<SlaTier>(t)),
           static_cast<long long>(m.finished), m.attainment(), m.jct_p50,
           m.jct_p90, m.jct_p99, t < 2 ? "," : "");
  }
  j += "  },\n  \"tenants\": [\n";
  for (std::size_t i = 0; i < per_tenant.size(); ++i) {
    const TenantMetrics& m = per_tenant[i];
    append(j,
           "    {\"tenant\": %lld, \"tier\": \"%s\", \"finished\": %lld, "
           "\"gpu_seconds\": %.9f, \"avg_jct_s\": %.9f}%s\n",
           static_cast<long long>(m.tenant), tier_name(m.tier),
           static_cast<long long>(m.finished), m.gpu_seconds,
           m.finished > 0 ? m.jct_sum / static_cast<double>(m.finished) : 0.0,
           i + 1 < per_tenant.size() ? "," : "");
  }
  j += "  ]\n}\n";
  return j;
}

}  // namespace easyscale::cluster
