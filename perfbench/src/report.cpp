// Metric tables, the result line, the span tracer and timing statistics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by untraced runs (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"work_per_s", "1/s"},
    {"step_ms_p10", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by traced runs (BENCHMARK.json "per_layer").  Every workload
// prints every name; a layer the workload never calls reads 0.
constexpr MetricDef kPerLayer[] = {
    {"step_ms_p50", "ms"},
    {"step_ms_p95", "ms"},
    {"nn.fwd_bwd_ms", "ms"},
    {"nn.fwd_ms", "ms"},
    {"kernels.gemm.calls", "count"},
    {"kernels.gemm.out_mb", "MB"},
    {"kernels.conv.calls", "count"},
    {"kernels.conv.out_mb", "MB"},
    {"kernels.reduce.calls", "count"},
    {"kernels.reduce.out_mb", "MB"},
    {"kernels.scatter.calls", "count"},
    {"kernels.scatter.out_mb", "MB"},
    {"data.batch_ms", "ms"},
    {"core.context_switches", "count"},
    {"core.swap_mb", "MB"},
    {"core.checkpoint_ms", "ms"},
    {"core.restore_ms", "ms"},
    {"core.checkpoint_mb", "MB"},
    {"rescale_ms_p50", "ms"},
    {"comm.buckets", "count"},
    {"comm.allreduce_ms", "ms"},
    {"comm.overlap.compute_ms", "ms"},
    {"comm.overlap.comm_busy_ms", "ms"},
    {"comm.overlap.drain_wait_ms", "ms"},
    {"comm.overlap.frac", "share"},
    {"comm.bytes_per_step", "B"},
    {"comm.messages_per_step", "count"},
    {"comm.fabric_ms_per_step", "ms"},
    {"comm.retries", "count"},
    {"optim.step_ms", "ms"},
    {"optim.step_slices_ms", "ms"},
    {"parallel.reduce_scatter_ms", "ms"},
    {"parallel.all_gather_ms", "ms"},
    {"parallel.reshard_ms", "ms"},
    {"parallel.ckpt_mb", "MB"},
    {"ckpt_ms_p50", "ms"},
    {"cluster.events", "count"},
    {"cluster.reallocations", "count"},
    {"cluster.preemptions", "count"},
    {"cluster.fair_share_us", "us"},
    {"cluster.trace_gen_s", "s"},
    {"sched.plan_cache.hit_ratio", "share"},
    {"sched.best_plan_us", "us"},
    {"sim_jct_p50_s", "s"},
    {"sla_attained_share", "share"},
    {"failed_share", "share"},
    {"trace.coverage", "share"},
    {"trace.overhead_share", "share"},
};

}  // namespace

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (sample[hi] - sample[lo]) * (pos - static_cast<double>(lo));
}

double Meter::quiet_work_per_s() const {
  double ms_per_step = percentile(step_ms_, kQuietPercentile);
  for (const auto& [kind, k] : events_) {
    ms_per_step += percentile(k.ms, kQuietPercentile) /
                   static_cast<double>(k.every);
  }
  return static_cast<double>(work_) / static_cast<double>(steps()) /
         (ms_per_step / 1e3);
}

double report_steps(Report& report, const Meter& plain, const Meter* traced,
                    const SetupTimes& setups) {
  const double p50 = median(plain.step_ms());
  report.set("work_per_s", plain.quiet_work_per_s());
  report.set("step_ms_p10", percentile(plain.step_ms(), kQuietPercentile));
  report.set("setup_s", setups.median_s());
  report.set("step_ms_p50", p50);
  report.set("step_ms_p95", percentile(plain.step_ms(), 95.0));
  if (traced != nullptr) {
    report.set("trace.overhead_share", median(traced->step_ms()) / p50 - 1.0);
  }
  return p50;
}

double peak_rss_mb() {
  // VmHWM belongs to this address space.  getrusage's ru_maxrss would also
  // count the launching process, whose high-water mark survives exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("perfbench: no /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("perfbench: VmHWM not reported");
  return static_cast<double>(kib) / 1024.0;
}

Report::Report(bool trace) {
  if (trace) {
    for (const auto& m : kPerLayer) entries_.push_back({m.name, m.unit, 0.0});
  } else {
    for (const auto& m : kEndToEnd) entries_.push_back({m.name, m.unit, 0.0});
  }
}

void Report::set(const std::string& name, double value) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  // Metrics of the other mode are computed but not printed.
  for (const auto& m : kEndToEnd) {
    if (name == m.name) return;
  }
  for (const auto& m : kPerLayer) {
    if (name == m.name) return;
  }
  throw std::logic_error("perfbench: unknown metric '" + name + "'");
}

std::string Report::json(bool correct, std::int64_t attempted,
                         std::int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    // Non-finite values print as null so the self-check rejects them
    // instead of the JSON parser.
    if (std::isfinite(e.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

Tracer::Tracer() : origin_s_(now_s()) {}

void Tracer::set_recording(bool on) {
  if (on && spans_.capacity() == 0) spans_.reserve(1 << 16);
  recording_ = on;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(s.dur_s * 1e3);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write trace " + path);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 i == 0 ? "" : ",\n", s.name, s.category,
                 (s.t0_s - origin_s_) * 1e6, s.dur_s * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot finish trace " + path);
  }
}

}  // namespace perfbench
