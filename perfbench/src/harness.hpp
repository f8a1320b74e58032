// Shared plumbing of the repo benchmark: options, the metric report, the
// in-memory span tracer and the timing statistics.  See ../README.md for
// what the workloads measure and how to read the output.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options; every input the workloads generate derives from
/// `seed`.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path (trace runs only)
};

/// Intra-op compute threads every workload runs with.  With the
/// communicator slot of the overlapped paths a run uses at most two
/// threads, so its figures do not depend on how many cores are spare.
inline constexpr int kComputeThreads = 1;

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> sample, double p);
[[nodiscard]] inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50.0);
}

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The percentile the quiet-host estimates take.  Co-tenants on the host
/// slow whole stretches of a run (see ../README.md, Noise); the 10th
/// percentile reads the program's own cost from the stretches they left
/// alone.
inline constexpr double kQuietPercentile = 10.0;

/// The peak resident set, read once after a fixed number of steps.  Read
/// at the end of a timed run it would grow with the number of steps the
/// host's speed allowed (step-time and loss histories).
class PeakRss {
 public:
  explicit PeakRss(std::int64_t at_step) : at_step_(at_step) {}
  void after_step(std::int64_t step) {
    if (step == at_step_) mb_ = peak_rss_mb();
  }
  /// Whether the reading has been taken.
  [[nodiscard]] bool taken() const { return mb_ >= 0.0; }
  /// The reading; taken now if the run ended before `at_step`.
  [[nodiscard]] double mb() const { return taken() ? mb_ : peak_rss_mb(); }

 private:
  std::int64_t at_step_;
  double mb_ = -1.0;
};

/// Busy-time accounting of one kind of step.  A run measures until the
/// timed calls (steps and scale events) add up to `seconds`; work outside
/// them, such as reading stats, is not counted.
class Meter {
 public:
  // The reservation is address space only: pages become resident as steps
  // are recorded.
  explicit Meter(double seconds) : seconds_(seconds) {
    step_ms_.reserve(std::size_t{1} << 22);
  }

  [[nodiscard]] bool running() const { return busy_s_ < seconds_; }

  /// One step of `dur_s` seconds that completed `work` units.
  void step(double dur_s, std::int64_t work) {
    step_ms_.push_back(dur_s * 1e3);
    busy_s_ += dur_s;
    work_ += work;
  }
  /// One scale event (rescale, reshard, checkpoint) of `dur_s` seconds, of
  /// a kind the workload runs once every `every` steps.
  void event(const std::string& kind, std::int64_t every, double dur_s) {
    auto& k = events_[kind];
    k.every = every;
    k.ms.push_back(dur_s * 1e3);
    busy_s_ += dur_s;
  }

  [[nodiscard]] const std::vector<double>& step_ms() const { return step_ms_; }
  [[nodiscard]] std::int64_t steps() const {
    return static_cast<std::int64_t>(step_ms_.size());
  }
  /// Work units per second on a quiet host: the work of one step over the
  /// quiet-host step time plus each event kind's quiet-host cost spread
  /// over its period.
  [[nodiscard]] double quiet_work_per_s() const;

 private:
  struct EventKind {
    std::int64_t every = 1;
    std::vector<double> ms;
  };
  double seconds_;
  double busy_s_ = 0.0;
  std::int64_t work_ = 0;
  std::vector<double> step_ms_;
  std::map<std::string, EventKind> events_;
};

/// Times kCount set-ups back to back before measuring: kCount - 1
/// throwaway ones, then the live one.  Nothing else is alive while a
/// throwaway is built, so the set-ups raise the peak resident set no higher
/// than the live set-up alone does.  `setup_s` is their median.
class SetupTimes {
 public:
  static constexpr int kCount = 15;

  /// `throwaway()` builds and drops one set-up; `live()` builds the one
  /// the run measures.
  template <typename Throwaway, typename Live>
  SetupTimes(Throwaway&& throwaway, Live&& live) {
    for (int i = 1; i < kCount; ++i) time(throwaway);
    time(live);
  }
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  template <typename Fn>
  void time(Fn& fn) {
    const double t0 = now_s();
    fn();
    times_.push_back(now_s() - t0);
  }
  std::vector<double> times_;
};

/// Metric values of one run.  The names and units are fixed up front (the
/// two tables in report.cpp, mirrored by BENCHMARK.json), every name starts
/// at 0 and set() on an unknown name throws, so a run always prints the
/// complete, duplicate-free set its mode promises.
class Report {
 public:
  explicit Report(bool trace);
  void set(const std::string& name, double value);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json(bool correct, std::int64_t attempted,
                                 std::int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// Spans kept in memory and written at exit as Chrome trace-event JSON
/// (viewable in Perfetto / chrome://tracing).  Spans are recorded only
/// while recording is on (trace runs); durations are returned either way,
/// so untraced and traced runs time one code path.
class Tracer {
 public:
  Tracer();

  void set_recording(bool on);

  /// Run `fn` and return its wall seconds; recorded as span `name`.
  template <typename Fn>
  double span(const char* name, const char* category, Fn&& fn) {
    const double t0 = now_s();
    fn();
    const double t1 = now_s();
    if (recording_) spans_.push_back({name, category, t0, t1 - t0});
    return t1 - t0;
  }

  /// Durations (ms) of every recorded span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Write the spans as {"traceEvents": [...]} complete ("X") events.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    double t0_s;
    double dur_s;
  };
  bool recording_ = false;
  double origin_s_;
  std::vector<Span> spans_;
};

/// Sets work_per_s, step_ms_p10, setup_s and the step percentiles from
/// the untraced steps; with the traced steps of a trace run (interleaved
/// with the untraced ones) also trace.overhead_share.  Returns the
/// untraced step_ms_p50.
double report_steps(Report& report, const Meter& plain, const Meter* traced,
                    const SetupTimes& setups);

/// Outcome counters behind the result line's correct/attempted/failed.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A workload body: fills `report`, counts checks in `outcome`, records
/// spans on `tracer` (traced runs).
using WorkloadFn = void (*)(const Options&, Tracer&, Report&, Outcome&);

void run_est_conv(const Options&, Tracer&, Report&, Outcome&);
void run_est_elastic_bert(const Options&, Tracer&, Report&, Outcome&);
void run_zero1_neumf(const Options&, Tracer&, Report&, Outcome&);
void run_cluster_week(const Options&, Tracer&, Report&, Outcome&);

}  // namespace perfbench
