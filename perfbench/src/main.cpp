// perfbench: one workload of the repo benchmark per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--commit <id>]
//
// Prints a context line ("# context {...}") and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}.  Exit code
// 0 only when every correctness gate held; 2 for a refused environment or
// bad arguments.  perfbench/run.py builds this binary and validates the
// result line against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "harness.hpp"
#include "kernels/simd.hpp"

namespace {

using namespace perfbench;

struct NamedWorkload {
  const char* name;
  WorkloadFn run;
};
constexpr NamedWorkload kWorkloads[] = {
    {"est_conv", run_est_conv},
    {"est_elastic_bert", run_est_elastic_bert},
    {"zero1_neumf", run_zero1_neumf},
    {"cluster_week", run_cluster_week},
};

// Process-wide overrides that would change the code being measured (thread
// count, SIMD backend, bucket layout, replication) or let a debug build
// through.  The benchmark pins all of them itself, so an ambient export is
// refused rather than silently measured.
constexpr const char* kPinnedEnv[] = {
    "EASYSCALE_THREADS", "EASYSCALE_SIMD", "EASYSCALE_BUCKET_CAP",
    "EASYSCALE_PEER_REPLICAS", "EASYSCALE_BENCH_ALLOW_DEBUG"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out F] [--commit ID]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv, std::string* commit) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0 && opts.seconds <= 600.0)) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opts.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else if (arg == "--commit") {
      *commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const Options opts = parse(argc, argv, &commit);
  WorkloadFn run = nullptr;
  for (const auto& w : kWorkloads) {
    if (opts.workload == w.name) run = w.run;
  }
  if (run == nullptr) usage(("unknown workload '" + opts.workload + "'").c_str());

  for (const char* name : kPinnedEnv) {
    const char* value = std::getenv(name);
    if (value != nullptr) {
      std::fprintf(stderr,
                   "perfbench: REFUSED: %s=%s is set; the benchmark pins it "
                   "and measures only the pinned configuration — unset it\n",
                   name, value);
      return 2;
    }
  }
  if (!easyscale::bench::guard_release_build("the perfbench result")) return 2;

  std::printf(
      "# context {\"build_type\": \"%s\", \"simd\": \"%s\", "
      "\"compute_threads\": %d, \"nproc\": %u, \"commit\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      easyscale::bench::build_type(),
      easyscale::kernels::simd_backend_name(
          easyscale::kernels::detected_simd_backend()),
      kComputeThreads, std::thread::hardware_concurrency(), commit.c_str(),
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);

  Report report(opts.trace);
  Tracer tracer;
  Outcome outcome;
  try {
    run(opts, tracer, report, outcome);
    report.set("failed_share", static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted));
    if (opts.trace && !opts.trace_out.empty()) {
      tracer.write_chrome_json(opts.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("%s\n",
              report.json(correct, outcome.attempted, outcome.failed).c_str());
  return correct ? 0 : 1;
}
