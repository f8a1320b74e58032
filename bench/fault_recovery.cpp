// Fault recovery goodput (§2.1 / §5.3): the same NeuMF job supervised
// through Philox-sampled fault schedules of increasing intensity, under
// EasyScale's elastic scale-in and under the gang-restart baseline, and as
// a ZeRO-1 trainer (sharded optimizer state) under gang restart.
//
// For each failure rate the run executes REAL training (checkpoint,
// rollback, EST remap), so the elastic column also certifies bitwise
// consistency: every surviving run must end with the fault-free digest.
//
//   fault_recovery [--sdc-only]        run only the silent-data-corruption
//                                      section (a CI smoke entry point)
//   fault_recovery [--recovery-only]   run only the peer-vs-disk recovery
//                                      section (emits BENCH_recovery.json)
//   fault_recovery [--check-baseline <path>]...
//                                      additionally gate every row the run
//                                      produces (supervised elastic/gang/
//                                      comm/ZeRO-1/SDC rows and recovery
//                                      rows)
//                                      against checked-in baselines; may be
//                                      repeated, the files are searched
//                                      together
//   fault_recovery [--controller-only] run only the replicated-control-
//                                      plane section: failover latency and
//                                      decisions/s under leader crashes
//                                      and partitions, cross-checked
//                                      against the sim failover model
//                                      (emits BENCH_controller.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "fault/controller.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "kernels/device.hpp"
#include "models/datasets.hpp"
#include "models/profile.hpp"
#include "models/workload.hpp"
#include "sim/failover_model.hpp"
#include "sim/recovery_model.hpp"
#include "trace/generators.hpp"

namespace {

using namespace easyscale;

core::EasyScaleConfig job_config() {
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  return cfg;
}

struct Row {
  double fault_rate = 0.0;
  fault::GoodputStats stats;
  bool bitwise_ok = false;
};

/// Supervise `trainer` from 4 workers to the plan's horizon under its
/// seeded faults; the row is exact when the run survives on `clean`.
Row supervise(parallel::Trainer& trainer, double fault_rate,
              const fault::FaultPlanConfig& pcfg,
              const fault::SupervisorConfig& scfg, std::uint64_t clean,
              int keep = 3) {
  core::CheckpointManager mgr("/tmp/es_bench_fault_recovery", keep);
  mgr.clear();
  fault::FaultSupervisor sup(trainer, mgr,
                             fault::FaultInjector::from_config(pcfg), scfg);
  Row row;
  row.fault_rate = fault_rate;
  row.stats = sup.run_to(pcfg.horizon_steps, 4);
  row.bitwise_ok = !row.stats.failed && trainer.params_digest() == clean;
  mgr.clear();
  return row;
}

Row run_policy(models::WorkloadData& wd, fault::RecoveryPolicy policy,
               double fault_rate, std::int64_t steps, std::uint64_t clean) {
  core::EasyScaleEngine engine(job_config(), *wd.train, wd.augment);
  fault::FaultPlanConfig pcfg;
  pcfg.seed = 0xFA017;
  pcfg.horizon_steps = steps;
  pcfg.crash_rate = fault_rate * 0.4;
  pcfg.revocation_rate = fault_rate * 0.4;
  pcfg.torn_checkpoint_rate = fault_rate * 0.1;
  pcfg.straggler_rate = fault_rate * 0.1;
  fault::SupervisorConfig scfg;
  scfg.policy = policy;
  scfg.checkpoint_every = 4;
  return supervise(engine, fault_rate, pcfg, scfg, clean);
}

void print_row(const char* policy, const Row& r) {
  std::printf("%8s %8.2f %6lld %6lld %6lld %6lld %9.3f %10.4f %8s\n", policy,
              r.fault_rate, static_cast<long long>(r.stats.faults_seen),
              static_cast<long long>(r.stats.recoveries),
              static_cast<long long>(r.stats.scale_ins),
              static_cast<long long>(r.stats.lost_steps),
              r.stats.goodput_fraction(), r.stats.steps_per_second(),
              r.stats.failed ? "FAILED" : (r.bitwise_ok ? "exact" : "-"));
}

/// Exact-integer gate over the checked-in baselines.  Every fault plan is
/// seeded, so each row's integers are exact: a row's JSON line must appear
/// verbatim in the baseline text, keyed by its first field.  Any drift is a
/// behaviour change to review (and the baseline re-pinned on purpose).
struct BaselineGate {
  std::optional<std::string> text;  // concatenated --check-baseline files
  bool ok = true;

  bool load(const char* path) {
    std::FILE* b = std::fopen(path, "rb");
    if (b == nullptr) {
      std::printf("ERROR: cannot read baseline %s\n", path);
      return false;
    }
    if (!text.has_value()) text.emplace();
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), b)) > 0) text->append(buf, n);
    std::fclose(b);
    return true;
  }

  void check(const std::string& line) {
    if (!text.has_value()) return;
    const std::string key = line.substr(0, line.find(','));
    const std::size_t at = text->find(key);
    const std::string pinned =
        at == std::string::npos
            ? std::string()
            : text->substr(at, text->find('}', at) + 1 - at);
    if (pinned == line) return;
    ok = false;
    std::printf("BASELINE: %s\n  measured %s\n  baseline %s\n",
                pinned.empty() ? "row missing" : "row drifted", line.c_str(),
                pinned.empty() ? "-" : pinned.c_str());
  }
};

/// A supervised row's deterministic integers, as its baseline line.
std::string row_line(const char* section, const char* mode, const Row& r) {
  const auto& s = r.stats;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"row\": \"%s/%s/%.2f\", \"faults\": %lld, \"recoveries\": %lld, "
      "\"scale_ins\": %lld, \"lost_steps\": %lld, "
      "\"verified_checkpoints\": %lld, \"peer_recoveries\": %lld, "
      "\"disk_recoveries\": %lld, \"comm_retries\": %lld, "
      "\"sdc_detections\": %lld, \"failed\": %d, \"exact\": %d}",
      section, mode, r.fault_rate, static_cast<long long>(s.faults_seen),
      static_cast<long long>(s.recoveries),
      static_cast<long long>(s.scale_ins),
      static_cast<long long>(s.lost_steps),
      static_cast<long long>(s.verified_checkpoints),
      static_cast<long long>(s.peer_recoveries),
      static_cast<long long>(s.disk_recoveries),
      static_cast<long long>(s.comm_retries),
      static_cast<long long>(s.sdc_detections), s.failed ? 1 : 0,
      r.bitwise_ok ? 1 : 0);
  return buf;
}

struct RecoveryRow {
  std::string workload;
  double step_s = 0.0;
  sim::RecoveryModelResult result;
};

/// Peer-quorum vs disk-only recovery under the per-GPU MTBF trace (the
/// PR 1 Fig-14 failure process: 64-GPU cluster, mtbf=5e4s/GPU, repair=600s,
/// seed 13), one row per Table-1 workload.  Each workload's step time comes
/// from the V100 throughput profile, its snapshot size from the memory
/// profile.  The self-check requires peer recovery to lose STRICTLY fewer
/// steps than disk walk-back for every workload.
bool run_recovery_section(BaselineGate& gate) {
  std::printf("\npeer-replicated vs disk-only recovery (MTBF trace)\n");
  trace::FailureTraceConfig tcfg;
  tcfg.cluster = {32, 16, 16};  // the PR 1 Fig-14 cluster (V100, P100, T4)
  const auto failures = trace::gpu_failure_trace(tcfg);
  std::printf("trace: %zu failures over %.0fs (mtbf=%.0fs/GPU)\n",
              failures.size(), tcfg.horizon_s, tcfg.mtbf_per_gpu_s);
  std::printf("%-18s %8s %9s %9s %10s %10s %8s %8s\n", "workload", "step_s",
              "lost_disk", "lost_peer", "recov_disk", "recov_peer", "peer",
              "fallbk");
  std::vector<RecoveryRow> rows;
  bool ok = true;
  for (const auto& name : models::workload_names()) {
    RecoveryRow row;
    row.workload = name;
    row.step_s =
        1.0 / models::profiled_throughput(name, kernels::DeviceType::kV100);
    sim::RecoveryModelConfig mcfg;
    mcfg.step_s = row.step_s;
    mcfg.snapshot_bytes = static_cast<std::int64_t>(
        models::profiled_memory_gb(name) * 0.5 * 1024.0 * 1024.0 * 1024.0);
    row.result = sim::model_recovery(failures, mcfg);
    const bool strictly_fewer =
        row.result.lost_steps_peer < row.result.lost_steps_disk;
    ok = ok && strictly_fewer;
    std::printf("%-18s %8.3f %9lld %9lld %10.1f %10.1f %8lld %8lld%s\n",
                row.workload.c_str(), row.step_s,
                static_cast<long long>(row.result.lost_steps_disk),
                static_cast<long long>(row.result.lost_steps_peer),
                row.result.recovery_s_disk, row.result.recovery_s_peer,
                static_cast<long long>(row.result.peer_recoveries),
                static_cast<long long>(row.result.disk_fallbacks),
                strictly_fewer ? "" : "  NOT-FEWER");
    rows.push_back(row);
  }

  std::FILE* f = std::fopen("BENCH_recovery.json", "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write BENCH_recovery.json\n");
    return false;
  }
  std::fprintf(f, "{\n  \"build_type\": \"%s\",\n", bench::build_type());
  std::fprintf(f, "  \"trace_failures\": %zu,\n", failures.size());
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"step_s\": %.6f, "
        "\"lost_steps_disk\": %lld, \"lost_steps_peer\": %lld, "
        "\"recovery_s_disk\": %.3f, \"recovery_s_peer\": %.3f, "
        "\"peer_recoveries\": %lld, \"disk_fallbacks\": %lld}%s\n",
        r.workload.c_str(), r.step_s,
        static_cast<long long>(r.result.lost_steps_disk),
        static_cast<long long>(r.result.lost_steps_peer),
        r.result.recovery_s_disk, r.result.recovery_s_peer,
        static_cast<long long>(r.result.peer_recoveries),
        static_cast<long long>(r.result.disk_fallbacks),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  bench::note("per-workload lost steps and recovery latency written to "
              "BENCH_recovery.json");

  for (const auto& r : rows) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"workload\": \"%s\", \"lost_steps_disk\": %lld, "
                  "\"lost_steps_peer\": %lld}",
                  r.workload.c_str(),
                  static_cast<long long>(r.result.lost_steps_disk),
                  static_cast<long long>(r.result.lost_steps_peer));
    gate.check(line);
  }
  return ok;
}

/// Replicated control plane under attack: one supervised NeuMF run per
/// replica count, with f leader/follower crashes and partitions on the
/// schedule.  Reports failover latency and committed decisions per second
/// of controller-fabric time, cross-checked against sim::model_failover.
/// Self-checks: the stormy digest must equal the controller-quiet digest,
/// at least one real failover must land, and every measured failover must
/// cost at least the model's detection floor (a failover cheaper than the
/// heartbeat deadline would mean the cost model is broken).
bool run_controller_section() {
  std::printf("\nreplicated control plane (leader crashes + partitions)\n");
  constexpr std::int64_t kSteps = 32;
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);

  struct CtrlRow {
    int replicas = 0;
    bool stormy = false;
    fault::GoodputStats stats;
    fault::ControllerStats ctrl;
    std::uint64_t digest = 0;
    std::uint64_t content_tail = 0;
  };
  const auto run = [&](int replicas, bool stormy) {
    core::EasyScaleEngine engine(job_config(), *wd.train, wd.augment);
    core::CheckpointManager mgr("/tmp/es_bench_fault_recovery", 4);
    mgr.clear();
    std::vector<fault::FaultEvent> events;
    if (stormy) {
      const int f = (replicas - 1) / 2;
      // f crashes, the first one always the bootstrap leader, spread
      // across the run with a partition before and after each.
      for (int k = 0; k < f; ++k) {
        events.push_back(
            fault::FaultEvent{.kind = fault::FaultKind::kControllerPartition,
                              .step = 3 + 8 * k,
                              .payload_seed = 0x51D5u + static_cast<std::uint64_t>(k)});
        events.push_back(
            fault::FaultEvent{.kind = fault::FaultKind::kControllerCrash,
                              .step = 4 + 8 * k,
                              .worker = k == 0 ? 0 : 2 * k});
      }
    }
    fault::SupervisorConfig scfg;
    scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
    scfg.checkpoint_every = 2;
    scfg.peer_replicas = 1;
    scfg.peer_snapshot_every = 2;
    scfg.controller_replicas = replicas;
    fault::FaultSupervisor sup(engine, mgr,
                               fault::FaultInjector(std::move(events)), scfg);
    CtrlRow row;
    row.replicas = replicas;
    row.stormy = stormy;
    row.stats = sup.run_to(kSteps, 4);
    row.ctrl = sup.control_plane()->stats();
    row.digest = engine.params_digest();
    row.content_tail = sup.control_plane()->log().content_tail();
    mgr.clear();
    return row;
  };

  std::printf("%9s %6s %9s %9s %6s %9s %11s %11s %8s\n", "replicas", "mode",
              "decisions", "failovers", "elect", "ctrl_s", "failover_ms",
              "decis/s", "result");
  bool ok = true;
  std::vector<CtrlRow> rows;
  for (const int replicas : {3, 5}) {
    const CtrlRow quiet = run(replicas, /*stormy=*/false);
    const CtrlRow stormy = run(replicas, /*stormy=*/true);
    const bool bitwise = !quiet.stats.failed && !stormy.stats.failed &&
                         stormy.digest == quiet.digest &&
                         stormy.content_tail == quiet.content_tail;
    const bool failed_over = stormy.ctrl.failovers > 0;

    // Sim cross-check: the measured mean failover can never undercut the
    // model's detection floor (the heartbeat deadline).
    sim::FailoverModelConfig mcfg;
    mcfg.replicas = replicas;
    mcfg.log_entries = stormy.ctrl.decisions_committed;
    const auto model = sim::model_failover(mcfg);
    const double mean_failover_s =
        failed_over ? stormy.ctrl.failover_wall_s /
                          static_cast<double>(stormy.ctrl.failovers)
                    : 0.0;
    const bool floor_ok = !failed_over || mean_failover_s >= model.detect_s;
    ok = ok && bitwise && failed_over && floor_ok;

    for (const CtrlRow* r : {&quiet, &stormy}) {
      std::printf("%9d %6s %9lld %9lld %6lld %9.3f %11.2f %11.1f %8s\n",
                  r->replicas, r->stormy ? "storm" : "quiet",
                  static_cast<long long>(r->ctrl.decisions_committed),
                  static_cast<long long>(r->ctrl.failovers),
                  static_cast<long long>(r->ctrl.elections),
                  r->ctrl.virtual_time_s,
                  1e3 * (r->ctrl.failovers > 0
                             ? r->ctrl.failover_wall_s /
                                   static_cast<double>(r->ctrl.failovers)
                             : 0.0),
                  r->ctrl.decisions_per_second(),
                  r->stats.failed ? "FAILED" : (bitwise ? "exact" : "-"));
      rows.push_back(*r);
    }
    std::printf("%9s model: detect %.3fs + lease %.3fs + elect %.3fs + "
                "sync %.3fs = %.3fs per failover%s\n",
                "", model.detect_s, model.lease_wait_s, model.election_s,
                model.sync_s, model.total_s,
                floor_ok ? "" : "  MEASURED-UNDER-FLOOR");
  }

  std::FILE* f = std::fopen("BENCH_controller.json", "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write BENCH_controller.json\n");
    return false;
  }
  std::fprintf(f, "{\n  \"build_type\": \"%s\",\n  \"rows\": [\n",
               bench::build_type());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(
        f,
        "    {\"replicas\": %d, \"mode\": \"%s\", \"decisions\": %lld, "
        "\"failovers\": %lld, \"controller_wall_s\": %.6f, "
        "\"failover_wall_s\": %.6f, \"decisions_per_second\": %.3f}%s\n",
        r.replicas, r.stormy ? "storm" : "quiet",
        static_cast<long long>(r.ctrl.decisions_committed),
        static_cast<long long>(r.ctrl.failovers), r.ctrl.virtual_time_s,
        r.ctrl.failover_wall_s, r.ctrl.decisions_per_second(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  bench::note("failover latency is controller-fabric virtual time: training "
              "bits never depend on it (the bitwise 'exact' column is the "
              "proof)");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool sdc_only = false;
  bool recovery_only = false;
  bool controller_only = false;
  BaselineGate gate;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sdc-only") == 0) sdc_only = true;
    if (std::strcmp(argv[i], "--recovery-only") == 0) recovery_only = true;
    if (std::strcmp(argv[i], "--controller-only") == 0) controller_only = true;
    if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc &&
        !gate.load(argv[++i])) {
      return 1;
    }
  }
  if (controller_only) {
    bench::banner("Fault recovery (control plane)",
                  "failover latency and decisions/s of the replicated "
                  "controller under leader crashes and partitions");
    const bool ok = run_controller_section();
    bench::note(ok ? "controller bench PASSED (BENCH_controller.json written)"
                   : "controller bench FAILED (see BENCH_controller.json)");
    return ok ? 0 : 1;
  }
  if (recovery_only) {
    bench::banner("Fault recovery (peer replication)",
                  "lost steps and recovery latency: peer quorum vs disk "
                  "walk-back under the MTBF trace");
    const bool ok = run_recovery_section(gate) && gate.ok;
    bench::note(ok ? "recovery bench PASSED (BENCH_recovery.json written)"
                   : "recovery bench FAILED (see BENCH_recovery.json)");
    return ok ? 0 : 1;
  }
  bench::banner("Fault recovery (§2.1, §5.3)",
                "goodput vs failure rate: elastic scale-in vs gang restart");
  constexpr std::int64_t kSteps = 48;
  auto wd = models::make_dataset_for("NeuMF", 128, 16, 42);

  // Fault-free reference: the digest every elastic run must reproduce.
  std::uint64_t clean = 0;
  const double ref_s = bench::time_seconds([&] {
    core::EasyScaleEngine ref(job_config(), *wd.train, wd.augment);
    ref.configure_workers(std::vector<core::WorkerSpec>(4));
    ref.run_steps(kSteps);
    clean = ref.params_digest();
  });
  std::printf("fault-free run: %lld steps in %.2fs, digest %016llx\n\n",
              static_cast<long long>(kSteps), ref_s,
              static_cast<unsigned long long>(clean));

  if (!sdc_only) {
  std::printf("%8s %8s %6s %6s %6s %6s %9s %10s %8s\n", "policy", "rate",
              "faults", "recov", "scl_in", "lost", "goodput", "steps/s",
              "result");
  const double rates[] = {0.0, 0.05, 0.1, 0.2, 0.4};
  for (const double rate : rates) {
    const auto elastic = run_policy(wd, fault::RecoveryPolicy::kElasticScaleIn,
                                    rate, kSteps, clean);
    const auto gang = run_policy(wd, fault::RecoveryPolicy::kGangRestart, rate,
                                 kSteps, clean);
    print_row("elastic", elastic);
    print_row("gang", gang);
    gate.check(row_line("policy", "elastic", elastic));
    gate.check(row_line("policy", "gang", gang));
  }
  // --- Comm-fault schedule: in-collective faults under the failure-aware
  // fabric.  The elastic job routes gradient sync through the resilient
  // collective (transient faults absorbed in-flight, rank deaths rolled
  // back via checkpoint); the gang baseline treats every comm fault as a
  // full restart.  Recovered goodput vs gang-restart goodput is the §2.1
  // comparison at the link level.
  std::printf("\ncomm-fault schedule (resilient fabric vs gang restart)\n");
  std::printf("%8s %8s %6s %6s %6s %9s %9s %8s\n", "policy", "rate", "comm",
              "retry", "recov", "comm_s", "goodput", "result");
  auto run_comm = [&](fault::RecoveryPolicy policy, double rate) {
    auto ecfg = job_config();
    ecfg.resilient_comm = policy == fault::RecoveryPolicy::kElasticScaleIn;
    core::EasyScaleEngine engine(ecfg, *wd.train, wd.augment);
    fault::FaultPlanConfig pcfg;
    pcfg.seed = 0xFA017;
    pcfg.horizon_steps = kSteps;
    pcfg.chunk_drop_rate = rate * 0.5;
    pcfg.stalled_link_rate = rate * 0.3;
    pcfg.rank_death_rate = rate * 0.2;
    fault::SupervisorConfig scfg;
    scfg.policy = policy;
    scfg.checkpoint_every = 4;
    return supervise(engine, rate, pcfg, scfg, clean);
  };
  for (const double rate : {0.05, 0.1, 0.2}) {
    for (const auto policy : {fault::RecoveryPolicy::kElasticScaleIn,
                              fault::RecoveryPolicy::kGangRestart}) {
      const auto r = run_comm(policy, rate);
      std::printf(
          "%8s %8.2f %6lld %6lld %6lld %9.3f %9.3f %8s\n",
          policy == fault::RecoveryPolicy::kElasticScaleIn ? "elastic"
                                                           : "gang",
          r.fault_rate, static_cast<long long>(r.stats.comm_faults),
          static_cast<long long>(r.stats.comm_retries),
          static_cast<long long>(r.stats.recoveries),
          r.stats.comm_wall_s, r.stats.goodput_fraction(),
          r.stats.failed ? "FAILED" : (r.bitwise_ok ? "exact" : "-"));
      gate.check(row_line("comm",
                          policy == fault::RecoveryPolicy::kElasticScaleIn
                              ? "elastic"
                              : "gang",
                          r));
    }
  }
  // --- ZeRO-1 under the supervisor: the same job with its optimizer state
  // sharded four ways, restarted through crashes, comm rank deaths and torn
  // generations from disk, then again with peer-replicated snapshots that
  // also lose replicas.  A sharded plan needs one rank per worker, so only
  // the gang policy applies; every surviving run must end on the unsharded
  // fault-free digest.
  std::printf("\nZeRO-1 (shard_degree 4) under gang restart; peer = with "
              "peer-replicated snapshots\n");
  std::printf("%8s %8s %6s %6s %6s %6s %9s %10s %8s\n", "policy", "rate",
              "faults", "recov", "scl_in", "lost", "goodput", "steps/s",
              "result");
  for (const int peers : {0, 1}) {
    for (const double rate : {0.05, 0.1, 0.2}) {
      parallel::TrainerConfig tcfg = core::trainer_config(job_config());
      tcfg.shard_degree = 4;
      parallel::Trainer trainer(tcfg, *wd.train, wd.augment,
                                std::vector<parallel::WorkerSpec>(4));
      fault::FaultPlanConfig pcfg;
      pcfg.seed = 0x2E401;
      pcfg.horizon_steps = kSteps;
      pcfg.crash_rate = rate * 0.5;
      pcfg.torn_checkpoint_rate = rate * 0.2;
      pcfg.rank_death_rate = rate * 0.3;
      pcfg.peer_replica_loss_rate = peers * rate * 0.5;
      fault::SupervisorConfig scfg;
      scfg.policy = fault::RecoveryPolicy::kGangRestart;
      scfg.checkpoint_every = 4;
      scfg.peer_replicas = peers;
      const Row r = supervise(trainer, rate, pcfg, scfg, clean);
      print_row(peers > 0 ? "peer" : "gang", r);
      gate.check(row_line("zero1", peers > 0 ? "gang-peer" : "gang", r));
    }
  }
  }  // !sdc_only

  // --- Silent-data-corruption schedule: sticky corrupt devices vs the
  // compute-integrity defense (witness + verified checkpoints + device
  // quarantine).  The defended job detects within one witness cadence,
  // quarantines, walks back to the last VERIFIED generation and ends
  // bitwise equal to the fault-free digest on the surviving devices; the
  // undefended job trains through the corruption and ends silently
  // poisoned (digest diverges).
  std::printf("\nsilent-data-corruption schedule (defended vs undefended)\n");
  std::printf("%10s %6s %6s %5s %6s %5s %8s %9s %9s %9s\n", "mode", "every",
              "rate", "sdc", "detect", "quar", "latency", "witness%",
              "goodput", "result");
  auto run_sdc = [&](bool defended, std::int64_t witness_every, double rate) {
    core::EasyScaleEngine engine(job_config(), *wd.train, wd.augment);
    fault::FaultPlanConfig pcfg;
    pcfg.seed = 0x5DC17;
    pcfg.horizon_steps = kSteps;
    pcfg.sdc_bitflip_rate = rate * 0.6;
    pcfg.sdc_perturb_rate = rate * 0.4;
    fault::SupervisorConfig scfg;
    scfg.policy = fault::RecoveryPolicy::kElasticScaleIn;
    scfg.checkpoint_every = 4;
    scfg.sdc_defense = defended;
    scfg.witness_every = witness_every;
    return supervise(engine, rate, pcfg, scfg, clean, /*keep=*/4);
  };
  for (const double rate : {0.02, 0.05, 0.1}) {
    for (const std::int64_t every : {std::int64_t{1}, std::int64_t{2}}) {
      const auto r = run_sdc(/*defended=*/true, every, rate);
      const double latency =
          r.stats.sdc_detections > 0
              ? static_cast<double>(r.stats.sdc_detect_latency_steps) /
                    static_cast<double>(r.stats.sdc_detections)
              : 0.0;
      const double witness_pct =
          r.stats.total_wall_s > 0.0
              ? 100.0 * r.stats.witness_wall_s / r.stats.total_wall_s
              : 0.0;
      std::printf("%10s %6lld %6.2f %5lld %6lld %5lld %8.2f %9.2f %9.3f %9s\n",
                  "defended", static_cast<long long>(every), r.fault_rate,
                  static_cast<long long>(r.stats.sdc_events),
                  static_cast<long long>(r.stats.sdc_detections),
                  static_cast<long long>(r.stats.devices_quarantined), latency,
                  witness_pct, r.stats.goodput_fraction(),
                  r.stats.failed ? "FAILED" : (r.bitwise_ok ? "exact" : "-"));
      gate.check(row_line("sdc", every == 1 ? "defended-w1" : "defended-w2",
                          r));
    }
    const auto u = run_sdc(/*defended=*/false, 1, rate);
    std::printf("%10s %6s %6.2f %5lld %6lld %5lld %8s %9s %9.3f %9s\n",
                "undefended", "-", u.fault_rate,
                static_cast<long long>(u.stats.sdc_events),
                static_cast<long long>(u.stats.sdc_detections),
                static_cast<long long>(u.stats.devices_quarantined), "-", "-",
                u.stats.goodput_fraction(),
                u.stats.sdc_events == 0
                    ? (u.bitwise_ok ? "exact" : "-")
                    : (u.bitwise_ok ? "exact" : "POISONED"));
    gate.check(row_line("sdc", "undefended", u));
  }
  bench::note(
      "latency = average steps from a device turning corrupt to witness "
      "detection; witness% = verification overhead share of wall time");
  bench::note(
      "defended runs must end 'exact' (bitwise equal to fault-free); "
      "undefended runs with sdc > 0 end POISONED — the defense's point");

  if (!sdc_only) {
  bench::note(
      "goodput = fraction of simulated wall-clock spent on surviving steps "
      "(supervisor cost model, not host time)");
  bench::note(
      "'exact' = the recovered run's params digest equals the fault-free "
      "digest — EasyScale's consistent-accuracy claim under faults");
  bench::note(
      "gang restart pays a replacement wait per fault and fails after "
      "max_retries consecutive faults (§2.1 baseline)");
  if (!run_recovery_section(gate)) return 1;
  }  // !sdc_only
  if (gate.text.has_value()) {
    bench::note(gate.ok ? "every row matches the checked-in baselines"
                        : "rows drifted from the checked-in baselines");
  }
  return gate.ok ? 0 : 1;
}
