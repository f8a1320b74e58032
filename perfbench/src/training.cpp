// The three training workloads: est_conv, est_elastic_bert, zero1_neumf.
//
// Each run builds its inputs from the seed, times every global step and
// every scale event through the public API, and ends with the correctness
// gates: a finite loss at every step and a final params digest equal to an
// in-process fixed-world reference trained outside the timed region.  A
// traced run alternates untraced steps with traced ones (count-only kernel
// hook, stats read around the step) and then times each layer's public
// functions on probe replicas that never touch the measured trajectory.
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "comm/allreduce.hpp"
#include "comm/shard.hpp"
#include "core/engine.hpp"
#include "harness.hpp"
#include "models/datasets.hpp"
#include "parallel/plan.hpp"
#include "parallel/trainer.hpp"
#include "rng/philox.hpp"

namespace perfbench {
namespace {

using namespace easyscale;
using kernels::DeviceType;

constexpr double kMb = 1e6;

/// Steps between the reference's catch-ups (engine workloads; zero1_neumf's
/// steps are about 100x shorter and it catches up every kRefChunk
/// checkpoint periods).
constexpr std::int64_t kRefChunk = 16;

/// Count-only kernel observer: calls and output bytes per kernel family.
class CountHook final : public kernels::PostOpHook {
 public:
  void on_output(kernels::KernelFamily family, std::span<float> out) override {
    const auto f = static_cast<std::size_t>(family);
    calls_[f].fetch_add(1, std::memory_order_relaxed);
    elems_[f].fetch_add(static_cast<std::int64_t>(out.size()),
                        std::memory_order_relaxed);
  }
  /// Per-step kernels.<family>.{calls,out_mb} over `steps` steps.
  void report(Report& report, std::int64_t steps) const {
    static constexpr const char* kFamilies[] = {"gemm", "conv", "reduce",
                                                "scatter"};
    const double n = static_cast<double>(std::max<std::int64_t>(steps, 1));
    for (std::size_t f = 0; f < 4; ++f) {
      const std::string base = std::string("kernels.") + kFamilies[f];
      report.set(base + ".calls", static_cast<double>(calls_[f].load()) / n);
      report.set(base + ".out_mb",
                 static_cast<double>(elems_[f].load()) * 4.0 / kMb / n);
    }
  }

 private:
  std::atomic<std::int64_t> calls_[4] = {};
  std::atomic<std::int64_t> elems_[4] = {};
};

/// Overlap accounting summed over the traced steps that ran pipelined.
struct OverlapSums {
  double compute_s = 0, busy_s = 0, drain_s = 0, frac = 0;
  std::int64_t steps = 0;

  void add(const std::optional<comm::OverlapStats>& ov) {
    if (!ov.has_value()) return;
    compute_s += ov->compute_s;
    busy_s += ov->comm_busy_s;
    drain_s += ov->drain_wait_s;
    frac += ov->overlap_frac;
    ++steps;
  }
  void report(Report& report) const {
    if (steps == 0) return;
    const double n = static_cast<double>(steps);
    report.set("comm.overlap.compute_ms", 1e3 * compute_s / n);
    report.set("comm.overlap.comm_busy_ms", 1e3 * busy_s / n);
    report.set("comm.overlap.drain_wait_ms", 1e3 * drain_s / n);
    report.set("comm.overlap.frac", frac / n);
  }
};

/// Median duration (ms) of the spans named `name`.
double ms_median(const Tracer& tracer, const char* name) {
  return median(tracer.durations_ms(name));
}

/// Repeat `fn` `reps` times as span `name`.
template <typename Fn>
void probe(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  for (int i = 0; i < reps; ++i) tracer.span(name, "probe", fn);
}

/// A standalone model replica with its own exec context, RNG and batch
/// source, for timing nn/data/optim calls outside the measured run.
struct ProbeReplica {
  std::unique_ptr<models::Workload> model;
  kernels::ExecContext exec;
  rng::StreamSet streams;
  data::RankDataPipeline pipeline;
  data::Batch batch;

  ProbeReplica(const std::string& name, kernels::KernelPolicy policy,
               const models::WorkloadData& wd, std::int64_t world,
               std::int64_t batch_size, std::uint64_t seed)
      : model(models::make_workload(name)),
        pipeline(*wd.train, wd.augment, world, 0, batch_size, seed) {
    model->init(seed);
    exec.policy = policy;
    exec.intra_op_threads = kComputeThreads;
    streams.seed_all(seed, 0);
  }

  /// data.batch_ms, nn.fwd_bwd_ms, nn.fwd_ms from `reps` calls each.
  void time_layers(Tracer& tracer, Report& report, int reps) {
    autograd::StepContext train_ctx{&exec, &streams, true};
    autograd::StepContext eval_ctx{&exec, &streams, false};
    probe(tracer, "data.next_batch", reps, [&] { batch = pipeline.next(); });
    probe(tracer, "nn.train_step", reps, [&] {
      model->params().zero_grads();
      (void)model->train_step(train_ctx, batch);
    });
    probe(tracer, "nn.predict", reps,
          [&] { (void)model->predict(eval_ctx, batch); });
    report.set("data.batch_ms", ms_median(tracer, "data.next_batch"));
    report.set("nn.fwd_bwd_ms", ms_median(tracer, "nn.train_step"));
    report.set("nn.fwd_ms", ms_median(tracer, "nn.predict"));
  }
};

// --- EasyScale engine workloads -------------------------------------------

struct EstSpec {
  std::string model;
  core::EasyScaleConfig config;
  /// Worker sets cycled through by configure_workers; one set = fixed.
  std::vector<std::vector<core::WorkerSpec>> schedule;
  std::int64_t rescale_every = 0;  // steps between rescales, 0 = never
  std::int64_t rescale_phase = 0;  // seeded offset in [0, rescale_every)
};

constexpr std::int64_t kEstTrainSamples = 512;

/// Dataset + engine on the first worker set, past its recording step.
struct EstSetup {
  std::optional<models::WorkloadData> wd;
  std::unique_ptr<core::EasyScaleEngine> engine;

  EstSetup(const EstSpec& spec, std::uint64_t seed)
      : wd(models::make_dataset_for(spec.model, kEstTrainSamples, 16, seed)),
        engine(std::make_unique<core::EasyScaleEngine>(
            spec.config, *wd->train, wd->augment)) {
    engine->configure_workers(spec.schedule[0]);
    engine->run_steps(1);
  }
};

/// Counters summed over the traced steps of an engine run.
struct EngineCounters {
  double switches = 0, swap_bytes = 0, worker_sum = 0;
  double bytes = 0, messages = 0, fabric_s = 0, retries = 0;
  OverlapSums overlap;
};

void run_est(const EstSpec& spec, const Options& opts, Tracer& tracer,
             Report& report, Outcome& outcome) {
  std::optional<EstSetup> live;
  const SetupTimes setups([&] { EstSetup(spec, opts.seed); },
                          [&] { live.emplace(spec, opts.seed); });
  auto& engine = *live->engine;
  const models::WorkloadData& wd = *live->wd;
  outcome.check(std::isfinite(engine.loss_history().back()));
  const std::int64_t samples_per_step =
      spec.config.num_ests * spec.config.batch_per_est;

  // A trace run alternates untraced and traced (hooked, counted) steps, so
  // both kinds see the same host state.
  CountHook hook;
  auto arm = [&](bool on) {
    for (std::int64_t w = 0; w < engine.num_workers(); ++w) {
      engine.set_post_op_hook(w, on ? &hook : nullptr);
    }
  };
  // The fixed-world reference: one worker, sequential sync, plain comm.
  // It trains the live engine's steps in untimed chunks between the
  // measured ones, so that the measured steps spread over the whole run;
  // it is built once the peak resident set has been read.
  core::EasyScaleConfig ref_cfg = spec.config;
  ref_cfg.overlap_comm = false;
  ref_cfg.resilient_comm = false;
  std::optional<core::EasyScaleEngine> ref;
  auto catch_up = [&] {
    if (!ref.has_value()) {
      ref.emplace(ref_cfg, *wd.train, wd.augment);
      ref->configure_workers({core::WorkerSpec{DeviceType::kV100}});
    }
    ref->run_steps(engine.global_step() - ref->global_step());
  };

  EngineCounters c;
  Meter plain(opts.trace ? opts.seconds / 2 : opts.seconds);
  Meter traced(opts.seconds / 2);
  std::vector<double> rescale_ms;
  PeakRss rss(64);  // past est_elastic_bert's 4-set cycle of 12 steps each
  std::size_t next_set = 1;
  tracer.set_recording(opts.trace);
  for (std::int64_t i = 1; plain.running(); ++i) {
    const bool hooked = opts.trace && i % 2 == 0;
    if (spec.rescale_every > 0 &&
        (i + spec.rescale_phase) % spec.rescale_every == 0) {
      const auto& set = spec.schedule[next_set];
      next_set = (next_set + 1) % spec.schedule.size();
      const double s = tracer.span("engine.configure_workers", "rescale",
                                   [&] { engine.configure_workers(set); });
      plain.event("rescale", spec.rescale_every, s);
      rescale_ms.push_back(s * 1e3);
    }
    if (opts.trace) arm(hooked);
    const auto sw0 = engine.switch_stats();
    std::optional<comm::TransportStats> ts0;
    if (hooked && engine.resilient_comm_enabled()) {
      ts0 = engine.transport_stats();
    }
    (hooked ? traced : plain)
        .step(tracer.span("engine.run_steps", hooked ? "step.traced" : "step",
                          [&] { engine.run_steps(1); }),
              samples_per_step);
    outcome.check(std::isfinite(engine.loss_history().back()));
    rss.after_step(i);
    if (rss.taken() && i % kRefChunk == 0) catch_up();
    if (!hooked) continue;
    const auto& sw1 = engine.switch_stats();
    c.switches +=
        static_cast<double>(sw1.context_switches - sw0.context_switches);
    c.swap_bytes += static_cast<double>(
        sw1.gradient_bytes_swapped + sw1.context_bytes_swapped -
        sw0.gradient_bytes_swapped - sw0.context_bytes_swapped);
    c.worker_sum += static_cast<double>(engine.num_workers());
    c.overlap.add(engine.last_overlap_stats());
    if (ts0.has_value()) {
      const auto& ts1 = engine.transport_stats();
      c.bytes += static_cast<double>(ts1.bytes_sent - ts0->bytes_sent);
      c.messages +=
          static_cast<double>(ts1.messages_sent - ts0->messages_sent);
      if (const auto& rep = engine.last_comm_report(); rep.has_value()) {
        c.fabric_s += rep->virtual_time_s;
        c.retries += static_cast<double>(rep->incidents.size());
      }
    }
  }
  if (opts.trace) arm(false);
  report.set("peak_rss_mb", rss.mb());

  double layer_sum_ms = 0.0;
  if (opts.trace) {
    const double n = static_cast<double>(traced.steps());
    hook.report(report, traced.steps());
    report.set("core.context_switches", c.switches / n);
    report.set("core.swap_mb", c.swap_bytes / kMb / n);
    c.overlap.report(report);
    report.set("comm.bytes_per_step", c.bytes / n);
    report.set("comm.messages_per_step", c.messages / n);
    report.set("comm.fabric_ms_per_step", 1e3 * c.fabric_s / n);
    report.set("comm.retries", c.retries);
    report.set("comm.buckets",
               static_cast<double>(engine.current_layout().buckets.size()));

    const auto& cfg = spec.config;
    constexpr int kReps = 9;
    ProbeReplica replica(spec.model, core::kernel_policy(cfg.determinism), wd,
                         cfg.num_ests, cfg.batch_per_est, opts.seed);
    replica.time_layers(tracer, report, kReps);
    std::vector<comm::GradientSet> sets(
        static_cast<std::size_t>(cfg.num_ests),
        comm::GradientSet::from_store(replica.model->params()));
    std::vector<comm::GradientSet*> parts;
    for (auto& s : sets) parts.push_back(&s);
    probe(tracer, "comm.allreduce_average", kReps, [&] {
      comm::allreduce_average(engine.current_layout(), parts);
    });
    auto opt = optim::make_optimizer(replica.model->params(), cfg.optim);
    probe(tracer, "optim.step", kReps, [&] { opt->step(); });
    report.set("comm.allreduce_ms",
               ms_median(tracer, "comm.allreduce_average"));
    report.set("optim.step_ms", ms_median(tracer, "optim.step"));
    layer_sum_ms = static_cast<double>(cfg.num_ests) *
                       (ms_median(tracer, "data.next_batch") +
                        ms_median(tracer, "nn.train_step")) +
                   ms_median(tracer, "comm.allreduce_average") +
                   c.worker_sum / n * ms_median(tracer, "optim.step");

    if (spec.rescale_every > 0) {
      // The halves of a rescale: on-demand checkpoint, then restore into a
      // second engine of the same shape.
      std::vector<std::uint8_t> bytes;
      probe(tracer, "core.checkpoint", kReps,
            [&] { bytes = engine.checkpoint(); });
      core::EasyScaleEngine other(cfg, *wd.train, wd.augment);
      other.configure_workers(engine.current_worker_specs());
      probe(tracer, "core.restore", kReps, [&] { other.restore(bytes); });
      report.set("core.checkpoint_ms", ms_median(tracer, "core.checkpoint"));
      report.set("core.restore_ms", ms_median(tracer, "core.restore"));
      report.set("core.checkpoint_mb",
                 static_cast<double>(bytes.size()) / kMb);
      report.set("rescale_ms_p50", median(rescale_ms));
    }
  }
  const double p50 =
      report_steps(report, plain, opts.trace ? &traced : nullptr, setups);
  if (opts.trace) report.set("trace.coverage", layer_sum_ms / p50);

  catch_up();
  outcome.check(ref->params_digest() == engine.params_digest());
}

/// Worker-set cycle of 1 -> 3 -> 4 -> 2 workers with seeded V100/P100/T4
/// devices (the heterogeneous D2 case).  The sizes are fixed so that peak
/// memory, which a rebuild reaches while the old and new worker sets
/// coexist, and the mix of scale-in and scale-out do not depend on the
/// seed.  Starting at one worker keeps the interleaved set-ups small.
std::vector<std::vector<core::WorkerSpec>> elastic_schedule(
    std::uint64_t seed) {
  rng::Philox gen(seed ^ 0x5CA1Eull);
  std::vector<std::vector<core::WorkerSpec>> sets;
  for (const std::uint64_t n : {1, 3, 4, 2}) {
    std::vector<core::WorkerSpec> set;
    for (std::uint64_t w = 0; w < n; ++w) {
      set.push_back({static_cast<DeviceType>(gen.next_below(3))});
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

// --- ZeRO-1 trainer workload ----------------------------------------------

constexpr int kWorld = 4;

/// Dataset + trainer past its recording step.
struct Zero1Setup {
  std::optional<models::WorkloadData> wd;
  std::unique_ptr<parallel::Trainer> trainer;

  Zero1Setup(const parallel::TrainerConfig& cfg, std::uint64_t seed)
      : wd(models::make_dataset_for(cfg.workload, 4096, 16, seed)),
        trainer(std::make_unique<parallel::Trainer>(cfg, *wd->train,
                                                    wd->augment)) {
    trainer->run_steps(1);
  }
};

}  // namespace

void run_est_conv(const Options& opts, Tracer& tracer, Report& report,
                  Outcome& outcome) {
  EstSpec spec;
  spec.model = "ResNet50";
  auto& cfg = spec.config;
  cfg.workload = spec.model;
  cfg.num_ests = 8;
  cfg.batch_per_est = 8;
  cfg.seed = opts.seed;
  cfg.determinism.level = core::DeterminismLevel::kD0;
  cfg.intra_op_threads = kComputeThreads;
  spec.schedule = {{{DeviceType::kV100}, {DeviceType::kV100}}};
  run_est(spec, opts, tracer, report, outcome);
}

void run_est_elastic_bert(const Options& opts, Tracer& tracer, Report& report,
                          Outcome& outcome) {
  EstSpec spec;
  spec.model = "Bert";
  auto& cfg = spec.config;
  cfg.workload = spec.model;
  cfg.num_ests = 8;
  cfg.batch_per_est = 4;
  cfg.seed = opts.seed;
  cfg.determinism.level = core::DeterminismLevel::kD1;
  cfg.determinism.d2 = true;
  cfg.overlap_comm = true;
  cfg.resilient_comm = true;
  // Adam at 1e-3: the default SGD lr of 0.1 drives Bert to NaN within a
  // few dozen steps, after which the run would time NaN arithmetic.
  cfg.optim.kind = optim::OptimizerConfig::Kind::kAdam;
  cfg.optim.lr = 1e-3f;
  cfg.intra_op_threads = kComputeThreads;
  spec.schedule = elastic_schedule(opts.seed);
  // A fixed period, so that every seed does the same rescale work per
  // sample; the seed picks only where in the period the run starts.
  spec.rescale_every = 12;
  rng::Philox gen(opts.seed ^ 0xE7E7ull);
  spec.rescale_phase =
      static_cast<std::int64_t>(gen.next_below(spec.rescale_every));
  run_est(spec, opts, tracer, report, outcome);
}

void run_zero1_neumf(const Options& opts, Tracer& tracer, Report& report,
                     Outcome& outcome) {
  parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = kWorld;
  cfg.batch_per_worker = 32;
  cfg.seed = opts.seed;
  cfg.shard_degree = 4;
  cfg.overlap_comm = true;
  cfg.intra_op_threads = kComputeThreads;
  // Fixed periods, so that every seed does the same checkpoint and reshard
  // work per sample; the seed picks only where in each period the run
  // starts.
  constexpr std::int64_t kCkptEvery = 64;
  constexpr std::int64_t kReshardEvery = 512;
  rng::Philox gen(opts.seed ^ 0x2E40ull);
  const auto ckpt_phase = static_cast<std::int64_t>(gen.next_below(kCkptEvery));
  const auto reshard_phase =
      static_cast<std::int64_t>(gen.next_below(kReshardEvery));

  std::optional<Zero1Setup> live;
  const SetupTimes setups([&] { Zero1Setup(cfg, opts.seed); },
                          [&] { live.emplace(cfg, opts.seed); });
  auto& trainer = *live->trainer;
  const models::WorkloadData& wd = *live->wd;
  outcome.check(std::isfinite(trainer.loss_history().back()));

  // A trace run alternates untraced and traced (hooked, counted) steps, so
  // both kinds see the same host state.
  CountHook hook;
  auto arm = [&](bool on) {
    for (std::int64_t r = 0; r < kWorld; ++r) {
      trainer.set_post_op_hook(r, on ? &hook : nullptr);
    }
  };
  std::vector<double> reshard_ms, ckpt_ms;
  std::size_t ckpt_bytes = 0;
  OverlapSums overlap;
  PeakRss rss(2 * kReshardEvery + kCkptEvery);  // past a 4 -> 2 -> 4 cycle

  // The fixed-world reference: the replicated (shard 1), sequential-sync
  // trainer with no reshards or checkpoints.  It trains the live trainer's
  // steps in untimed chunks between the measured ones, so that the measured
  // steps spread over the whole run; it is built once the peak resident
  // set has been read.
  parallel::TrainerConfig ref_cfg = cfg;
  ref_cfg.shard_degree = 1;
  ref_cfg.overlap_comm = false;
  std::optional<parallel::Trainer> ref;
  auto catch_up = [&] {
    if (!ref.has_value()) ref.emplace(ref_cfg, *wd.train, wd.augment);
    ref->run_steps(trainer.global_step() - ref->global_step());
  };
  Meter plain(opts.trace ? opts.seconds / 2 : opts.seconds);
  Meter traced(opts.seconds / 2);
  tracer.set_recording(opts.trace);
  for (std::int64_t i = 1; plain.running(); ++i) {
    const bool hooked = opts.trace && i % 2 == 0;
    if ((i + reshard_phase) % kReshardEvery == 0) {
      const int degree = trainer.shard_degree() == 4 ? 2 : 4;
      const double s = tracer.span("trainer.reshard", "reshard",
                                   [&] { trainer.reshard(degree); });
      plain.event("reshard", kReshardEvery, s);
      reshard_ms.push_back(s * 1e3);
    }
    if ((i + ckpt_phase) % kCkptEvery == 0) {
      const double s =
          tracer.span("trainer.checkpoint_bytes", "checkpoint",
                      [&] { ckpt_bytes = trainer.checkpoint_bytes().size(); });
      plain.event("checkpoint", kCkptEvery, s);
      ckpt_ms.push_back(s * 1e3);
    }
    if (opts.trace) arm(hooked);
    (hooked ? traced : plain)
        .step(tracer.span("trainer.run_steps", hooked ? "step.traced" : "step",
                          [&] { trainer.run_steps(1); }),
              kWorld * cfg.batch_per_worker);
    outcome.check(std::isfinite(trainer.loss_history().back()));
    rss.after_step(i);
    if (rss.taken() && i % (kRefChunk * kCkptEvery) == 0) catch_up();
    if (hooked) overlap.add(trainer.last_overlap_stats());
  }
  if (opts.trace) arm(false);
  report.set("peak_rss_mb", rss.mb());

  double layer_sum_ms = 0.0;
  if (opts.trace) {
    hook.report(report, traced.steps());
    overlap.report(report);
    report.set("comm.buckets",
               static_cast<double>(trainer.current_layout().buckets.size()));

    // Layer probes on world-size replicas of the model.
    constexpr int kReps = 201;
    ProbeReplica replica(cfg.workload, cfg.policy, wd, kWorld,
                         cfg.batch_per_worker, opts.seed);
    replica.time_layers(tracer, report, kReps);
    auto& params = replica.model->params();
    std::vector<std::unique_ptr<models::Workload>> peers;
    std::vector<autograd::ParameterStore*> stores = {&params};
    for (int r = 1; r < kWorld; ++r) {
      peers.push_back(models::make_workload(cfg.workload));
      peers.back()->init(opts.seed);
      stores.push_back(&peers.back()->params());
    }
    const auto plan = parallel::make_plan(kWorld, cfg.shard_degree, params);
    std::vector<comm::ShardSlices> owned;
    for (int r = 0; r < kWorld; ++r) {
      owned.push_back(
          parallel::slices_for_shard(plan, params, plan.shard_index(r)));
    }
    std::vector<comm::GradientSet> sets(kWorld,
                                        comm::GradientSet::from_store(params));
    std::vector<comm::GradientSet*> parts;
    for (auto& s : sets) parts.push_back(&s);
    probe(tracer, "comm.reduce_scatter_average", kReps, [&] {
      comm::reduce_scatter_average(trainer.current_layout(), parts, owned);
    });
    const auto gather = parallel::gather_map(plan, params);
    probe(tracer, "comm.all_gather_params", kReps, [&] {
      comm::all_gather_params(stores, gather.slices, gather.source_of_slice);
    });
    auto opt = optim::make_optimizer(params, cfg.optim);
    probe(tracer, "optim.step", kReps, [&] { opt->step(); });
    probe(tracer, "optim.step_slices", kReps,
          [&] { opt->step_slices(owned[0]); });

    report.set("parallel.reduce_scatter_ms",
               ms_median(tracer, "comm.reduce_scatter_average"));
    report.set("parallel.all_gather_ms",
               ms_median(tracer, "comm.all_gather_params"));
    report.set("optim.step_ms", ms_median(tracer, "optim.step"));
    report.set("optim.step_slices_ms", ms_median(tracer, "optim.step_slices"));
    report.set("parallel.reshard_ms", median(reshard_ms));
    report.set("parallel.ckpt_mb", static_cast<double>(ckpt_bytes) / kMb);
    report.set("ckpt_ms_p50", median(ckpt_ms));
    layer_sum_ms = kWorld * (ms_median(tracer, "data.next_batch") +
                             ms_median(tracer, "nn.train_step") +
                             ms_median(tracer, "optim.step_slices")) +
                   ms_median(tracer, "comm.reduce_scatter_average") +
                   ms_median(tracer, "comm.all_gather_params");
  }
  const double p50 =
      report_steps(report, plain, opts.trace ? &traced : nullptr, setups);
  if (opts.trace) report.set("trace.coverage", layer_sum_ms / p50);

  catch_up();
  outcome.check(ref->params_digest() == trainer.params_digest());
}

}  // namespace perfbench
