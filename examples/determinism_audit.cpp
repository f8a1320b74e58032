// Determinism audit: demonstrates each nondeterminism source §3.3 catalogs,
// directly at the kernel/communication layer, and the EasyScale control
// that removes it — then emits a tamper-evident per-layer parameter digest
// chain from a short training run.  Every run also reproduces that chain,
// link for link, through each feature that must not move a bit: the
// pipelined comm path, the ZeRO-1 sharded trainer at degrees 1, 2 and 4,
// four peer snapshot/restore recoveries (across degrees and with a mid-run
// reshard), and the replicated control plane under leader crashes and
// partitions at 2 and 4 workers.  Any divergence exits nonzero.
//
//   determinism_audit                  print the audit + the chain
//   determinism_audit --emit FILE      also write the chain to FILE
//   determinism_audit --compare FILE   exit nonzero unless the freshly
//                                      computed chain matches FILE record
//                                      for record (CI pins builds this way)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "comm/ring.hpp"
#include "common/digest.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "fault/supervisor.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"
#include "kernels/scatter.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "rng/sampling.hpp"

namespace {

/// The reference run the chain is computed from: NeuMF, 4 ESTs on 2
/// workers, 4 steps, seed 7.  Any kernel, reduction-order or RNG change
/// anywhere in the stack moves at least one link.  The audit computes the
/// chain through BOTH comm paths — sequential sync and the pipelined
/// bucket flush — and a `--compare` pin therefore pins the overlapped path
/// too (the two must already agree before any file comparison happens).
easyscale::DigestChain audit_chain(bool overlap) {
  using namespace easyscale;
  auto wd = models::make_dataset_for("NeuMF", /*train=*/256, /*test=*/64,
                                     /*seed=*/7);
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 8;
  cfg.seed = 7;
  cfg.determinism.level = core::DeterminismLevel::kD1;
  cfg.overlap_comm = overlap;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));
  engine.run_steps(4);
  return engine.params_digest_chain();
}

/// The reference job as the trainer's identity packing (world 4 = the 4
/// ESTs, one per worker) at optimizer-state shard degree `degree`.
easyscale::parallel::TrainerConfig reference_trainer(int degree) {
  easyscale::parallel::TrainerConfig cfg;
  cfg.workload = "NeuMF";
  cfg.world_size = 4;
  cfg.batch_per_worker = 8;
  cfg.seed = 7;
  cfg.shard_degree = degree;
  return cfg;
}

/// The reference trajectory on the identity packing.  Packing invariance
/// means this chain must equal audit_chain()'s for EVERY shard degree
/// dividing the world.
easyscale::DigestChain shard_chain(int degree) {
  using namespace easyscale;
  auto wd = models::make_dataset_for("NeuMF", /*train=*/256, /*test=*/64,
                                     /*seed=*/7);
  parallel::Trainer trainer(reference_trainer(degree), *wd.train,
                            wd.augment);
  trainer.run_steps(4);
  return trainer.params_digest_chain();
}

/// The reference trajectory interrupted by an in-fabric recovery: train to
/// step 2 at `save_degree`, snapshot through the peer pipeline's byte API,
/// recover a FRESH trainer at `restore_degree` from those bytes, optionally
/// reshard again mid-run (`mid_degree` after one more step), and finish the
/// 4-step trajectory.  Consistent accuracy demands the result be bitwise
/// the clean chain.
easyscale::DigestChain recovered_chain(int save_degree, int restore_degree,
                                       int mid_degree) {
  using namespace easyscale;
  auto wd = models::make_dataset_for("NeuMF", /*train=*/256, /*test=*/64,
                                     /*seed=*/7);
  std::vector<std::uint8_t> snapshot;
  {
    parallel::Trainer doomed(reference_trainer(save_degree), *wd.train,
                             wd.augment);
    doomed.run_steps(2);
    snapshot = doomed.checkpoint_bytes();
    // `doomed` is dropped here: the crash.  Only the bytes survive.
  }
  parallel::Trainer trainer(reference_trainer(restore_degree), *wd.train,
                            wd.augment);
  trainer.restore_checkpoint_bytes(snapshot);
  if (mid_degree > 0) {
    trainer.run_steps(1);
    trainer.reshard(mid_degree);
    trainer.run_steps(1);
  } else {
    trainer.run_steps(2);
  }
  return trainer.params_digest_chain();
}

/// The reference trajectory supervised by the replicated control plane
/// (2f+1 = 5 replicas).  When `stormy`, f = 2 replica crashes — one of
/// them the bootstrap leader — plus two partitions attack the controller
/// mid-run; the committed decision stream and the parameter chain must be
/// bitwise those of the controller-quiet run.  `content_tail` receives the
/// fold of decision content digests (epoch-independent, so it compares
/// across failover histories).
easyscale::DigestChain controller_chain(bool stormy, std::int64_t workers,
                                        std::uint64_t* content_tail,
                                        std::int64_t* failovers) {
  using namespace easyscale;
  auto wd = models::make_dataset_for("NeuMF", /*train=*/256, /*test=*/64,
                                     /*seed=*/7);
  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = 4;
  cfg.batch_per_est = 8;
  cfg.seed = 7;
  cfg.determinism.level = core::DeterminismLevel::kD1;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  // One prefix per process: concurrent audits never share generations.
  core::CheckpointManager mgr(
      (std::filesystem::temp_directory_path() /
       ("es_audit_controller." + std::to_string(::getpid())))
          .string(),
      4);
  mgr.clear();
  std::vector<fault::FaultEvent> events;
  if (stormy) {
    events = {
        fault::FaultEvent{.kind = fault::FaultKind::kControllerPartition,
                          .step = 1,
                          .payload_seed = 0x51D5u},
        fault::FaultEvent{.kind = fault::FaultKind::kControllerCrash,
                          .step = 1,
                          .worker = 0},
        fault::FaultEvent{.kind = fault::FaultKind::kControllerPartition,
                          .step = 2,
                          .payload_seed = 0xA11Cu},
        fault::FaultEvent{.kind = fault::FaultKind::kControllerCrash,
                          .step = 3,
                          .worker = 3},
    };
  }
  fault::SupervisorConfig scfg;
  scfg.checkpoint_every = 2;
  scfg.controller_replicas = 5;
  fault::FaultSupervisor sup(engine, mgr,
                             fault::FaultInjector(std::move(events)), scfg);
  const auto stats = sup.run_to(4, workers);
  if (stats.failed) {
    std::fprintf(stderr,
                 "   => FATAL: supervised controller run failed (%s)\n",
                 stats.controller_unavailable ? "controller unavailable"
                                              : "training fault");
    std::exit(1);
  }
  *content_tail = sup.control_plane()->log().content_tail();
  *failovers = stats.controller_failovers;
  mgr.clear();
  return engine.params_digest_chain();
}

/// Whether `got` reproduces the clean chain link for link; prints the
/// verdict on `what`.
bool agrees(const easyscale::DigestChain& clean,
            const easyscale::DigestChain& got, const std::string& what) {
  if (got != clean) {
    std::fprintf(stderr, "   => FATAL: %s diverged from the clean chain\n",
                 what.c_str());
    return false;
  }
  std::printf("   (%s agrees link for link)\n", what.c_str());
  return true;
}

void write_chain(std::ostream& os, const easyscale::DigestChain& chain) {
  for (const auto& rec : chain.records()) {
    char line[64];
    std::snprintf(line, sizeof(line), "%llu %016llx %016llx\n",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.digest),
                  static_cast<unsigned long long>(rec.chain));
    os << line;
  }
}

bool read_chain(const std::string& path, easyscale::DigestChain& out) {
  std::ifstream in(path);
  if (!in) return false;
  unsigned long long id = 0, digest = 0, chain = 0;
  std::string digest_hex, chain_hex;
  while (in >> id >> digest_hex >> chain_hex) {
    digest = std::strtoull(digest_hex.c_str(), nullptr, 16);
    chain = std::strtoull(chain_hex.c_str(), nullptr, 16);
    out.push(id, digest);
    // push() recomputes the chain value; a mismatch against the recorded
    // one means the FILE itself was tampered with.
    if (out.records().back().chain != chain) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easyscale;
  std::string emit_path;
  std::string compare_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--emit") == 0 && i + 1 < argc) {
      emit_path = argv[++i];
    } else if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc) {
      compare_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--emit FILE] [--compare FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  rng::Philox gen(123);

  // 1. Hardware-specific kernels: the same GEMM on V100/P100/T4 variants.
  std::printf("1) operator implementations (hardware-specific kernels)\n");
  const std::int64_t n = 32;
  std::vector<float> a(n * n), b(n * n);
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  for (auto [label, variant] :
       {std::pair{"V100-native (ilv-8)     ", kernels::GemmVariant::kInterleaved8},
        std::pair{"P100-native (ilv-4)     ", kernels::GemmVariant::kInterleaved4},
        std::pair{"T4-native   (ilv-2)     ", kernels::GemmVariant::kInterleaved2},
        std::pair{"D2 canonical(sequential)",
                  kernels::GemmVariant::kSequential}}) {
    std::vector<float> c(n * n);
    kernels::gemm_variant(variant, n, n, n, a, b, c, false);
    std::printf("   %s -> digest %016llx\n", label,
                static_cast<unsigned long long>(digest_floats(c)));
  }
  std::printf("   => same math, different bits per device; D2 pins one "
              "variant everywhere.\n\n");

  // 2. Communication: ring all-reduce association depends on world size.
  std::printf("2) communication mechanism (ring all-reduce order)\n");
  std::vector<std::vector<float>> grads(8, std::vector<float>(1024));
  for (auto& g : grads) rng::fill_normal(gen, g, 0.0f, 1.0f);
  for (std::int64_t world : {2, 4, 8}) {
    // Pre-fold 8 virtual gradients into `world` physical partials the way
    // plain DDP would see them, then ring-reduce.
    std::vector<std::vector<float>> parts(static_cast<std::size_t>(world),
                                          std::vector<float>(1024, 0.0f));
    for (std::size_t v = 0; v < grads.size(); ++v) {
      auto& p = parts[v % static_cast<std::size_t>(world)];
      for (std::size_t i = 0; i < p.size(); ++i) p[i] += grads[v][i];
    }
    std::vector<std::span<const float>> views(parts.begin(), parts.end());
    std::vector<float> out(1024);
    comm::ring_allreduce_sum(views, out);
    std::printf("   physical world %lld -> digest %016llx\n",
                static_cast<long long>(world),
                static_cast<unsigned long long>(digest_floats(out)));
  }
  {
    std::vector<std::span<const float>> views(grads.begin(), grads.end());
    std::vector<float> out(1024);
    comm::ring_allreduce_sum(views, out);
    std::printf("   EasyScale virtual ranks (always 8) -> digest %016llx "
                "on ANY physical mapping\n\n",
                static_cast<unsigned long long>(digest_floats(out)));
  }

  // 3. Atomics: scatter-add order.
  std::printf("3) atomic-instruction kernels (scatter-add)\n");
  std::vector<std::int64_t> idx(256);
  std::vector<float> src(256);
  rng::fill_randint(gen, idx, 8);
  rng::fill_normal(gen, src, 0.0f, 1.0f);
  kernels::ExecContext fast;
  fast.policy = kernels::KernelPolicy::kFastest;
  kernels::ExecContext det;
  det.policy = kernels::KernelPolicy::kDeterministic;
  for (int run = 0; run < 2; ++run) {
    std::vector<float> out(8, 0.0f);
    kernels::scatter_add(fast, idx, src, 1, out);
    std::printf("   emulated atomics, run %d -> digest %016llx\n", run,
                static_cast<unsigned long long>(digest_floats(out)));
  }
  for (int run = 0; run < 2; ++run) {
    std::vector<float> out(8, 0.0f);
    kernels::scatter_add(det, idx, src, 1, out);
    std::printf("   sorted deterministic, run %d -> digest %016llx\n", run,
                static_cast<unsigned long long>(digest_floats(out)));
  }
  std::printf("   => D0 replaces atomic accumulation with a sorted order.\n\n");

  // 4. End-to-end: the per-layer parameter digest chain after a short D1
  //    training run.  Each link folds its predecessor in, so ANY change
  //    anywhere in the stack breaks the chain from that layer on — the
  //    audit's comparison unit across builds, flags and machines.
  std::printf("4) end-to-end parameter digest chain (NeuMF, 2 workers, "
              "4 steps, seed 7)\n");
  const DigestChain chain = audit_chain(/*overlap=*/false);
  if (!agrees(chain, audit_chain(/*overlap=*/true), "pipelined comm path")) {
    return 1;
  }
  for (const int degree : {1, 2, 4}) {
    if (!agrees(chain, shard_chain(degree),
                "ZeRO-1 trainer at shard degree " + std::to_string(degree))) {
      return 1;
    }
  }
  // save degree, restore degree, optional mid-run reshard degree.
  struct Case {
    int save, restore, mid;
    const char* label;
  };
  for (const Case& c :
       {Case{1, 1, 0, "save@1 -> recover@1"},
        Case{4, 4, 0, "save@4 -> recover@4"},
        Case{4, 1, 0, "save@4 -> recover@1 (reshard-on-recover)"},
        Case{4, 4, 2, "save@4 -> recover@4 -> mid-run reshard to 2"}}) {
    if (!agrees(chain, recovered_chain(c.save, c.restore, c.mid),
                std::string("peer recovery [") + c.label + "]")) {
      return 1;
    }
  }
  // The replicated control plane under attack: f = 2 of 2f+1 = 5 replicas
  // crash (including the bootstrap leader) with partitions on top, at both
  // worker counts.  Params chain AND decision-content tail must match the
  // controller-quiet run bit for bit.
  for (const std::int64_t workers : {std::int64_t{2}, std::int64_t{4}}) {
    std::uint64_t quiet_tail = 0;
    std::uint64_t stormy_tail = 0;
    std::int64_t quiet_failovers = 0;
    std::int64_t stormy_failovers = 0;
    const DigestChain quiet = controller_chain(
        /*stormy=*/false, workers, &quiet_tail, &quiet_failovers);
    const DigestChain stormy = controller_chain(
        /*stormy=*/true, workers, &stormy_tail, &stormy_failovers);
    const std::string at = " at " + std::to_string(workers) + " workers";
    if (!agrees(chain, quiet, "controller-quiet run" + at) ||
        !agrees(chain, stormy, "controller failover run" + at)) {
      return 1;
    }
    if (quiet_tail != stormy_tail) {
      std::fprintf(stderr,
                   "   => FATAL: decision stream forked under controller "
                   "faults at %lld worker(s) (%016llx vs %016llx)\n",
                   static_cast<long long>(workers),
                   static_cast<unsigned long long>(quiet_tail),
                   static_cast<unsigned long long>(stormy_tail));
      return 1;
    }
    if (quiet_failovers != 0 || stormy_failovers < 1) {
      std::fprintf(stderr,
                   "   => FATAL: failover counts wrong at %lld worker(s) "
                   "(quiet %lld, stormy %lld)\n",
                   static_cast<long long>(workers),
                   static_cast<long long>(quiet_failovers),
                   static_cast<long long>(stormy_failovers));
      return 1;
    }
    std::printf("   (%lld failover(s)%s, decision tails agree)\n",
                static_cast<long long>(stormy_failovers), at.c_str());
  }
  for (const auto& rec : chain.records()) {
    std::printf("   layer %3llu digest %016llx chain %016llx\n",
                static_cast<unsigned long long>(rec.id),
                static_cast<unsigned long long>(rec.digest),
                static_cast<unsigned long long>(rec.chain));
  }
  std::printf("   chain tail: %016llx\n",
              static_cast<unsigned long long>(chain.tail()));

  if (!emit_path.empty()) {
    std::ofstream out(emit_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
      return 2;
    }
    write_chain(out, chain);
    std::printf("   chain written to %s\n", emit_path.c_str());
  }
  if (!compare_path.empty()) {
    DigestChain expected;
    if (!read_chain(compare_path, expected)) {
      std::fprintf(stderr, "cannot read a valid chain from %s\n",
                   compare_path.c_str());
      return 2;
    }
    if (chain == expected) {
      std::printf("   => chain MATCHES %s\n", compare_path.c_str());
    } else {
      const auto& got = chain.records();
      const auto& want = expected.records();
      for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
        if (i < got.size() && i < want.size() && got[i] == want[i]) continue;
        std::fprintf(stderr, "   first divergence at layer %zu\n", i);
        break;
      }
      std::fprintf(stderr, "   => chain DIFFERS from %s\n",
                   compare_path.c_str());
      return 1;
    }
  }
  return 0;
}
