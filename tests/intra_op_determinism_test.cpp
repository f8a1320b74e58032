// Cross-thread-count bitwise equality: every kernel and both end-to-end
// trainers must produce identical bits for every intra_op_threads value.
// This is the acceptance gate of the deterministic-parallelism refactor —
// "threads change throughput, never results" (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <vector>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "kernels/conv.hpp"
#include "kernels/custom.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"
#include "kernels/scatter.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"

namespace easyscale::kernels {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              float stddev = 1.0f) {
  rng::Philox gen(seed);
  std::vector<float> v(n);
  rng::fill_normal(gen, v, 0.0f, stddev);
  return v;
}

ExecContext make_ctx(int threads, KernelPolicy policy,
                     DeviceType device = DeviceType::kV100) {
  ExecContext ctx;
  ctx.device = device;
  ctx.policy = policy;
  ctx.intra_op_threads = threads;
  return ctx;
}

TEST(IntraOpDeterminism, AllGemmVariantsThreadInvariant) {
  const std::int64_t m = 37, n = 53, k = 41;
  const auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  for (const auto variant :
       {GemmVariant::kSequential, GemmVariant::kInterleaved2,
        GemmVariant::kInterleaved4, GemmVariant::kInterleaved8,
        GemmVariant::kBlocked8}) {
    // Reference: the ctx-free overload, sequential by construction.
    std::vector<float> ref(static_cast<std::size_t>(m * n));
    gemm_variant(variant, m, n, k, a, b, ref, false);
    const auto ref_digest = digest_floats(ref);
    for (const int threads : kThreadCounts) {
      ExecContext ctx = make_ctx(threads, KernelPolicy::kDeterministic);
      std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
      gemm_variant(ctx, variant, m, n, k, a, b, c, false);
      EXPECT_EQ(digest_floats(c), ref_digest)
          << "variant=" << static_cast<int>(variant)
          << " threads=" << threads;
    }
  }
}

TEST(IntraOpDeterminism, GemmTnNtThreadInvariant) {
  const std::int64_t m = 19, n = 23, k = 29;
  const auto at = random_vec(static_cast<std::size_t>(k * m), 3);  // [k, m]
  const auto b = random_vec(static_cast<std::size_t>(k * n), 4);
  const auto a = random_vec(static_cast<std::size_t>(m * k), 5);
  const auto bt = random_vec(static_cast<std::size_t>(n * k), 6);  // [n, k]
  auto run = [&](int threads) {
    ExecContext ctx = make_ctx(threads, KernelPolicy::kDeterministic);
    std::vector<float> c_tn(static_cast<std::size_t>(m * n), 0.5f);
    std::vector<float> c_nt(static_cast<std::size_t>(m * n), 0.5f);
    gemm_tn(ctx, m, n, k, at, b, c_tn, true);
    gemm_nt(ctx, m, n, k, a, bt, c_nt, true);
    Digest d;
    d.update(std::span<const float>(c_tn));
    d.update(std::span<const float>(c_nt));
    return d.value();
  };
  const auto base = run(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), base) << "threads=" << threads;
  }
}

TEST(IntraOpDeterminism, CustomD2KernelThreadInvariant) {
  static const int handle = register_custom_gemm("kahan_intraop", kahan_dot);
  const std::int64_t m = 21, n = 34, k = 55;
  const auto a = random_vec(static_cast<std::size_t>(m * k), 7);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 8);
  auto run = [&](int threads, DeviceType device) {
    ExecContext ctx = make_ctx(threads, KernelPolicy::kHardwareAgnostic, device);
    ctx.custom_gemm = handle;
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm(ctx, m, n, k, a, b, c, false);
    return digest_floats(c);
  };
  const auto base = run(1, DeviceType::kV100);
  for (const int threads : kThreadCounts) {
    // D2 + custom kernel: invariant across threads AND device types.
    EXPECT_EQ(run(threads, DeviceType::kV100), base) << threads;
    EXPECT_EQ(run(threads, DeviceType::kT4), base) << threads;
  }
}

TEST(IntraOpDeterminism, ConvBothPoliciesThreadInvariant) {
  const Conv2dDims d{.batch = 2,
                     .in_channels = 4,
                     .in_h = 9,
                     .in_w = 9,
                     .out_channels = 6,
                     .kernel_h = 3,
                     .kernel_w = 3,
                     .stride = 2,
                     .pad = 1,
                     .groups = 2};
  const auto input = random_vec(
      static_cast<std::size_t>(d.batch * d.in_channels * d.in_h * d.in_w), 9);
  const auto weight = random_vec(
      static_cast<std::size_t>(d.out_channels * (d.in_channels / d.groups) *
                               d.kernel_h * d.kernel_w),
      10, 0.2f);
  const auto bias =
      random_vec(static_cast<std::size_t>(d.out_channels), 11, 0.1f);
  const std::size_t out_n =
      static_cast<std::size_t>(d.batch * d.out_channels * d.out_h() * d.out_w());
  const auto grad_out = random_vec(out_n, 12);
  for (const auto policy :
       {KernelPolicy::kDeterministic, KernelPolicy::kHardwareAgnostic}) {
    auto run = [&](int threads) {
      ExecContext ctx = make_ctx(threads, policy);
      std::vector<float> out(out_n);
      conv2d_forward(ctx, d, input, weight, bias, out);
      std::vector<float> gin(input.size(), 0.0f);
      std::vector<float> gw(weight.size(), 0.25f);  // accumulated into
      std::vector<float> gb(bias.size(), 0.25f);
      conv2d_backward(ctx, d, input, weight, grad_out, gin, gw, gb);
      Digest dg;
      dg.update(std::span<const float>(out));
      dg.update(std::span<const float>(gin));
      dg.update(std::span<const float>(gw));
      dg.update(std::span<const float>(gb));
      return dg.value();
    };
    const auto base = run(1);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(run(threads), base)
          << "policy=" << static_cast<int>(policy) << " threads=" << threads;
    }
  }
}

TEST(IntraOpDeterminism, ReduceBatchMatchesPerSlotLoop) {
  const std::int64_t slots = 23, count = 67;
  const auto values = random_vec(static_cast<std::size_t>(slots * count), 13);
  for (const auto device :
       {DeviceType::kV100, DeviceType::kP100, DeviceType::kT4}) {
    ExecContext seq = make_ctx(1, KernelPolicy::kDeterministic, device);
    std::vector<float> ref(static_cast<std::size_t>(slots), 0.125f);
    for (std::int64_t s = 0; s < slots; ++s) {
      ref[static_cast<std::size_t>(s)] +=
          reduce_sum_strided(seq, values, s, slots, count);
    }
    for (const int threads : kThreadCounts) {
      ExecContext ctx = make_ctx(threads, KernelPolicy::kDeterministic, device);
      std::vector<float> out(static_cast<std::size_t>(slots), 0.125f);
      reduce_sum_strided_batch(ctx, values, slots, count, out);
      EXPECT_EQ(digest_floats(out), digest_floats(ref))
          << "device=" << static_cast<int>(device) << " threads=" << threads;
    }
  }
}

TEST(IntraOpDeterminism, SortedScatterThreadInvariant) {
  const std::int64_t n = 300, width = 5, rows = 17;
  const auto src = random_vec(static_cast<std::size_t>(n * width), 14);
  std::vector<std::int64_t> indices(static_cast<std::size_t>(n));
  rng::Philox gen(15);
  for (auto& idx : indices) {
    idx = static_cast<std::int64_t>(gen.next_u64() % rows);  // heavy collisions
  }
  auto run = [&](int threads) {
    ExecContext ctx = make_ctx(threads, KernelPolicy::kDeterministic);
    std::vector<float> out(static_cast<std::size_t>(rows * width), 0.0f);
    scatter_add(ctx, indices, src, width, out);
    return digest_floats(out);
  };
  const auto base = run(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), base) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace easyscale::kernels

namespace easyscale::core {
namespace {

std::uint64_t engine_digest(const std::string& workload, bool d2, int threads,
                            bool parallel_workers, std::int64_t steps = 3) {
  auto wd = models::make_dataset_for(workload, 128, 16, 42);
  EasyScaleConfig cfg;
  cfg.workload = workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.determinism.d2 = d2;
  cfg.parallel_workers = parallel_workers;
  cfg.intra_op_threads = threads;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(2));
  e.run_steps(steps);
  return e.params_digest();
}

TEST(IntraOpDeterminism, EngineResNet18ThreadInvariantBothPolicies) {
  for (const bool d2 : {false, true}) {
    const auto base = engine_digest("ResNet18", d2, 1, false);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(engine_digest("ResNet18", d2, threads, false), base)
          << "d2=" << d2 << " threads=" << threads;
    }
  }
}

TEST(IntraOpDeterminism, EngineBertThreadInvariantBothPolicies) {
  for (const bool d2 : {false, true}) {
    const auto base = engine_digest("Bert", d2, 1, false);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(engine_digest("Bert", d2, threads, false), base)
          << "d2=" << d2 << " threads=" << threads;
    }
  }
}

TEST(IntraOpDeterminism, ParallelWorkersPlusIntraOpMatchesSequential) {
  // Both parallelism axes at once must still equal the fully sequential
  // run: worker threads and intra-op chunks share one bounded pool.
  const auto sequential = engine_digest("ResNet18", false, 1, false);
  EXPECT_EQ(engine_digest("ResNet18", false, 4, true), sequential);
}

TEST(IntraOpDeterminism, ScratchArenaStopsGrowingAfterWarmup) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  EasyScaleConfig cfg;
  cfg.workload = "ResNet18";
  cfg.num_ests = 2;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.intra_op_threads = 2;
  EasyScaleEngine e(cfg, *wd.train, wd.augment);
  e.configure_workers(std::vector<WorkerSpec>(1));
  e.run_steps(1);
  const std::size_t after_warmup = e.worker_exec(0).scratch.reserved_bytes();
  EXPECT_GT(after_warmup, 0u);  // gemm/conv scratch actually in use
  e.run_steps(3);
  EXPECT_EQ(e.worker_exec(0).scratch.reserved_bytes(), after_warmup);
}

TEST(IntraOpDeterminism, DDPTrainerThreadInvariant) {
  auto wd = models::make_dataset_for("ResNet18", 128, 16, 42);
  auto run = [&](int threads, bool parallel_workers) {
    parallel::TrainerConfig cfg;
    cfg.workload = "ResNet18";
    cfg.world_size = 2;
    cfg.batch_per_worker = 4;
    cfg.seed = 42;
    cfg.parallel_workers = parallel_workers;
    cfg.intra_op_threads = threads;
    parallel::Trainer t(cfg, *wd.train, wd.augment);
    t.run_steps(3);
    return t.params_digest();
  };
  const auto base = run(1, false);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(run(threads, false), base) << "threads=" << threads;
  }
  EXPECT_EQ(run(4, true), base);
}

}  // namespace
}  // namespace easyscale::core
