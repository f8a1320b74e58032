// google-benchmark microbenchmarks of the substrate hot paths: GEMM kernel
// variants, SIMD backend sweeps (GEMM, conv, operand transpose, row-blocked
// GEMM, same-geometry im2col/col2im, Bert attention, GELU backward and
// Dropout, reductions), ring all-reduce, Philox, EST context
// capture/restore and on-demand checkpointing.
//
// Modes:
//   microbench_kernels                          google-benchmark suite
//   microbench_kernels --record <path>          self-timed SIMD speedup
//                                               artifact (BENCH_kernels.json)
//   microbench_kernels --check-baseline <path>  gate measured SIMD speedups
//                                               against bench/kernel_baseline.json
//
// The --record/--check-baseline path times with steady_clock inside THIS
// release binary, so a debug system benchmark library cannot taint the
// numbers; the plain google-benchmark mode is gated on both build types.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "comm/ring.hpp"
#include "core/engine.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reduce.hpp"
#include "kernels/simd.hpp"
#include "models/datasets.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/dropout.hpp"
#include "rng/philox.hpp"
#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace {

using namespace easyscale;

void BM_GemmVariant(benchmark::State& state) {
  const auto variant = static_cast<kernels::GemmVariant>(state.range(0));
  const std::int64_t n = state.range(1);
  rng::Philox gen(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  for (auto _ : state) {
    kernels::gemm_variant(variant, n, n, n, a, b, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmVariant)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {32, 64}})
    ->ArgNames({"variant", "n"});

// Intra-op thread-count sweep over the native GEMM: same problem and
// variant at every thread count, so any result difference would be a
// determinism bug, and the throughput ratio is the parallel speedup.
void BM_GemmNativeThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::int64_t n = state.range(1);
  kernels::ExecContext ctx;
  ctx.device = kernels::DeviceType::kV100;
  ctx.policy = kernels::KernelPolicy::kDeterministic;
  ctx.intra_op_threads = threads;
  rng::Philox gen(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  for (auto _ : state) {
    kernels::gemm(ctx, n, n, n, a, b, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNativeThreads)
    ->ArgsProduct({{1, 2, 4, 8}, {256, 1024}})
    ->ArgNames({"threads", "n"})
    ->Unit(benchmark::kMillisecond);

// Thread sweep over the im2col conv path (forward + backward), the other
// acceptance-gate kernel.
void BM_ConvIm2colThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  kernels::ExecContext ctx;
  ctx.device = kernels::DeviceType::kV100;
  ctx.policy = kernels::KernelPolicy::kDeterministic;  // im2col + native gemm
  ctx.intra_op_threads = threads;
  const kernels::Conv2dDims d{.batch = 4,
                              .in_channels = 32,
                              .in_h = 32,
                              .in_w = 32,
                              .out_channels = 64,
                              .kernel_h = 3,
                              .kernel_w = 3,
                              .stride = 1,
                              .pad = 1,
                              .groups = 1};
  rng::Philox gen(4);
  std::vector<float> input(static_cast<std::size_t>(d.batch * d.in_channels *
                                                    d.in_h * d.in_w));
  std::vector<float> weight(static_cast<std::size_t>(
      d.out_channels * d.in_channels * d.kernel_h * d.kernel_w));
  std::vector<float> bias(static_cast<std::size_t>(d.out_channels));
  std::vector<float> out(static_cast<std::size_t>(d.batch * d.out_channels *
                                                  d.out_h() * d.out_w()));
  rng::fill_normal(gen, input, 0.0f, 1.0f);
  rng::fill_normal(gen, weight, 0.0f, 0.1f);
  rng::fill_normal(gen, bias, 0.0f, 0.1f);
  for (auto _ : state) {
    kernels::conv2d_forward(ctx, d, input, weight, bias, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ConvIm2colThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

// SIMD backend sweep over the native GEMM: identical problem, variant and
// thread count per backend, so the throughput ratio is the pure vector
// speedup (results are bitwise identical by the lane-tree contract).
void BM_GemmSimdBackend(benchmark::State& state) {
  const auto backend = static_cast<kernels::SimdBackend>(state.range(0));
  const std::int64_t n = state.range(1);
  if (!kernels::simd_backend_available(backend)) {
    state.SkipWithError("backend unavailable on this host/build");
    return;
  }
  kernels::ExecContext ctx;
  ctx.policy = kernels::KernelPolicy::kDeterministic;
  ctx.intra_op_threads = 1;
  ctx.simd = backend;
  rng::Philox gen(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  for (auto _ : state) {
    kernels::gemm(ctx, n, n, n, a, b, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(kernels::simd_backend_name(backend));
}
BENCHMARK(BM_GemmSimdBackend)
    ->ArgsProduct({{1, 2, 3}, {128, 256}})
    ->ArgNames({"backend", "n"});

// Same sweep over the im2col conv forward (the other acceptance-gate
// kernel) and the direct-canonical D2 conv.
void BM_ConvSimdBackend(benchmark::State& state) {
  const auto backend = static_cast<kernels::SimdBackend>(state.range(0));
  const bool direct = state.range(1) != 0;
  if (!kernels::simd_backend_available(backend)) {
    state.SkipWithError("backend unavailable on this host/build");
    return;
  }
  kernels::ExecContext ctx;
  ctx.policy = direct ? kernels::KernelPolicy::kHardwareAgnostic
                      : kernels::KernelPolicy::kDeterministic;
  ctx.intra_op_threads = 1;
  ctx.simd = backend;
  const kernels::Conv2dDims d{.batch = 4,
                              .in_channels = 32,
                              .in_h = 32,
                              .in_w = 32,
                              .out_channels = 64,
                              .kernel_h = 3,
                              .kernel_w = 3,
                              .stride = 1,
                              .pad = 1,
                              .groups = 1};
  rng::Philox gen(4);
  std::vector<float> input(static_cast<std::size_t>(d.batch * d.in_channels *
                                                    d.in_h * d.in_w));
  std::vector<float> weight(static_cast<std::size_t>(
      d.out_channels * d.in_channels * d.kernel_h * d.kernel_w));
  std::vector<float> bias(static_cast<std::size_t>(d.out_channels));
  std::vector<float> out(static_cast<std::size_t>(d.batch * d.out_channels *
                                                  d.out_h() * d.out_w()));
  rng::fill_normal(gen, input, 0.0f, 1.0f);
  rng::fill_normal(gen, weight, 0.0f, 0.1f);
  rng::fill_normal(gen, bias, 0.0f, 0.1f);
  for (auto _ : state) {
    kernels::conv2d_forward(ctx, d, input, weight, bias, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.SetLabel(kernels::simd_backend_name(backend));
}
BENCHMARK(BM_ConvSimdBackend)
    ->ArgsProduct({{1, 2, 3}, {0, 1}})
    ->ArgNames({"backend", "direct"});

void BM_RingAllreduce(benchmark::State& state) {
  const std::int64_t world = state.range(0);
  const std::size_t n = 1 << 14;
  rng::Philox gen(2);
  std::vector<std::vector<float>> parts(static_cast<std::size_t>(world),
                                        std::vector<float>(n));
  for (auto& p : parts) rng::fill_normal(gen, p, 0.0f, 1.0f);
  std::vector<std::span<const float>> views(parts.begin(), parts.end());
  std::vector<float> out(n);
  for (auto _ : state) {
    comm::ring_allreduce_sum(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(world * n * 4));
}
BENCHMARK(BM_RingAllreduce)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_PhiloxNormal(benchmark::State& state) {
  rng::Philox gen(3);
  std::vector<float> out(1024);
  for (auto _ : state) {
    rng::fill_normal(gen, out, 0.0f, 1.0f);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PhiloxNormal);

void BM_OnDemandCheckpoint(benchmark::State& state) {
  auto wd = models::make_dataset_for("ResNet50", 64, 16, 1);
  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet50";
  cfg.num_ests = 4;
  cfg.batch_per_est = 2;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{}});
  engine.run_steps(1);
  for (auto _ : state) {
    auto bytes = engine.checkpoint();
    benchmark::DoNotOptimize(bytes.data());
    state.counters["ckpt_bytes"] = static_cast<double>(bytes.size());
  }
}
BENCHMARK(BM_OnDemandCheckpoint);

void BM_ElasticReconfigure(benchmark::State& state) {
  auto wd = models::make_dataset_for("ResNet50", 64, 16, 1);
  core::EasyScaleConfig cfg;
  cfg.workload = "ResNet50";
  cfg.num_ests = 4;
  cfg.batch_per_est = 2;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{}});
  engine.run_steps(1);
  std::size_t workers = 2;
  for (auto _ : state) {
    engine.configure_workers(
        std::vector<core::WorkerSpec>(workers, core::WorkerSpec{}));
    workers = workers == 2 ? 4 : 2;
  }
}
BENCHMARK(BM_ElasticReconfigure);

// ---------------------------------------------------------------------------
// Self-timed SIMD speedup section (--record / --check-baseline).
//
// Timing uses steady_clock inside this binary, so only easyscale's own
// build type matters (guard_release_build); the system benchmark library's
// build type is recorded for transparency but cannot taint the numbers.
// ---------------------------------------------------------------------------

/// Best-of-5 seconds per call: each repetition runs `fn` until >= 25 ms
/// elapsed; the minimum repetition rate is the least-noisy estimate.
double best_seconds_per_call(const std::function<void()>& fn) {
  fn();  // warm caches and scratch arenas
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    int iters = 0;
    const double elapsed = bench::time_seconds([&] {
      const auto t0 = std::chrono::steady_clock::now();
      do {
        fn();
        ++iters;
      } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count() < 0.025);
    });
    best = std::min(best, elapsed / iters);
  }
  return best;
}

struct SimdMeasurement {
  std::string kernel;                 // e.g. "gemm_n128"
  double flops_per_call;              // for GFLOP/s reporting
  std::vector<std::pair<kernels::SimdBackend, double>> seconds;  // per backend

  [[nodiscard]] double seconds_for(kernels::SimdBackend b) const {
    for (const auto& [backend, sec] : seconds) {
      if (backend == b) return sec;
    }
    return -1.0;
  }
};

std::vector<SimdMeasurement> measure_simd_kernels() {
  std::vector<SimdMeasurement> out;
  const auto backends = kernels::available_simd_backends();

  const auto sweep = [&](std::string name, double flops,
                         const std::function<void(const kernels::ExecContext&)>&
                             body) {
    SimdMeasurement m;
    m.kernel = std::move(name);
    m.flops_per_call = flops;
    for (kernels::SimdBackend backend : backends) {
      kernels::ExecContext ctx;
      ctx.policy = kernels::KernelPolicy::kDeterministic;
      ctx.intra_op_threads = 1;
      ctx.simd = backend;
      m.seconds.emplace_back(backend,
                             best_seconds_per_call([&] { body(ctx); }));
    }
    out.push_back(std::move(m));
  };

  for (const std::int64_t n : {std::int64_t{128}, std::int64_t{256}}) {
    rng::Philox gen(1);
    auto a = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(n * n));
    auto b = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(n * n));
    auto c = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(n * n));
    rng::fill_normal(gen, *a, 0.0f, 1.0f);
    rng::fill_normal(gen, *b, 0.0f, 1.0f);
    sweep("gemm_n" + std::to_string(n), 2.0 * n * n * n,
          [=](const kernels::ExecContext& ctx) {
            kernels::gemm(ctx, n, n, n, *a, *b, *c, false);
            benchmark::DoNotOptimize(c->data());
          });
  }

  {
    const kernels::Conv2dDims d{.batch = 4,
                                .in_channels = 32,
                                .in_h = 32,
                                .in_w = 32,
                                .out_channels = 64,
                                .kernel_h = 3,
                                .kernel_w = 3,
                                .stride = 1,
                                .pad = 1,
                                .groups = 1};
    rng::Philox gen(4);
    auto input = std::make_shared<std::vector<float>>(static_cast<std::size_t>(
        d.batch * d.in_channels * d.in_h * d.in_w));
    auto weight = std::make_shared<std::vector<float>>(static_cast<std::size_t>(
        d.out_channels * d.in_channels * d.kernel_h * d.kernel_w));
    auto bias = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.out_channels));
    auto outbuf = std::make_shared<std::vector<float>>(static_cast<std::size_t>(
        d.batch * d.out_channels * d.out_h() * d.out_w()));
    rng::fill_normal(gen, *input, 0.0f, 1.0f);
    rng::fill_normal(gen, *weight, 0.0f, 0.1f);
    rng::fill_normal(gen, *bias, 0.0f, 0.1f);
    const double conv_flops = 2.0 * d.batch * d.out_channels * d.out_h() *
                              d.out_w() * d.in_channels * d.kernel_h *
                              d.kernel_w;
    sweep("conv_im2col", conv_flops, [=](const kernels::ExecContext& ctx) {
      kernels::conv2d_forward(ctx, d, *input, *weight, *bias, *outbuf);
      benchmark::DoNotOptimize(outbuf->data());
    });
    sweep("conv_direct", conv_flops, [=](const kernels::ExecContext& ctx) {
      kernels::ExecContext d2 = ctx;
      d2.policy = kernels::KernelPolicy::kHardwareAgnostic;
      kernels::conv2d_forward(d2, d, *input, *weight, *bias, *outbuf);
      benchmark::DoNotOptimize(outbuf->data());
    });
  }

  {
    // est_conv's layer1 conv (ResNet50-mini on 8x8 inputs, batch 8): the
    // weight-gradient GEMM dW[f, c*kh*kw] += dOut[f, oh*ow] * cols^T, whose
    // B^T the vector backends pack straight into their column tiles, and
    // the whole im2col backward (W^T once, im2col, gemm_nt, gemm, col2im).
    const kernels::Conv2dDims d{.batch = 8,
                                .in_channels = 8,
                                .in_h = 8,
                                .in_w = 8,
                                .out_channels = 8,
                                .kernel_h = 3,
                                .kernel_w = 3,
                                .stride = 1,
                                .pad = 1,
                                .groups = 1};
    const std::int64_t kdim = d.in_channels * d.kernel_h * d.kernel_w;
    const std::int64_t ohow = d.out_h() * d.out_w();
    rng::Philox gen(5);
    auto input = std::make_shared<std::vector<float>>(static_cast<std::size_t>(
        d.batch * d.in_channels * d.in_h * d.in_w));
    auto weight = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.out_channels * kdim));
    auto grad_out = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.batch * d.out_channels * ohow));
    auto cols = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(kdim * ohow));
    auto grad_input = std::make_shared<std::vector<float>>(input->size());
    auto grad_weight = std::make_shared<std::vector<float>>(weight->size());
    auto grad_bias = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.out_channels));
    rng::fill_normal(gen, *input, 0.0f, 1.0f);
    rng::fill_normal(gen, *weight, 0.0f, 0.1f);
    rng::fill_normal(gen, *grad_out, 0.0f, 1.0f);
    rng::fill_normal(gen, *cols, 0.0f, 1.0f);
    const double gemm_flops = 2.0 * d.out_channels * kdim * ohow;
    sweep("gemm_nt_l1", gemm_flops, [=](const kernels::ExecContext& ctx) {
      kernels::gemm_nt(ctx, d.out_channels, kdim, ohow,
                       std::span<const float>(grad_out->data(),
                                              static_cast<std::size_t>(
                                                  d.out_channels * ohow)),
                       *cols, *grad_weight, false);
      benchmark::DoNotOptimize(grad_weight->data());
    });
    sweep("conv_bwd_l1", 2.0 * d.batch * gemm_flops,
          [=](const kernels::ExecContext& ctx) {
            std::fill(grad_input->begin(), grad_input->end(), 0.0f);
            kernels::conv2d_backward(ctx, d, *input, *weight, *grad_out,
                                     *grad_input, *grad_weight, *grad_bias);
            benchmark::DoNotOptimize(grad_input->data());
          });
  }

  {
    // est_elastic_bert's attention (Bert-mini: [4, 16, 32], 2 heads of 16),
    // forward + backward: four projection GEMMs around the score, softmax
    // and context row products.
    const std::int64_t batch = 4, t = 16, dim = 32, heads = 2;
    auto layer =
        std::make_shared<nn::MultiheadSelfAttention>("attn", dim, heads);
    rng::Philox gen(8);
    layer->init_weights(gen);
    auto x = std::make_shared<tensor::Tensor>(tensor::Shape{batch, t, dim});
    auto gy = std::make_shared<tensor::Tensor>(tensor::Shape{batch, t, dim});
    rng::fill_normal(gen, x->data(), 0.0f, 1.0f);
    rng::fill_normal(gen, gy->data(), 0.0f, 1.0f);
    const double proj_flops = 4.0 * 2.0 * batch * t * dim * dim;
    const double core_flops = 2.0 * 2.0 * batch * t * t * dim;
    sweep("attention_bert", 3.0 * (proj_flops + core_flops),
          [=](const kernels::ExecContext& ctx) {
            autograd::StepContext step;
            step.exec = &ctx;
            const tensor::Tensor out = layer->forward(step, *x);
            const tensor::Tensor dx = layer->backward(step, *gy);
            benchmark::DoNotOptimize(out.raw());
            benchmark::DoNotOptimize(dx.raw());
          });
  }

  {
    // Bert-mini's feed-forward GELU backward ([4 * 16, 64]) over
    // preallocated buffers: the gelu_bwd body against the scalar loop.
    // GELU::backward would also allocate its output on every call, and the
    // allocator's time is no part of either body.
    const std::int64_t n = 4 * 16 * 64;
    rng::Philox gen(9);
    auto x = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n));
    auto t = std::make_shared<std::vector<float>>(x->size());
    auto gy = std::make_shared<std::vector<float>>(x->size());
    auto gx = std::make_shared<std::vector<float>>(x->size());
    rng::fill_normal(gen, *x, 0.0f, 1.0f);
    rng::fill_normal(gen, *gy, 0.0f, 1.0f);
    std::transform(x->begin(), x->end(), t->begin(), [](float v) {
      return std::tanh(kernels::kGeluC * (v + kernels::kGeluA * v * v * v));
    });
    sweep("gelu_bwd", 12.0 * static_cast<double>(n),
          [=](const kernels::ExecContext& ctx) {
            nn::gelu_backward_body(ctx.simd_ops(), x->data(), t->data(),
                                   gy->data(), gx->data(), n);
            benchmark::DoNotOptimize(gx->data());
          });
  }

  {
    const std::int64_t stride = 1024, count = 2048;
    rng::Philox gen(7);
    auto values = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(stride * count));
    auto slots = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(stride));
    rng::fill_normal(gen, *values, 0.0f, 1.0f);
    sweep("reduce_batch", static_cast<double>(stride * count),
          [=](const kernels::ExecContext& ctx) {
            std::fill(slots->begin(), slots->end(), 0.0f);
            kernels::reduce_sum_strided_batch(ctx, *values, stride, count,
                                              *slots);
            benchmark::DoNotOptimize(slots->data());
          });
  }

  {
    // est_conv's layer-3 operand shapes (16 -> 16 channels, 3x3, 4x4
    // planes): the W^T block transpose [16, 144] -> [144, 16] and the dX
    // column product dcols[144, 16] = W^T[144, 16] * dOut[16, 16], whose
    // whole rows run on the row-blocked GEMM body.
    const std::int64_t fg = 16, kdim = 144, ohow = 16;
    rng::Philox gen(6);
    auto w = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(fg * kdim));
    auto wt = std::make_shared<std::vector<float>>(w->size());
    auto go = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(fg * ohow));
    auto dcols = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(kdim * ohow));
    rng::fill_normal(gen, *w, 0.0f, 0.1f);
    rng::fill_normal(gen, *go, 0.0f, 1.0f);
    sweep("transpose_16x144", static_cast<double>(fg * kdim),
          [=](const kernels::ExecContext& ctx) {
            kernels::transpose(ctx, fg, kdim, *w, *wt);
            benchmark::DoNotOptimize(wt->data());
          });
    sweep("gemm_rows_m144", 2.0 * kdim * ohow * fg,
          [=](const kernels::ExecContext& ctx) {
            kernels::gemm(ctx, kdim, ohow, fg, *wt, *go, *dcols, false);
            benchmark::DoNotOptimize(dcols->data());
          });
  }

  for (const std::int64_t side : {std::int64_t{4}, std::int64_t{8}}) {
    // est_conv's same-geometry 3x3 convs: im2col then col2im of one
    // sample's group (16 channels on 4x4 planes, 8 on 8x8 planes).
    const kernels::Conv2dDims d{.batch = 1,
                                .in_channels = side == 4 ? 16 : 8,
                                .in_h = side,
                                .in_w = side,
                                .out_channels = side == 4 ? 16 : 8,
                                .kernel_h = 3,
                                .kernel_w = 3,
                                .stride = 1,
                                .pad = 1,
                                .groups = 1};
    const std::int64_t plane = side * side;
    rng::Philox gen(10);
    auto input = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.in_channels * plane));
    auto cols = std::make_shared<std::vector<float>>(
        static_cast<std::size_t>(d.in_channels * 9 * plane));
    auto grad = std::make_shared<std::vector<float>>(input->size());
    rng::fill_normal(gen, *input, 0.0f, 1.0f);
    sweep("conv_same_" + std::to_string(side) + "x" + std::to_string(side),
          static_cast<double>(2 * cols->size()),
          [=](const kernels::ExecContext& ctx) {
            kernels::im2col(ctx, d, *input, 0, *cols);
            std::fill(grad->begin(), grad->end(), 0.0f);
            kernels::col2im(ctx, d, *cols, 0, *grad);
            benchmark::DoNotOptimize(grad->data());
          });
  }

  {
    // Bert-mini's feed-forward Dropout ([4 * 16, 64], p = 0.1) forward:
    // 4096 Philox draws thresholded into the mask, then the mask applied.
    const tensor::Shape shape{4 * 16, 64};
    auto dropout = std::make_shared<nn::Dropout>(0.1f);
    auto x = std::make_shared<tensor::Tensor>(shape);
    auto streams = std::make_shared<rng::StreamSet>();
    streams->seed_all(11, 0);
    rng::Philox gen(11);
    rng::fill_normal(gen, x->data(), 0.0f, 1.0f);
    sweep("dropout_bert", static_cast<double>(shape.numel()),
          [=](const kernels::ExecContext& ctx) {
            autograd::StepContext step;
            step.exec = &ctx;
            step.rng = streams.get();
            step.training = true;
            const tensor::Tensor y = dropout->forward(step, *x);
            benchmark::DoNotOptimize(y.raw());
          });
  }
  return out;
}

double speedup_vs_scalar(const SimdMeasurement& m, kernels::SimdBackend b) {
  const double scalar = m.seconds_for(kernels::SimdBackend::kScalar);
  const double vec = m.seconds_for(b);
  return (scalar > 0.0 && vec > 0.0) ? scalar / vec : 0.0;
}

int record_simd_artifact(const char* path,
                         const std::vector<SimdMeasurement>& ms) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) {
    std::printf("ERROR: cannot write %s\n", path);
    return 1;
  }
  char date[64] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"comment\": \"SIMD backend speedups, self-timed "
               "(steady_clock, best of 5) inside the release easyscale "
               "binary; the system google-benchmark library's timing loop "
               "is not used, so its build type cannot taint these "
               "numbers.\",\n");
  std::fprintf(f, "  \"context\": {\n");
  std::fprintf(f, "    \"date\": \"%s\",\n", date);
  std::fprintf(f, "    \"easyscale_build_type\": \"%s\",\n",
               bench::build_type());
  std::fprintf(f, "    \"benchmark_library_build_type\": \"%s\",\n",
               bench::benchmark_library_build_type().c_str());
  std::fprintf(f, "    \"timer\": \"self (steady_clock)\",\n");
  std::fprintf(f, "    \"intra_op_threads\": 1,\n");
  std::fprintf(f, "    \"detected_backend\": \"%s\"\n",
               kernels::simd_backend_name(kernels::detected_simd_backend()));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& m = ms[i];
    for (std::size_t j = 0; j < m.seconds.size(); ++j) {
      const auto& [backend, sec] = m.seconds[j];
      const bool last = i + 1 == ms.size() && j + 1 == m.seconds.size();
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"backend\": \"%s\", "
                   "\"seconds_per_call\": %.9g, \"gflops\": %.4g, "
                   "\"speedup_vs_scalar\": %.4g}%s\n",
                   m.kernel.c_str(), kernels::simd_backend_name(backend),
                   sec, m.flops_per_call / sec * 1e-9,
                   speedup_vs_scalar(m, backend), last ? "" : ",");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  bench::note(std::string("SIMD speedup artifact written to ") + path);
  return 0;
}

int check_simd_baseline(const char* path,
                        const std::vector<SimdMeasurement>& ms) {
  std::FILE* b = std::fopen(path, "rb");
  if (b == nullptr) {
    std::printf("ERROR: cannot read baseline %s\n", path);
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), b)) > 0) text.append(buf, n);
  std::fclose(b);

  bool ok = true;
  int checked = 0;
  // Baseline rows: {"kernel": ..., "backend": ..., "min_speedup_vs_scalar": X}
  const char* at = text.c_str();
  while ((at = std::strstr(at, "\"kernel\": \"")) != nullptr) {
    char kernel[64] = {0};
    char backend[32] = {0};
    double min_speedup = 0.0;
    const char* bk = std::strstr(at, "\"backend\": \"");
    const char* sp = std::strstr(at, "\"min_speedup_vs_scalar\":");
    if (std::sscanf(at, "\"kernel\": \"%63[^\"]\"", kernel) != 1 ||
        bk == nullptr ||
        std::sscanf(bk, "\"backend\": \"%31[^\"]\"", backend) != 1 ||
        sp == nullptr ||
        std::sscanf(sp, "\"min_speedup_vs_scalar\": %lf", &min_speedup) != 1) {
      std::printf("BASELINE: malformed row near '%.40s'\n", at);
      ok = false;
      ++at;
      continue;
    }
    at = sp;
    kernels::SimdBackend want = kernels::SimdBackend::kScalar;
    if (std::strcmp(backend, "avx2") == 0) {
      want = kernels::SimdBackend::kAvx2;
    } else if (std::strcmp(backend, "avx512") == 0) {
      want = kernels::SimdBackend::kAvx512;
    } else {
      std::printf("BASELINE: unknown backend '%s'\n", backend);
      ok = false;
      continue;
    }
    if (!kernels::simd_backend_available(want)) {
      // The CI simd-cross-check job guarantees an AVX2-capable builder;
      // elsewhere an unavailable backend is a skip, not a failure.
      std::printf("SKIP: %s/%s — backend unavailable on this host/build\n",
                  kernel, backend);
      continue;
    }
    const SimdMeasurement* m = nullptr;
    for (const auto& cand : ms) {
      if (cand.kernel == kernel) m = &cand;
    }
    if (m == nullptr) {
      std::printf("BASELINE: no measurement for kernel '%s'\n", kernel);
      ok = false;
      continue;
    }
    const double got = speedup_vs_scalar(*m, want);
    const bool pass = got >= min_speedup;
    std::printf("%s: %s/%s speedup %.2fx (floor %.2fx)\n",
                pass ? "OK" : "REGRESSION", kernel, backend, got, min_speedup);
    if (!pass) ok = false;
    ++checked;
  }
  if (checked == 0) {
    std::printf("BASELINE: no applicable rows checked in %s\n", path);
    return 1;
  }
  if (ok) bench::note("SIMD speedups meet the checked-in baseline floors");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* record_path = nullptr;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--record") == 0 && i + 1 < argc) {
      record_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }
  if (record_path != nullptr || baseline_path != nullptr) {
    // Self-timed SIMD speedup path: debug-build numbers are refused (the
    // timing loop lives in THIS binary; the benchmark library is unused).
    if (!easyscale::bench::guard_release_build(
            record_path != nullptr ? record_path : "kernel baseline check")) {
      return 2;
    }
    easyscale::bench::banner("microbench_kernels",
                             "SIMD backend speedups (self-timed)");
    const auto measurements = measure_simd_kernels();
    int rc = 0;
    if (record_path != nullptr) {
      rc = record_simd_artifact(record_path, measurements);
    }
    if (rc == 0 && baseline_path != nullptr) {
      rc = check_simd_baseline(baseline_path, measurements);
    }
    return rc;
  }
  // Refuse debug-build numbers (BENCH_kernels.json must come from a
  // release build of our code AND a release benchmark library — the
  // google-benchmark timing loop runs inside that library).
  if (!easyscale::bench::guard_release_build("BENCH_kernels.json")) return 2;
  if (!easyscale::bench::guard_release_benchmark_library("BENCH_kernels.json")) {
    return 2;
  }
  benchmark::AddCustomContext("easyscale_build_type",
                              easyscale::bench::build_type());
  benchmark::AddCustomContext(
      "easyscale_detected_simd",
      easyscale::kernels::simd_backend_name(
          easyscale::kernels::detected_simd_backend()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
