// Broad parameterized property sweeps over the numerics and the engine.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/engine.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "rng/sampling.hpp"

namespace easyscale {
namespace {

// ---------------------------------------------------------------- GEMM ---

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, EveryVariantMatchesDoubleReference) {
  const auto [m, n, k] = GetParam();
  rng::Philox gen(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int kk = 0; kk < k; ++kk) {
        ref[static_cast<std::size_t>(i * n + j)] +=
            static_cast<double>(a[static_cast<std::size_t>(i * k + kk)]) *
            static_cast<double>(b[static_cast<std::size_t>(kk * n + j)]);
      }
    }
  }
  for (auto variant :
       {kernels::GemmVariant::kSequential, kernels::GemmVariant::kInterleaved2,
        kernels::GemmVariant::kInterleaved4,
        kernels::GemmVariant::kInterleaved8,
        kernels::GemmVariant::kBlocked8}) {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    kernels::gemm_variant(variant, m, n, k, a, b, c, false);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-3 * (1.0 + std::abs(ref[i])))
          << "variant " << static_cast<int>(variant) << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 3},
                      std::tuple{5, 1, 9}, std::tuple{8, 8, 8},
                      std::tuple{3, 17, 31}, std::tuple{16, 16, 100},
                      std::tuple{2, 64, 27}, std::tuple{13, 5, 2}));

// ---------------------------------------------------------------- conv ---

struct ConvCase {
  std::int64_t in_ch, out_ch, size, kernel, stride, pad, groups;
};

class ConvConfigTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvConfigTest, VendorAndCanonicalPathsAgree) {
  const ConvCase c = GetParam();
  kernels::Conv2dDims d{.batch = 2,
                        .in_channels = c.in_ch,
                        .in_h = c.size,
                        .in_w = c.size,
                        .out_channels = c.out_ch,
                        .kernel_h = c.kernel,
                        .kernel_w = c.kernel,
                        .stride = c.stride,
                        .pad = c.pad,
                        .groups = c.groups};
  rng::Philox gen(99);
  std::vector<float> input(static_cast<std::size_t>(
      d.batch * d.in_channels * d.in_h * d.in_w));
  std::vector<float> weight(static_cast<std::size_t>(
      d.out_channels * (d.in_channels / d.groups) * d.kernel_h * d.kernel_w));
  std::vector<float> bias(static_cast<std::size_t>(d.out_channels));
  rng::fill_normal(gen, input, 0.0f, 1.0f);
  rng::fill_normal(gen, weight, 0.0f, 0.5f);
  rng::fill_normal(gen, bias, 0.0f, 0.1f);
  const auto out_n = static_cast<std::size_t>(d.batch * d.out_channels *
                                              d.out_h() * d.out_w());
  kernels::ExecContext vendor;
  kernels::ExecContext canonical;
  canonical.policy = kernels::KernelPolicy::kHardwareAgnostic;
  std::vector<float> out_v(out_n), out_c(out_n);
  kernels::conv2d_forward(vendor, d, input, weight, bias, out_v);
  kernels::conv2d_forward(canonical, d, input, weight, bias, out_c);
  for (std::size_t i = 0; i < out_n; ++i) {
    ASSERT_NEAR(out_v[i], out_c[i], 1e-3f * (1.0f + std::abs(out_c[i])));
  }
  // Backward paths agree on the weight gradients too.
  std::vector<float> grad_out(out_n, 1.0f);
  std::vector<float> gw_v(weight.size(), 0.0f), gw_c(weight.size(), 0.0f);
  std::vector<float> gi_v(input.size(), 0.0f), gi_c(input.size(), 0.0f);
  std::vector<float> gb_v(bias.size(), 0.0f), gb_c(bias.size(), 0.0f);
  kernels::conv2d_backward(vendor, d, input, weight, grad_out, gi_v, gw_v,
                           gb_v);
  kernels::conv2d_backward(canonical, d, input, weight, grad_out, gi_c, gw_c,
                           gb_c);
  for (std::size_t i = 0; i < gw_v.size(); ++i) {
    ASSERT_NEAR(gw_v[i], gw_c[i], 1e-2f * (1.0f + std::abs(gw_c[i])));
  }
  for (std::size_t i = 0; i < gi_v.size(); ++i) {
    ASSERT_NEAR(gi_v[i], gi_c[i], 1e-2f * (1.0f + std::abs(gi_c[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvConfigTest,
    ::testing::Values(ConvCase{3, 4, 8, 3, 1, 1, 1},   // padded same-size
                      ConvCase{3, 4, 8, 3, 2, 1, 1},   // strided
                      ConvCase{4, 4, 6, 3, 1, 1, 4},   // depthwise
                      ConvCase{4, 8, 6, 1, 1, 0, 2},   // grouped pointwise
                      ConvCase{2, 2, 5, 5, 1, 2, 1},   // large kernel
                      ConvCase{1, 1, 4, 2, 2, 0, 1},   // patchify
                      ConvCase{6, 6, 7, 3, 3, 0, 3})); // grouped strided

// --------------------------------------------------------------- engine ---

class MappingSweepTest
    : public ::testing::TestWithParam<std::vector<std::vector<std::int64_t>>> {
};

TEST_P(MappingSweepTest, AnyMappingMatchesReference) {
  auto wd = models::make_dataset_for("ShuffleNetv2", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "ShuffleNetv2";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);

  core::EasyScaleConfig cfg;
  cfg.workload = "ShuffleNetv2";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  const auto& mapping = GetParam();
  engine.configure_workers(
      std::vector<core::WorkerSpec>(mapping.size()), mapping);
  engine.run_steps(4);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, MappingSweepTest,
    ::testing::Values(
        std::vector<std::vector<std::int64_t>>{{0, 1, 2, 3}},
        std::vector<std::vector<std::int64_t>>{{3, 2, 1, 0}},
        std::vector<std::vector<std::int64_t>>{{0}, {1}, {2}, {3}},
        std::vector<std::vector<std::int64_t>>{{2, 0}, {3, 1}},
        std::vector<std::vector<std::int64_t>>{{1}, {0, 2, 3}},
        std::vector<std::vector<std::int64_t>>{{3}, {2}, {0, 1}}));

// Sweep over the number of ESTs (the designed DoP itself).
class DoPSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DoPSweepTest, EngineMatchesDDPAtThatDoP) {
  const std::int64_t dop = GetParam();
  auto wd = models::make_dataset_for("NeuMF", 256, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "NeuMF";
  dcfg.world_size = dop;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);

  core::EasyScaleConfig cfg;
  cfg.workload = "NeuMF";
  cfg.num_ests = dop;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(
      static_cast<std::size_t>(std::max<std::int64_t>(1, dop / 2))));
  engine.run_steps(4);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());
}

INSTANTIATE_TEST_SUITE_P(DoPs, DoPSweepTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16));

}  // namespace
}  // namespace easyscale
