// User-customizable D2 kernels (the paper's §3.3 future work): registration,
// dispatch under the hardware-agnostic policy, numerical quality of the
// bundled Kahan kernel, and end-to-end bitwise consistency when training
// with a custom kernel across heterogeneous devices.
#include <gtest/gtest.h>

#include <cmath>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "kernels/custom.hpp"
#include "kernels/gemm.hpp"
#include "models/datasets.hpp"
#include "parallel/trainer.hpp"
#include "rng/sampling.hpp"

namespace easyscale::kernels {
namespace {

int kahan_handle() {
  static const int handle = register_custom_gemm("kahan", kahan_dot);
  return handle;
}

TEST(CustomKernel, RegistrationAndLookup) {
  const int h = kahan_handle();
  EXPECT_GE(h, 1);
  EXPECT_EQ(custom_gemm_name(h), "kahan");
  EXPECT_GE(num_custom_gemms(), 1);
  EXPECT_THROW((void)custom_gemm(0), Error);
  EXPECT_THROW((void)custom_gemm(num_custom_gemms() + 1), Error);
  EXPECT_THROW((void)register_custom_gemm("null", nullptr), Error);
}

TEST(CustomKernel, DispatchOnlyUnderHardwareAgnostic) {
  rng::Philox gen(5);
  const std::int64_t m = 4, n = 4, k = 64;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  ExecContext ctx;
  ctx.custom_gemm = kahan_handle();
  ctx.policy = KernelPolicy::kDeterministic;  // custom handle must be inert
  std::vector<float> det(static_cast<std::size_t>(m * n));
  gemm(ctx, m, n, k, a, b, det, false);
  std::vector<float> native(static_cast<std::size_t>(m * n));
  gemm_variant(native_gemm_variant(ctx.device), m, n, k, a, b, native, false);
  EXPECT_EQ(digest_floats(det), digest_floats(native));
  // Under D2 the custom kernel takes over (different bits than pinned).
  ctx.policy = KernelPolicy::kHardwareAgnostic;
  std::vector<float> custom(static_cast<std::size_t>(m * n));
  gemm(ctx, m, n, k, a, b, custom, false);
  ctx.custom_gemm = 0;
  std::vector<float> pinned(static_cast<std::size_t>(m * n));
  gemm(ctx, m, n, k, a, b, pinned, false);
  EXPECT_NE(digest_floats(custom), digest_floats(pinned));
}

TEST(CustomKernel, KahanBeatsSequentialAccuracy) {
  // Adversarial input: large head value followed by many small terms —
  // plain float summation loses the tail, Kahan keeps it.
  const std::int64_t k = 10001;
  std::vector<float> x(static_cast<std::size_t>(k), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(k), 1e-4f);
  y[0] = 1e4f;
  double exact = 0.0;
  for (std::int64_t i = 0; i < k; ++i) {
    exact += static_cast<double>(x[static_cast<std::size_t>(i)]) *
             static_cast<double>(y[static_cast<std::size_t>(i)]);
  }
  float seq = 0.0f;
  for (std::int64_t i = 0; i < k; ++i) {
    seq += x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(i)];
  }
  const float kah = kahan_dot(x.data(), y.data(), k);
  EXPECT_LT(std::abs(static_cast<double>(kah) - exact),
            std::abs(static_cast<double>(seq) - exact));
  EXPECT_NEAR(static_cast<double>(kah), exact, 1e-2);
}

TEST(CustomKernel, HeterogeneousTrainingStaysBitwiseConsistent) {
  // EasyScale-D2 with the Kahan kernel on a V100+T4 mix must equal
  // DDP-heter configured with the same custom kernel.
  auto wd = models::make_dataset_for("Bert", 128, 16, 42);
  parallel::TrainerConfig dcfg;
  dcfg.workload = "Bert";
  dcfg.world_size = 4;
  dcfg.batch_per_worker = 4;
  dcfg.seed = 42;
  dcfg.policy = KernelPolicy::kHardwareAgnostic;
  dcfg.custom_d2_gemm = kahan_handle();
  parallel::Trainer reference(dcfg, *wd.train, wd.augment);
  reference.run_steps(4);

  core::EasyScaleConfig cfg;
  cfg.workload = "Bert";
  cfg.num_ests = 4;
  cfg.batch_per_est = 4;
  cfg.seed = 42;
  cfg.determinism.d2 = true;
  cfg.custom_d2_gemm = kahan_handle();
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers({core::WorkerSpec{DeviceType::kV100},
                            core::WorkerSpec{DeviceType::kT4}});
  engine.run_steps(4);
  EXPECT_EQ(reference.params_digest(), engine.params_digest());

  // ... and it is a genuinely different training trajectory than the
  // built-in pinned D2 kernel.
  core::EasyScaleConfig plain = cfg;
  plain.custom_d2_gemm = 0;
  core::EasyScaleEngine vanilla(plain, *wd.train, wd.augment);
  vanilla.configure_workers(std::vector<core::WorkerSpec>(2));
  vanilla.run_steps(4);
  EXPECT_NE(vanilla.params_digest(), engine.params_digest());
}

}  // namespace
}  // namespace easyscale::kernels
