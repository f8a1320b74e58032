// Pinned training digests for the conv-bearing and transformer workloads.
//
// determinism_audit chains only NeuMF, so a change to im2col, col2im or the
// GEMM operand packing that altered one bit of a conv step would pass every
// cross-backend comparison as long as all backends moved together.  These
// goldens pin the absolute params digest after six steps for each conv
// family (plain, grouped, deep 3x3 stacks, detection) and for the
// transformers (Bert at D0 on the V100 interleaved GEMM and under D2,
// Electra with an 8-wide head that leaves a masked vector tail, and Swin's
// windowed attention), whose attention, GELU, LayerNorm, Dropout and Adam
// bodies run vectorized, on every SIMD backend the host can run at 1 and 4
// intra-op threads.
//
// The engine resolves its SIMD backend once per process from
// EASYSCALE_SIMD, so each (backend, threads) run happens in a forked child
// that pins the variable before any kernel executes and reports its digest
// through a pipe.  The parent never runs a kernel itself.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "core/engine.hpp"
#include "kernels/simd.hpp"
#include "models/datasets.hpp"

namespace easyscale {
namespace {

using core::DeterminismLevel;
using kernels::SimdBackend;

struct GoldenCase {
  const char* name;
  const char* workload;
  DeterminismLevel level;
  bool d2;
  std::int64_t batch_per_est;
  bool adam;
  std::uint64_t digest;
};

std::ostream& operator<<(std::ostream& os, const GoldenCase& c) {
  return os << c.name;
}

std::uint64_t train_digest(const GoldenCase& c, int threads) {
  auto wd = models::make_dataset_for(c.workload, 256, 16, 3);
  core::EasyScaleConfig cfg;
  cfg.workload = c.workload;
  cfg.num_ests = 4;
  cfg.batch_per_est = c.batch_per_est;
  cfg.seed = 3;
  cfg.determinism.level = c.level;
  cfg.determinism.d2 = c.d2;
  cfg.intra_op_threads = threads;
  if (c.adam) {
    cfg.optim.kind = optim::OptimizerConfig::Kind::kAdam;
    cfg.optim.lr = 1e-3f;
  }
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));
  engine.run_steps(6);
  return engine.params_digest();
}

/// Runs train_digest in a child pinned to `backend`; returns false (with
/// `why` set) when the child fails to report.
bool digest_in_child(const GoldenCase& c, SimdBackend backend, int threads,
                     std::uint64_t* digest, std::string* why) {
  int fds[2];
  if (pipe(fds) != 0) {
    *why = "pipe failed";
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *why = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      setenv("EASYSCALE_SIMD", kernels::simd_backend_name(backend), 1);
      const std::uint64_t d = train_digest(c, threads);
      if (write(fds[1], &d, sizeof(d)) == sizeof(d)) code = 0;
    } catch (...) {
    }
    _exit(code);
  }
  close(fds[1]);
  const ssize_t got = read(fds[0], digest, sizeof(*digest));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(*digest) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    *why = "child exited without a digest";
    return false;
  }
  return true;
}

class ConvGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ConvGolden, ParamsDigestPinnedOnEveryBackendAndThreadCount) {
  const GoldenCase& c = GetParam();
  for (SimdBackend backend : kernels::available_simd_backends()) {
    for (int threads : {1, 4}) {
      std::uint64_t digest = 0;
      std::string why;
      ASSERT_TRUE(digest_in_child(c, backend, threads, &digest, &why))
          << c.name << " " << kernels::simd_backend_name(backend)
          << " threads=" << threads << ": " << why;
      EXPECT_EQ(digest, c.digest)
          << c.name << " " << kernels::simd_backend_name(backend)
          << " threads=" << threads << ": got 0x" << std::hex << digest;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ConvGolden,
    ::testing::Values(
        GoldenCase{"ResNet50_D0", "ResNet50", DeterminismLevel::kD0, false, 8,
                   false, 0x81c0258bfd1ddf76ULL},
        GoldenCase{"ResNet50_D1_d2", "ResNet50", DeterminismLevel::kD1, true,
                   8, false, 0x77e67f4922175ffcULL},
        GoldenCase{"ShuffleNetv2_D0", "ShuffleNetv2", DeterminismLevel::kD0,
                   false, 8, false, 0x89bd31bfd29d4b71ULL},
        GoldenCase{"VGG19_D0", "VGG19", DeterminismLevel::kD0, false, 8, false,
                   0xa928b6933abfad48ULL},
        GoldenCase{"YOLOv3_D0", "YOLOv3", DeterminismLevel::kD0, false, 4,
                   false, 0xc2037d83325e3bc0ULL},
        GoldenCase{"Bert_D1_d2", "Bert", DeterminismLevel::kD1, true, 4, true,
                   0xd94caaa3d8b5a6a6ULL},
        GoldenCase{"Bert_D0", "Bert", DeterminismLevel::kD0, false, 4, true,
                   0x0d92cf24642a5424ULL},
        GoldenCase{"Electra_D1_d2", "Electra", DeterminismLevel::kD1, true, 4,
                   true, 0xfb4795b7bb464e1aULL},
        GoldenCase{"SwinTransformer_D1_d2", "SwinTransformer",
                   DeterminismLevel::kD1, true, 4, true,
                   0x82a3ef2eeeb50e7dULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace easyscale
