// Pinned EST checkpoint image of a dropout model.
//
// The params goldens (conv_golden_test) see only the parameters.  An EST
// image also carries every EST's RNG streams, whose torch stream Dropout
// advances, so a mask body that drew the right floats but left the wrong
// PhiloxState (a stale buffer word, a counter off by one block) would pass
// them until a resume.  This golden digests the whole image of a Bert
// engine (D1 + d2, Adam, 8 ESTs on 2 workers) after three steps, on every
// SIMD backend the host can run at 1 and 4 intra-op threads.
//
// As in conv_golden_test, the backend is resolved once per process from
// EASYSCALE_SIMD, so each run happens in a forked child that pins the
// variable before any kernel executes and reports its digest through a
// pipe.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>

#include "common/digest.hpp"
#include "core/engine.hpp"
#include "kernels/simd.hpp"
#include "models/datasets.hpp"

namespace easyscale {
namespace {

using kernels::SimdBackend;

constexpr std::uint64_t kBertImageDigest = 0x0fe8e3015bad2699ULL;

std::uint64_t bert_image_digest(int threads) {
  auto wd = models::make_dataset_for("Bert", 256, 16, 3);
  core::EasyScaleConfig cfg;
  cfg.workload = "Bert";
  cfg.num_ests = 8;
  cfg.batch_per_est = 4;
  cfg.seed = 3;
  cfg.determinism.level = core::DeterminismLevel::kD1;
  cfg.determinism.d2 = true;
  cfg.intra_op_threads = threads;
  cfg.optim.kind = optim::OptimizerConfig::Kind::kAdam;
  cfg.optim.lr = 1e-3f;
  core::EasyScaleEngine engine(cfg, *wd.train, wd.augment);
  engine.configure_workers(std::vector<core::WorkerSpec>(2));
  engine.run_steps(3);
  const std::vector<std::uint8_t> image = engine.checkpoint();
  Digest d;
  d.update(std::span<const std::uint8_t>(image));
  return d.value();
}

/// bert_image_digest in a child pinned to `backend`; nullopt when the child
/// fails to report.
std::optional<std::uint64_t> digest_in_child(SimdBackend backend,
                                             int threads) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid < 0) return std::nullopt;
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      setenv("EASYSCALE_SIMD", kernels::simd_backend_name(backend), 1);
      const std::uint64_t d = bert_image_digest(threads);
      if (write(fds[1], &d, sizeof(d)) == sizeof(d)) code = 0;
    } catch (...) {
    }
    _exit(code);
  }
  close(fds[1]);
  std::uint64_t digest = 0;
  const ssize_t got = read(fds[0], &digest, sizeof(digest));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(digest) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return digest;
}

TEST(EstImageGolden, BertDropoutImagePinnedOnEveryBackendAndThreadCount) {
  for (SimdBackend backend : kernels::available_simd_backends()) {
    for (int threads : {1, 4}) {
      const auto digest = digest_in_child(backend, threads);
      ASSERT_TRUE(digest.has_value())
          << kernels::simd_backend_name(backend) << " threads=" << threads
          << ": child exited without a digest";
      EXPECT_EQ(*digest, kBertImageDigest)
          << kernels::simd_backend_name(backend) << " threads=" << threads
          << ": got 0x" << std::hex << *digest;
    }
  }
}

}  // namespace
}  // namespace easyscale
