// Kernel selection policy — the D0 / D2 mechanism.
//
// §3.3 identifies two kernel-level nondeterminism sources:
//  1. profiling-based re-selection (cudnn.benchmark-style autotuning), and
//  2. hardware-specific kernel implementations per GPU type.
//
// ExecContext carries the device a worker "runs on" plus the policy that
// decides which variant of each op executes:
//  - kFastest:          native variant, optionally re-picked by a real
//                       wall-clock autotuner (nondeterministic, like stock
//                       frameworks);
//  - kDeterministic:    fixed native variant for the device (paper D0) —
//                       reproducible on a fixed device type, but different
//                       device types still produce different bits;
//  - kHardwareAgnostic: one canonical variant on every device (paper D2) —
//                       bitwise identical across device types, slower for
//                       conv-heavy models (Fig 12).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <tuple>

#include "common/parallel_for.hpp"
#include "kernels/device.hpp"
#include "kernels/scratch_arena.hpp"
#include "kernels/simd.hpp"
#include "kernels/variants.hpp"

namespace easyscale::kernels {

/// Observer invoked after a kernel entry point finishes writing an output
/// buffer (after any parallel_for has joined, on the calling worker
/// thread).  The fault layer installs SDC corruptors here to model a
/// sticky faulty device without touching each kernel; the hook may mutate
/// the output in place.
class PostOpHook {
 public:
  virtual ~PostOpHook() = default;
  virtual void on_output(KernelFamily family, std::span<float> out) = 0;
};

struct ExecContext {
  DeviceType device = DeviceType::kV100;
  KernelPolicy policy = KernelPolicy::kDeterministic;
  /// Emulates torch.backends.cudnn.benchmark: with kFastest, re-pick the
  /// gemm variant per problem shape by real wall-clock probing.
  bool autotune = false;

  /// Custom D2 GEMM kernel handle (kernels/custom.hpp); 0 = use the
  /// built-in pinned variant.  Only honored under kHardwareAgnostic.
  int custom_gemm = 0;

  /// SIMD backend for vectorized kernel bodies (kernels/simd.hpp).  kAuto
  /// follows EASYSCALE_SIMD, then CPU detection.  Results are bitwise
  /// identical for every value — backends change throughput, never bits —
  /// so this composes with intra_op_threads and the variant policy freely.
  SimdBackend simd = SimdBackend::kAuto;

  /// Intra-op parallelism ways for every kernel and op running under this
  /// context.  0 = follow the EASYSCALE_THREADS process default.  Results
  /// are bitwise identical for every value (owner-computes partitioning,
  /// docs/PARALLELISM.md); only throughput changes.
  int intra_op_threads = 0;

  /// Compute pool override (tests); null = the process-global shared pool,
  /// which all workers use so intra-op threads stay bounded.
  ComputePool* pool = nullptr;

  /// Post-op observer (fault/integrity SDC injection); null = disabled.
  /// Invoked single-threaded at kernel entry-point exits, never inside a
  /// parallel region.  Not owned; not serialized (re-arm after restores).
  PostOpHook* post_op = nullptr;

  /// Reusable kernel temporaries (B-packs, im2col columns).  Mutable for
  /// the same reason as gemm_cache; owned by this context's worker thread.
  mutable ScratchArena scratch;

  /// Autotuner cache: (m, n, k) -> chosen variant.  Mutable because kernel
  /// calls are logically const with respect to training state.
  mutable std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
                   GemmVariant>
      gemm_cache;

  [[nodiscard]] int intra_op_ways() const {
    return intra_op_threads > 0 ? intra_op_threads
                                : ComputePool::env_default_threads();
  }
  [[nodiscard]] ComputePool& compute_pool() const {
    return pool != nullptr ? *pool : ComputePool::global();
  }
  /// This context's resolved vector-ops table.  Null members mean "use the
  /// scalar loop" (the scalar backend is all null).
  [[nodiscard]] const SimdOps& simd_ops() const {
    return kernels::simd_ops(simd);
  }

  void notify_post_op(KernelFamily family, float* data,
                      std::int64_t n) const {
    if (post_op != nullptr && n > 0) {
      post_op->on_output(family,
                         std::span<float>(data, static_cast<std::size_t>(n)));
    }
  }
};

/// Run body(chunk, begin, end) over a static partition of [0, n) using the
/// context's pool and ways.  Inline (zero dispatch cost) when the context
/// is sequential, the range is below `grain`, or we are already inside a
/// parallel region.  Bitwise-safe whenever each index in [0, n) owns a
/// disjoint set of outputs whose per-element accumulation order the body
/// preserves.
template <typename Body>
void parallel_for(const ExecContext& ctx, std::int64_t n, std::int64_t grain,
                  Body&& body) {
  const int ways = ctx.intra_op_ways();
  if (ways <= 1 || n <= (grain < 1 ? 1 : grain) ||
      ComputePool::in_parallel_region()) {
    if (n > 0) body(0, std::int64_t{0}, n);
    return;
  }
  ctx.compute_pool().parallel_for(ways, n, grain,
                                  ComputePool::ChunkFn(std::forward<Body>(body)));
}

/// Variant a given context uses for GEMM on a (m,n,k) problem.
[[nodiscard]] GemmVariant select_gemm_variant(const ExecContext& ctx,
                                              std::int64_t m, std::int64_t n,
                                              std::int64_t k);

/// Variant for sum reductions.
[[nodiscard]] ReduceVariant select_reduce_variant(const ExecContext& ctx);

/// Variant for convolutions.
[[nodiscard]] ConvVariant select_conv_variant(const ExecContext& ctx);

/// True when scatter-add must add each row's updates in source order
/// (deterministic policies).
[[nodiscard]] bool scatter_add_sorted(const ExecContext& ctx);

/// Native (deterministic) gemm variant of a device type.
[[nodiscard]] GemmVariant native_gemm_variant(DeviceType device);

/// Native reduce variant of a device type.
[[nodiscard]] ReduceVariant native_reduce_variant(DeviceType device);

}  // namespace easyscale::kernels
