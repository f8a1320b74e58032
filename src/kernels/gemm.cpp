#include "kernels/gemm.hpp"

#include "kernels/custom.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace easyscale::kernels {

GemmVariant native_gemm_variant(DeviceType device) {
  switch (device) {
    case DeviceType::kV100:
      return GemmVariant::kInterleaved8;
    case DeviceType::kP100:
      return GemmVariant::kInterleaved4;
    case DeviceType::kT4:
      return GemmVariant::kInterleaved2;
  }
  ES_THROW("unreachable device type");
}

ReduceVariant native_reduce_variant(DeviceType device) {
  switch (device) {
    case DeviceType::kV100:
      return ReduceVariant::kPairwise64;
    case DeviceType::kP100:
      return ReduceVariant::kPairwise128;
    case DeviceType::kT4:
      return ReduceVariant::kPairwise256;
  }
  ES_THROW("unreachable device type");
}

ReduceVariant select_reduce_variant(const ExecContext& ctx) {
  if (ctx.policy == KernelPolicy::kHardwareAgnostic) {
    return ReduceVariant::kSequential;
  }
  return native_reduce_variant(ctx.device);
}

ConvVariant select_conv_variant(const ExecContext& ctx) {
  return ctx.policy == KernelPolicy::kHardwareAgnostic
             ? ConvVariant::kDirectCanonical
             : ConvVariant::kIm2colNative;
}

bool scatter_add_sorted(const ExecContext& ctx) {
  return ctx.policy != KernelPolicy::kFastest;
}

namespace {

/// Chunks target at least this many k-loop MACs so tiny problems stay
/// inline (the cutoff is size-derived, so it cannot affect bits).
constexpr std::int64_t kMinChunkWork = 16384;

/// Pack B[k,n] into Bt[n,k] so the inner product walks contiguous memory.
/// Destination rows are disjoint per j, so the pack parallelizes as an
/// owner-computes loop; the pack moves values and never re-associates.
void pack_bt(const ExecContext* ctx, std::int64_t n, std::int64_t k,
             std::span<const float> b, std::span<float> bt) {
  auto pack_range = [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = j0; j < j1; ++j) {
        bt[static_cast<std::size_t>(j * k + kk)] =
            b[static_cast<std::size_t>(kk * n + j)];
      }
    }
  };
  if (ctx == nullptr) {
    pack_range(0, n);
    return;
  }
  const std::int64_t grain = std::max<std::int64_t>(1, kMinChunkWork / std::max<std::int64_t>(1, k));
  parallel_for(*ctx, n, grain,
               [&](int /*chunk*/, std::int64_t j0, std::int64_t j1) {
                 pack_range(j0, j1);
               });
}

/// Dot product with a single running accumulator (canonical order).
inline float dot_sequential(const float* x, const float* y, std::int64_t k) {
  float acc = 0.0f;
  for (std::int64_t i = 0; i < k; ++i) acc += x[i] * y[i];
  return acc;
}

/// Dot product accumulated block-by-block: within a block sequential, block
/// partials folded left-to-right.  Different block widths associate the sum
/// differently — this is the simulated hardware-tuned kernel.
inline float dot_blocked(const float* x, const float* y, std::int64_t k,
                         std::int64_t block) {
  float total = 0.0f;
  for (std::int64_t b0 = 0; b0 < k; b0 += block) {
    const std::int64_t b1 = std::min(k, b0 + block);
    float part = 0.0f;
    for (std::int64_t i = b0; i < b1; ++i) part += x[i] * y[i];
    total += part;
  }
  return total;
}

/// Dot product with W interleaved accumulators, folded pairwise-sequential
/// at the end.  Wider interleaving vectorizes better and associates the sum
/// differently — the simulated vendor-tuned kernel family.
template <int W>
inline float dot_interleaved(const float* x, const float* y, std::int64_t k) {
  float acc[W] = {};
  std::int64_t i = 0;
  for (; i + W <= k; i += W) {
    for (int j = 0; j < W; ++j) acc[j] += x[i + j] * y[i + j];
  }
  for (; i < k; ++i) acc[0] += x[i] * y[i];
  float total = 0.0f;
  for (int j = 0; j < W; ++j) total += acc[j];
  return total;
}

inline float dot_with_variant(GemmVariant variant, const float* x,
                              const float* y, std::int64_t k) {
  switch (variant) {
    case GemmVariant::kSequential:
      return dot_sequential(x, y, k);
    case GemmVariant::kInterleaved2:
      return dot_interleaved<2>(x, y, k);
    case GemmVariant::kInterleaved4:
      return dot_interleaved<4>(x, y, k);
    case GemmVariant::kInterleaved8:
      return dot_interleaved<8>(x, y, k);
    case GemmVariant::kBlocked8:
      return dot_blocked(x, y, k, 8);
  }
  ES_THROW("unreachable gemm variant");
}

/// Pack B into the backend's column-tile layout (kernels/simd.hpp
/// gemm_tile_cols): tile t holds columns [t*tw, (t+1)*tw) row-major at row
/// stride tw, zero-padded past column n.  B is read as [k, n], or as
/// [n, k] when `b_nk` (gemm_nt's B^T goes straight into its tiles through
/// the backend's block transpose, with no intermediate copy).  Tiles are
/// disjoint, so the pack parallelizes owner-computes; it relocates each
/// element once and never re-associates.
void pack_tiles(const ExecContext& ctx, const SimdOps& ops, std::int64_t tw,
                std::int64_t n, std::int64_t k, const float* b, bool b_nk,
                float* packed) {
  const std::int64_t ntiles = (n + tw - 1) / tw;
  parallel_for(ctx, ntiles, 1,
               [&](int /*chunk*/, std::int64_t t0, std::int64_t t1) {
                 for (std::int64_t tile = t0; tile < t1; ++tile) {
                   float* dst = packed + tile * k * tw;
                   const std::int64_t jlo = tile * tw;
                   const std::int64_t w = std::min<std::int64_t>(tw, n - jlo);
                   if (b_nk) {
                     ops.transpose(b + jlo * k, w, k, k, dst, tw);
                   } else {
                     for (std::int64_t kk = 0; kk < k; ++kk) {
                       std::memcpy(dst + kk * tw, b + kk * n + jlo,
                                   static_cast<std::size_t>(w) * sizeof(float));
                     }
                   }
                   if (w == tw) continue;
                   for (std::int64_t kk = 0; kk < k; ++kk) {
                     std::fill(dst + kk * tw + w, dst + (kk + 1) * tw, 0.0f);
                   }
                 }
               });
}

/// The one GEMM loop.  Every output element c[i,j] is one dot product with
/// a fixed association (the variant's or the custom kernel's), so
/// partitioning the flattened [0, m*n) output space is owner-computes:
/// thread count can never change bits.  With ctx == nullptr (autotuner
/// probes, the legacy explicit-variant entry point) it runs sequentially
/// and allocates its own pack buffer.
///
/// B is stored [k, n], or [n, k] when `b_nk` (gemm_nt).  The scalar path
/// dots A rows against rows of B^T, so an [n, k] B is used as-is and only
/// a [k, n] B is transposed.  Under a vector backend the same partition is
/// served by SIMD row panels: lanes are output columns, each replaying the
/// variant's exact scalar k-order (kernels/simd_impl.hpp), so the panel
/// path is bitwise-equal to the scalar path for every variant, B layout
/// and chunking.
void gemm_impl(const ExecContext* ctx, GemmVariant variant,
               const CustomDotFn* custom, const CustomPanelFn* custom_panel,
               std::int64_t m, std::int64_t n, std::int64_t k,
               std::span<const float> a, std::span<const float> b,
               std::span<float> c, bool accumulate, bool b_nk = false) {
  ES_CHECK(static_cast<std::int64_t>(a.size()) == m * k, "gemm: bad A size");
  ES_CHECK(static_cast<std::int64_t>(b.size()) == k * n, "gemm: bad B size");
  ES_CHECK(static_cast<std::int64_t>(c.size()) == m * n, "gemm: bad C size");
  const std::int64_t grain = std::max<std::int64_t>(1, kMinChunkWork / std::max<std::int64_t>(1, k));
  const SimdOps* ops = ctx != nullptr ? &ctx->simd_ops() : nullptr;
  if (ops != nullptr && ops->gemm_panel != nullptr &&
      (custom == nullptr || custom_panel != nullptr)) {
    // Packing relocates each element once and never re-associates a sum,
    // so packed and unpacked B are bitwise-equal.  An [n, k] B must move
    // anyway, so it always goes straight into the tiles.  A [k, n] B is
    // packed only where its row stride can alias: power-of-two strides
    // (n = 128, 256, 1024...) alias L1 sets and TLB pages, the packed
    // tiles stream contiguously instead, and m >= 8 rows amortize the
    // copy.  Custom D2 panels read raw [k, n] B, so an [n, k] B gets a
    // plain transpose in the pack slot for them.
    const float* bkn = b.data();
    const float* packed = nullptr;
    const bool tiles =
        custom_panel == nullptr && ops->gemm_panel_packed != nullptr;
    if (tiles && (b_nk || (m >= 8 && n >= 128))) {
      const std::int64_t tw = ops->gemm_tile_cols;
      std::span<float> pb = ctx->scratch.borrow(
          ScratchArena::kGemmPackB,
          static_cast<std::size_t>((n + tw - 1) / tw * tw * k));
      pack_tiles(*ctx, *ops, tw, n, k, b.data(), b_nk, pb.data());
      packed = pb.data();
    } else if (b_nk) {
      std::span<float> pb = ctx->scratch.borrow(
          ScratchArena::kGemmPackB, static_cast<std::size_t>(k * n));
      transpose(*ctx, n, k, b, pb);
      bkn = pb.data();
    }
    // Chunk boundaries are identical to the scalar path (same n, same
    // grain).  A chunk's whole rows go to the row-blocked body in one call;
    // the partial rows at its edges, and every row of a custom panel, run
    // on the per-row panels.
    const float* bmat = packed != nullptr ? packed : bkn;
    auto row_run = [&](std::int64_t i, std::int64_t j0, std::int64_t j1) {
      const float* arow = a.data() + i * k;
      float* crow = c.data() + i * n;
      if (custom_panel != nullptr) {
        (*custom_panel)(*ops, arow, bkn, k, n, j0, j1, crow, accumulate);
      } else if (packed != nullptr) {
        ops->gemm_panel_packed(variant, arow, packed, k, n, j0, j1, crow,
                               accumulate);
      } else {
        ops->gemm_panel(variant, arow, bkn, k, n, j0, j1, crow, accumulate);
      }
    };
    auto panel_range = [&](std::int64_t i0, std::int64_t i1) {
      std::int64_t row = i0 / n;
      if (i0 % n != 0) {
        row_run(row, i0 % n, std::min<std::int64_t>(n, i0 % n + (i1 - i0)));
        ++row;
      }
      const std::int64_t whole_end = std::max(row, i1 / n);
      if (custom_panel == nullptr) {
        if (row < whole_end) {
          ops->gemm_rows(variant, a.data(), bmat, packed != nullptr, k, n, row,
                         whole_end, c.data(), accumulate);
        }
      } else {
        for (std::int64_t i = row; i < whole_end; ++i) row_run(i, 0, n);
      }
      if (whole_end * n < i1) {
        row_run(whole_end, 0, i1 - whole_end * n);
      }
    };
    parallel_for(*ctx, m * n, grain,
                 [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                   panel_range(i0, i1);
                 });
    return;
  }
  std::vector<float> local_bt;
  std::span<const float> bt = b;
  if (!b_nk) {
    std::span<float> pack;
    if (ctx != nullptr) {
      pack = ctx->scratch.borrow(ScratchArena::kGemmPackB,
                                 static_cast<std::size_t>(n * k));
    } else {
      local_bt.resize(static_cast<std::size_t>(n * k));
      pack = local_bt;
    }
    pack_bt(ctx, n, k, b, pack);
    bt = pack;
  }
  auto dot_range = [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t idx = i0; idx < i1; ++idx) {
      const std::int64_t i = idx / n;
      const std::int64_t j = idx % n;
      const float* arow = a.data() + i * k;
      const float v = custom != nullptr
                          ? (*custom)(arow, bt.data() + j * k, k)
                          : dot_with_variant(variant, arow,
                                             bt.data() + j * k, k);
      float& out = c[static_cast<std::size_t>(idx)];
      out = accumulate ? out + v : v;
    }
  };
  if (ctx == nullptr) {
    dot_range(0, m * n);
    return;
  }
  parallel_for(*ctx, m * n, grain,
               [&](int /*chunk*/, std::int64_t i0, std::int64_t i1) {
                 dot_range(i0, i1);
               });
}

/// Wall-clock probe of one variant on the real problem (the autotuner's
/// measurement, deliberately subject to timing noise like cudnn.benchmark).
double probe_variant(GemmVariant variant, std::int64_t m, std::int64_t n,
                     std::int64_t k, std::span<const float> a,
                     std::span<const float> b) {
  std::vector<float> scratch(static_cast<std::size_t>(m * n));
  const auto t0 = std::chrono::steady_clock::now();
  gemm_variant(variant, m, n, k, a, b, scratch, false);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

GemmVariant select_gemm_variant(const ExecContext& ctx, std::int64_t m,
                                std::int64_t n, std::int64_t k) {
  switch (ctx.policy) {
    case KernelPolicy::kHardwareAgnostic:
      // D2 pins one fixed algo_id for GEMM (§3.3: "deterministically choose
      // the same operator implementations ... gemm, gemv in cuBLAS").  The
      // pinned kernel is still a fast one — that is why attention/MLP
      // workloads pay ~nothing for D2 (Fig 12); only conv falls back to the
      // slow canonical path.
      return GemmVariant::kInterleaved4;
    case KernelPolicy::kDeterministic:
      return native_gemm_variant(ctx.device);
    case KernelPolicy::kFastest:
      break;
  }
  if (!ctx.autotune) return native_gemm_variant(ctx.device);
  const auto key = std::make_tuple(m, n, k);
  auto it = ctx.gemm_cache.find(key);
  if (it != ctx.gemm_cache.end()) return it->second;
  // Real-time probing: whichever candidate happens to run faster wins, so
  // the choice can differ run to run — exactly the profiling-based
  // nondeterminism §3.3 describes.
  const GemmVariant native = native_gemm_variant(ctx.device);
  GemmVariant chosen = native;
  if (m * n * k > 0) {
    std::vector<float> za(static_cast<std::size_t>(m * k), 1.0f);
    std::vector<float> zb(static_cast<std::size_t>(k * n), 1.0f);
    const double t_native = probe_variant(native, m, n, k, za, zb);
    const double t_blocked =
        probe_variant(GemmVariant::kBlocked8, m, n, k, za, zb);
    chosen = t_blocked < t_native ? GemmVariant::kBlocked8 : native;
  }
  ctx.gemm_cache.emplace(key, chosen);
  return chosen;
}

void gemm_variant(GemmVariant variant, std::int64_t m, std::int64_t n,
                  std::int64_t k, std::span<const float> a,
                  std::span<const float> b, std::span<float> c,
                  bool accumulate) {
  gemm_impl(nullptr, variant, nullptr, nullptr, m, n, k, a, b, c, accumulate);
}

void gemm_variant(const ExecContext& ctx, GemmVariant variant, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::span<const float> a,
                  std::span<const float> b, std::span<float> c,
                  bool accumulate) {
  gemm_impl(&ctx, variant, nullptr, nullptr, m, n, k, a, b, c, accumulate);
}

namespace {

/// gemm and gemm_nt: policy/custom-kernel resolution, then the one loop.
void gemm_entry(const ExecContext& ctx, std::int64_t m, std::int64_t n,
                std::int64_t k, std::span<const float> a,
                std::span<const float> b, std::span<float> c, bool accumulate,
                bool b_nk) {
  if (ctx.policy == KernelPolicy::kHardwareAgnostic && ctx.custom_gemm != 0) {
    // User-registered D2 kernel (§3.3 future work): identical on every
    // device by construction, accumulation order chosen by the user.  With
    // a registered panel the vector backends run it lanewise; without one
    // it keeps the scalar path everywhere.
    const CustomDotFn& dot = custom_gemm(ctx.custom_gemm);
    const CustomPanelFn* panel = custom_gemm_panel(ctx.custom_gemm);
    gemm_impl(&ctx, GemmVariant::kSequential, &dot, panel, m, n, k, a, b, c,
              accumulate, b_nk);
  } else {
    gemm_impl(&ctx, select_gemm_variant(ctx, m, n, k), nullptr, nullptr, m,
              n, k, a, b, c, accumulate, b_nk);
  }
  ctx.notify_post_op(KernelFamily::kGemm, c.data(),
                     static_cast<std::int64_t>(c.size()));
}

}  // namespace

void gemm(const ExecContext& ctx, std::int64_t m, std::int64_t n,
          std::int64_t k, std::span<const float> a, std::span<const float> b,
          std::span<float> c, bool accumulate) {
  gemm_entry(ctx, m, n, k, a, b, c, accumulate, /*b_nk=*/false);
}

void transpose(const ExecContext& ctx, std::int64_t rows, std::int64_t cols,
               std::span<const float> src, std::span<float> dst) {
  ES_CHECK(static_cast<std::int64_t>(src.size()) == rows * cols &&
               static_cast<std::int64_t>(dst.size()) == rows * cols,
           "transpose: bad size");
  // Each chunk owns whole rows of dst (columns of src).
  const SimdOps& ops = ctx.simd_ops();
  parallel_for(ctx, cols,
               std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, rows)),
               [&](int /*chunk*/, std::int64_t c0, std::int64_t c1) {
                 if (ops.transpose != nullptr) {
                   ops.transpose(src.data() + c0, rows, c1 - c0, cols,
                                 dst.data() + c0 * rows, rows);
                   return;
                 }
                 for (std::int64_t r = 0; r < rows; ++r) {
                   for (std::int64_t c = c0; c < c1; ++c) {
                     dst[static_cast<std::size_t>(c * rows + r)] =
                         src[static_cast<std::size_t>(r * cols + c)];
                   }
                 }
               });
}

void gemm_tn(const ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, std::span<const float> a,
             std::span<const float> b, std::span<float> c, bool accumulate) {
  // A is stored [k, m]; materialize A^T then multiply.
  std::span<float> at = ctx.scratch.borrow(ScratchArena::kGemmTranspose,
                                           static_cast<std::size_t>(m * k));
  transpose(ctx, k, m, a, at);
  gemm(ctx, m, n, k, at, b, c, accumulate);
}

void gemm_nt(const ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, std::span<const float> a,
             std::span<const float> b, std::span<float> c, bool accumulate) {
  // B is stored [n, k].  The scalar path dots A rows against its rows in
  // place; the vector backends pack B^T straight into their column tiles.
  // Neither materializes an intermediate B^T.
  gemm_entry(ctx, m, n, k, a, b, c, accumulate, /*b_nk=*/true);
}

}  // namespace easyscale::kernels
