// GEMM kernels with controlled floating-point accumulation orders.
//
// C[m,n] (+)= A[m,k] * B[k,n].  The variant decides how the k-loop partial
// products are associated; see kernels/exec_context.hpp.
#pragma once

#include <cstdint>
#include <span>

#include "kernels/exec_context.hpp"

namespace easyscale::kernels {

/// General matrix multiply.  When `accumulate` is false C is overwritten,
/// otherwise the product is added to C.  The scalar path transposes B so
/// each dot product walks contiguous memory; the vector backends read B in
/// place, or pack it into column tiles when m >= 8 and n >= 128 (row
/// strides that alias).  Moving B never changes FP values: only the k-loop
/// association chosen by the variant does.
void gemm(const ExecContext& ctx, std::int64_t m, std::int64_t n,
          std::int64_t k, std::span<const float> a, std::span<const float> b,
          std::span<float> c, bool accumulate = false);

/// Like gemm but with an explicit variant (used by tests and by the
/// autotuner's probe path).  This overload runs sequentially and allocates
/// its own pack buffer — it needs no context.
void gemm_variant(GemmVariant variant, std::int64_t m, std::int64_t n,
                  std::int64_t k, std::span<const float> a,
                  std::span<const float> b, std::span<float> c,
                  bool accumulate = false);

/// Explicit variant with a context: uses the context's intra-op pool and
/// scratch arena.  Bitwise identical to the sequential overload above for
/// every thread count.
void gemm_variant(const ExecContext& ctx, GemmVariant variant, std::int64_t m,
                  std::int64_t n, std::int64_t k, std::span<const float> a,
                  std::span<const float> b, std::span<float> c,
                  bool accumulate = false);

/// dst[cols, rows] = src[rows, cols]^T.  Pure data movement, parallel over
/// rows of dst, so it never changes a bit of the products that consume it.
void transpose(const ExecContext& ctx, std::int64_t rows, std::int64_t cols,
               std::span<const float> src, std::span<float> dst);

/// Transposed-operand forms, bitwise-equal to gemm on the transposed
/// operand.  gemm_tn computes C = A^T * B with A stored [k,m]; it
/// materializes A^T in the scratch arena.  gemm_nt computes C = A * B^T
/// with B stored [n,k] and makes no intermediate copy: the scalar path
/// dots against B's rows in place and the vector backends transpose B
/// straight into their packed column tiles.
void gemm_tn(const ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, std::span<const float> a,
             std::span<const float> b, std::span<float> c,
             bool accumulate = false);
void gemm_nt(const ExecContext& ctx, std::int64_t m, std::int64_t n,
             std::int64_t k, std::span<const float> a,
             std::span<const float> b, std::span<float> c,
             bool accumulate = false);

}  // namespace easyscale::kernels
