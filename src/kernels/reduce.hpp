// Sum reductions with controlled association order.
//
// Used by loss reduction, BatchNorm statistics and bias gradients — the
// places where real GPU kernels use tree reductions whose shape is
// hardware-specific.
#pragma once

#include <cstdint>
#include <span>

#include "kernels/exec_context.hpp"

namespace easyscale::kernels {

/// Sum of `values` in the order chosen by the context's reduce variant.
[[nodiscard]] float reduce_sum(const ExecContext& ctx,
                               std::span<const float> values);

/// Sum with an explicit variant (tests / probes).
[[nodiscard]] float reduce_sum_variant(ReduceVariant variant,
                                       std::span<const float> values);

/// Independent leaf chains a reduction keeps in flight.
inline constexpr int kReduceChains = 8;

/// Segmented sum: out[k] = reduce_sum(ctx, values.subspan(k * seg_stride,
/// len)) bit for bit, for every k in [0, out.size()).  Every segment keeps
/// its own leaf and fold order; only the schedule differs: the leaves of
/// up to kReduceChains segments run as interleaved chains.
void reduce_sum_segments(const ExecContext& ctx, std::span<const float> values,
                         std::int64_t seg_stride, std::int64_t len,
                         std::span<float> out);

/// Floats a group of reduce_segment_group segments may hold together:
/// kReduceChains leaves of the narrowest (64-float) tree.
inline constexpr std::int64_t kSegmentGroupFloats = kReduceChains * 64;

/// Segments of `len` floats one reduce_sum_segments call needs to keep
/// kReduceChains leaf chains in flight, 1 once a segment has that many
/// leaves itself, and capped so the group holds at most
/// max(len, kSegmentGroupFloats) floats: between 1 and kReduceChains.
[[nodiscard]] std::int64_t reduce_segment_group(const ExecContext& ctx,
                                                std::int64_t len);

/// Strided sum: sum of values[offset + i*stride] for i in [0, count) —
/// per-channel reductions use this.  Same association rules.
[[nodiscard]] float reduce_sum_strided(const ExecContext& ctx,
                                       std::span<const float> values,
                                       std::int64_t offset,
                                       std::int64_t stride,
                                       std::int64_t count);

/// Batched strided sum: out[s] += sum of values[s + i*stride] for i in
/// [0, count), for every s in [0, out.size()).  Output slots are
/// independent, so the batch parallelizes across the context's intra-op
/// pool; each slot's reduction tree is exactly reduce_sum_strided's.
void reduce_sum_strided_batch(const ExecContext& ctx,
                              std::span<const float> values,
                              std::int64_t stride, std::int64_t count,
                              std::span<float> out);

}  // namespace easyscale::kernels
