// Scatter-add, the classic atomic-nondeterminism op (embedding backward,
// index_add).  Deterministic policies add each row's updates in source
// order; when rows are split across threads, each chunk scans the updates
// in source order and applies only those to its own rows.  The kFastest
// path emulates GPU atomics by permuting the accumulation order with an
// uncontrolled global counter, so repeated calls can differ bitwise
// whenever an index collides.
#pragma once

#include <cstdint>
#include <span>

#include "kernels/exec_context.hpp"

namespace easyscale::kernels {

/// out[indices[i] * width .. +width] += src[i * width .. +width]
/// for i in [0, n).  `out` has `rows * width` elements.
void scatter_add(const ExecContext& ctx, std::span<const std::int64_t> indices,
                 std::span<const float> src, std::int64_t width,
                 std::span<float> out);

/// Reset the emulated-atomic order counter (tests only).
void reset_atomic_emulation_counter();

}  // namespace easyscale::kernels
