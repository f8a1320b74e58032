// Per-context scratch buffers for kernel temporaries.
//
// gemm's B-pack, gemm_tn's A^T, conv backward's W^T and conv's im2col
// column matrices used to be per-call heap allocations — pure churn
// on the training hot path.  Each ExecContext (one per physical worker)
// now owns a small slotted arena of grow-only buffers instead: after the
// first step every borrow is a pointer into memory that already fits.
//
// Contract: each slot has exactly one live user at a time.  The slot ids
// below encode the call graph (a kernel never borrows the slot of a kernel
// it can be nested inside), and the arena is only touched by the thread
// that owns the ExecContext — never from inside parallel_for chunk bodies.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace easyscale::kernels {

class ScratchArena {
 public:
  enum Slot : int {
    kGemmPackB = 0,     // B in the layout the gemm loop reads
    kGemmTranspose = 1, // gemm_tn's A^T; conv backward's per-call W^T
    kConvCols = 2,      // conv im2col column matrix
    kConvColsGrad = 3,  // conv backward d(cols)
    kNumSlots = 4,
  };

  /// Borrow `size` floats from `slot`.  Grows (never shrinks) the backing
  /// buffer; contents are unspecified on entry.
  [[nodiscard]] std::span<float> borrow(Slot slot, std::size_t size) {
    auto& buf = slots_[static_cast<std::size_t>(slot)];
    if (buf.size() < size) buf.resize(size);
    return std::span<float>(buf.data(), size);
  }

  /// Total bytes reserved across all slots — the quantity the
  /// no-allocation-growth test asserts is flat across training steps.
  [[nodiscard]] std::size_t reserved_bytes() const {
    std::size_t total = 0;
    for (const auto& buf : slots_) total += buf.capacity() * sizeof(float);
    return total;
  }

 private:
  std::array<std::vector<float>, kNumSlots> slots_;
};

}  // namespace easyscale::kernels
