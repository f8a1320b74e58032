// EasyScaleThread context — the minimal state that makes an EST resumable
// anywhere (§3.2).
//
// Deliberately tiny: the model parameters, optimizer state and activations
// are NOT here (shared / temporal); what remains is the per-virtual-worker
// implicit state: RNG streams and BatchNorm running buffers.  Gradients are
// swapped separately per mini-batch (GradientSet) and never cross a global
// step, so they are absent from checkpoints taken at step boundaries.
#pragma once

#include <vector>

#include "common/serialize.hpp"
#include "rng/stream_set.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::core {

struct ESTContext {
  std::int64_t virtual_rank = 0;
  rng::StreamSetState model_streams;        // torch/cuda dropout streams etc.
  std::vector<tensor::Tensor> bn_buffers;   // BatchNorm running mean/var

  void save(ByteWriter& w) const {
    w.write(virtual_rank);
    model_streams.save(w);
    w.write<std::uint64_t>(bn_buffers.size());
    for (const auto& b : bn_buffers) b.save(w);
  }
  static ESTContext load(ByteReader& r) {
    ESTContext ctx;
    ctx.virtual_rank = r.read<std::int64_t>();
    ctx.model_streams = rng::StreamSetState::load(r);
    const auto n = r.read<std::uint64_t>();
    // A corrupt count must fail the structural check, not the allocator
    // (every serialized tensor occupies at least one byte).
    ES_CHECK(n <= r.remaining(),
             "BN buffer count " << n << " exceeds checkpoint payload");
    ctx.bn_buffers.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ctx.bn_buffers.push_back(tensor::Tensor::load(r));
    }
    return ctx;
  }

  /// Bytes this context occupies when swapped (the Fig-11 "context" cost).
  [[nodiscard]] std::int64_t byte_size() const {
    std::int64_t bytes = static_cast<std::int64_t>(sizeof(ESTContext));
    for (const auto& b : bn_buffers) {
      bytes += b.numel() * static_cast<std::int64_t>(sizeof(float));
    }
    return bytes;
  }
};

/// Swap-traffic counters for the context-switching experiments.
struct SwitchStats {
  std::int64_t context_switches = 0;
  std::int64_t gradient_bytes_swapped = 0;
  std::int64_t context_bytes_swapped = 0;
};

}  // namespace easyscale::core
