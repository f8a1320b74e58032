// Bucketed gradient synchronization over simulated participants.
//
// A GradientSet is one participant's full set of per-parameter gradient
// tensors (a DDP rank's .grad fields, or one EST's swapped-out gradient
// buffers).  allreduce_average flattens each bucket, runs the ring
// all-reduce in the exact NCCL association order over `parts.size()`
// participants, divides by the participant count, and scatters the result
// back into every part — leaving all participants with identical averaged
// gradients, as after a real all-reduce.
//
// EasyScale's ElasticDDP calls this with one part per *virtual* rank (EST)
// and the recorded bucket layout, so the result is bitwise independent of
// how ESTs are packed onto physical workers (D1).  Plain DDP calls it with
// one part per *physical* rank, so its bits change with the DoP.
#pragma once

#include <vector>

#include "autograd/parameter.hpp"
#include "comm/bucket.hpp"
#include "tensor/tensor.hpp"

namespace easyscale::comm {

struct GradientSet {
  std::vector<tensor::Tensor> grads;  // one tensor per parameter, store order

  /// Allocate zeroed gradients matching `params`.
  static GradientSet zeros_like(const autograd::ParameterStore& params);

  /// Copy the .grad fields out of `params` ("D2H gradient copy").
  static GradientSet from_store(const autograd::ParameterStore& params);

  /// Write these gradients into the .grad fields of `params`.
  void to_store(autograd::ParameterStore& params) const;

  void zero();
  void save(ByteWriter& w) const;
  static GradientSet load(ByteReader& r);
};

/// Reject malformed collective inputs with a structured Error instead of
/// UB: empty `parts`, null part pointers, ragged gradient counts, bucket
/// ids outside the gradient range or referenced twice, and parts whose
/// per-parameter gradient shapes disagree across participants.
void validate_allreduce_inputs(const BucketLayout& layout,
                               const std::vector<GradientSet*>& parts);

/// In-place bucketed ring all-reduce + average over all parts.
void allreduce_average(const BucketLayout& layout,
                       std::vector<GradientSet*>& parts);

/// Flat element count of bucket `b` (validated parts agree on shapes, so
/// any part is representative).
[[nodiscard]] std::int64_t bucket_numel(const BucketLayout& layout,
                                        std::size_t b, const GradientSet& part);

/// Bucket `b` of every part flattened, ring-summed in NCCL association
/// order and divided by the participant count: the reduction that the
/// all-reduce and the reduce-scatter share bit for bit.
[[nodiscard]] std::vector<float> bucket_average(
    const BucketLayout& layout, std::size_t b,
    const std::vector<GradientSet*>& parts);

/// Reduce exactly one bucket of `layout` (same flatten / ring association /
/// average / scatter as the matching iteration of allreduce_average).  The
/// overlapped comm path calls this per flushed bucket; running it for every
/// bucket in any order is bitwise identical to one allreduce_average call,
/// because buckets touch disjoint gradients.  Skips input validation — the
/// caller validates the full layout once per step.
void allreduce_average_bucket(const BucketLayout& layout, std::size_t bucket,
                              const std::vector<GradientSet*>& parts);

/// Total bytes a participant ships per sync (for the Fig-13 accounting).
[[nodiscard]] std::int64_t gradient_bytes(const GradientSet& set);

}  // namespace easyscale::comm
