#include "kernels/reduce.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/error.hpp"

namespace easyscale::kernels {

namespace {

/// Leaf partials a call keeps on the stack; a sum with more leaves (over
/// 16k floats at width 64) takes one heap buffer instead.
constexpr std::int64_t kStackPartials = 256;

/// Leaf width of a variant; a sequential sum is one leaf of the whole span.
std::int64_t leaf_width(ReduceVariant variant, std::int64_t len) {
  switch (variant) {
    case ReduceVariant::kSequential:
      return std::max<std::int64_t>(len, 1);
    case ReduceVariant::kPairwise64:
      return 64;
    case ReduceVariant::kPairwise128:
      return 128;
    case ReduceVariant::kPairwise256:
      return 256;
  }
  ES_THROW("unreachable reduce variant");
}

/// out[j] = p[j][0] + p[j][step] + ... + p[j][(n - 1) * step], each a
/// sequential chain from 0.0f.  The G chains advance together, so their
/// adds overlap instead of waiting on one another.
template <int G>
void chains(const float* const* p, std::int64_t step, std::int64_t n,
            float* const* out) {
  float acc[G] = {};
  for (std::int64_t i = 0, off = 0; i < n; ++i, off += step) {
    for (int j = 0; j < G; ++j) acc[j] += p[j][off];
  }
  for (int j = 0; j < G; ++j) *out[j] = acc[j];
}

void run_chains(int g, const float* const* p, std::int64_t step,
                std::int64_t n, float* const* out) {
  switch (g) {
    case 8: return chains<8>(p, step, n, out);
    case 7: return chains<7>(p, step, n, out);
    case 6: return chains<6>(p, step, n, out);
    case 5: return chains<5>(p, step, n, out);
    case 4: return chains<4>(p, step, n, out);
    case 3: return chains<3>(p, step, n, out);
    case 2: return chains<2>(p, step, n, out);
    case 1: return chains<1>(p, step, n, out);
  }
  ES_THROW("chain count " << g << " outside [1, " << kReduceChains << "]");
}

/// Pairwise fold of n partials in place, bottom-up: (0,1), (2,3), ... with
/// an odd last partial carried up a level — the shape of a GPU block
/// reduction.
float fold_pairwise(float* p, std::int64_t n) {
  while (n > 1) {
    std::int64_t m = 0;
    for (std::int64_t i = 0; i + 1 < n; i += 2) p[m++] = p[i] + p[i + 1];
    if (n % 2) p[m++] = p[n - 1];
    n = m;
  }
  return n == 0 ? 0.0f : p[0];
}

/// Chains of one length, queued until kReduceChains of them can run
/// together.
class ChainBatch {
 public:
  ChainBatch(std::int64_t step, std::int64_t n) : step_(step), n_(n) {}

  void add(const float* p, float* out) {
    p_[g_] = p;
    out_[g_] = out;
    if (++g_ == kReduceChains) flush();
  }
  void flush() {
    if (g_ > 0) run_chains(g_, p_, step_, n_, out_);
    g_ = 0;
  }

 private:
  std::int64_t step_, n_;
  int g_ = 0;
  const float* p_[kReduceChains];
  float* out_[kReduceChains];
};

/// out[k] = the variant's sum of base[k * seg_stride + i * step] over i in
/// [0, len), for k in [0, count).  Each segment is cut into leaves of the
/// variant's width, each leaf summed sequentially and the leaf partials
/// folded pairwise: exactly the tree of one reduce_sum_variant call.  Only
/// the schedule differs: leaves of every segment in a pass run as
/// interleaved chains, and partials live on the stack.
void sum_segments(ReduceVariant variant, const float* base,
                  std::int64_t seg_stride, std::int64_t step,
                  std::int64_t len, std::int64_t count, float* out) {
  if (len == 0) {
    std::fill(out, out + count, 0.0f);
    return;
  }
  const std::int64_t width = leaf_width(variant, len);
  const std::int64_t full = len / width, tail = len - full * width;
  const std::int64_t leaves = full + (tail > 0 ? 1 : 0);
  std::array<float, kStackPartials> stack;
  std::vector<float> heap;
  float* part = stack.data();
  if (leaves > kStackPartials) {
    heap.resize(static_cast<std::size_t>(leaves));
    part = heap.data();
  }
  // Segments per pass: as many as the partial buffer holds, at least one.
  const std::int64_t per_pass =
      std::max<std::int64_t>(1, kStackPartials / leaves);
  for (std::int64_t k0 = 0; k0 < count; k0 += per_pass) {
    const std::int64_t kn = std::min(per_pass, count - k0);
    const float* seg0 = base + k0 * seg_stride;
    ChainBatch leaf(step, width);
    for (std::int64_t k = 0; k < kn; ++k) {
      for (std::int64_t j = 0; j < full; ++j) {
        leaf.add(seg0 + k * seg_stride + j * width * step,
                 part + k * leaves + j);
      }
    }
    leaf.flush();
    if (tail > 0) {
      ChainBatch last(step, tail);
      for (std::int64_t k = 0; k < kn; ++k) {
        last.add(seg0 + k * seg_stride + full * width * step,
                 part + k * leaves + full);
      }
      last.flush();
    }
    for (std::int64_t k = 0; k < kn; ++k) {
      out[k0 + k] = fold_pairwise(part + k * leaves, leaves);
    }
  }
}

}  // namespace

float reduce_sum_variant(ReduceVariant variant, std::span<const float> v) {
  float out;
  sum_segments(variant, v.data(), 0, 1, static_cast<std::int64_t>(v.size()),
               1, &out);
  return out;
}

float reduce_sum(const ExecContext& ctx, std::span<const float> values) {
  return reduce_sum_variant(select_reduce_variant(ctx), values);
}

void reduce_sum_segments(const ExecContext& ctx, std::span<const float> values,
                         std::int64_t seg_stride, std::int64_t len,
                         std::span<float> out) {
  const auto count = static_cast<std::int64_t>(out.size());
  ES_CHECK(len >= 0 && seg_stride >= 0, "bad segment geometry");
  ES_CHECK(count == 0 || (count - 1) * seg_stride + len <=
                             static_cast<std::int64_t>(values.size()),
           count << " segments of " << len << " at stride " << seg_stride
                 << " overrun " << values.size() << " values");
  sum_segments(select_reduce_variant(ctx), values.data(), seg_stride, 1, len,
               count, out.data());
}

std::int64_t reduce_segment_group(const ExecContext& ctx, std::int64_t len) {
  const std::int64_t width = leaf_width(select_reduce_variant(ctx), len);
  const std::int64_t leaves =
      std::max<std::int64_t>(1, (len + width - 1) / width);
  const std::int64_t fit = kSegmentGroupFloats / std::max<std::int64_t>(1, len);
  return std::max<std::int64_t>(1, std::min(kReduceChains / leaves, fit));
}

float reduce_sum_strided(const ExecContext& ctx, std::span<const float> values,
                         std::int64_t offset, std::int64_t stride,
                         std::int64_t count) {
  ES_CHECK(stride > 0, "stride must be positive");
  ES_CHECK(offset >= 0 && (count == 0 || offset + (count - 1) * stride <
                                             static_cast<std::int64_t>(
                                                 values.size())),
           "strided sum overruns " << values.size() << " values");
  float out;
  sum_segments(select_reduce_variant(ctx), values.data() + offset, 0, stride,
               count, 1, &out);
  return out;
}

void reduce_sum_strided_batch(const ExecContext& ctx,
                              std::span<const float> values,
                              std::int64_t stride, std::int64_t count,
                              std::span<float> out) {
  ES_CHECK(stride > 0, "stride must be positive");
  const ReduceVariant variant = select_reduce_variant(ctx);
  const SimdOps& ops = ctx.simd_ops();
  // Output slots are disjoint (owner-computes).  The vector path assigns
  // lanes to adjacent slots — the strided loads values[s + i * stride] are
  // contiguous across lanes — with each slot keeping its variant's exact
  // leaf/fold order, so it is bitwise-equal to the scalar path below, which
  // stays the scalar backend's reference: one slot at a time, read in
  // place.
  parallel_for(
      ctx, static_cast<std::int64_t>(out.size()),
      std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, count)),
      [&](int /*chunk*/, std::int64_t s0, std::int64_t s1) {
        if (ops.reduce_batch != nullptr) {
          ops.reduce_batch(variant, values.data(), stride, count, s0, s1,
                           out.data());
          return;
        }
        for (std::int64_t s = s0; s < s1; ++s) {
          float sum;
          sum_segments(variant, values.data() + s, 0, stride, count, 1, &sum);
          out[static_cast<std::size_t>(s)] += sum;
        }
      });
  ctx.notify_post_op(KernelFamily::kReduce, out.data(),
                     static_cast<std::int64_t>(out.size()));
}

}  // namespace easyscale::kernels
