#include "kernels/scatter.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace easyscale::kernels {

namespace {
std::atomic<std::uint64_t> g_atomic_order_counter{0};
}

void reset_atomic_emulation_counter() { g_atomic_order_counter.store(0); }

void scatter_add(const ExecContext& ctx, std::span<const std::int64_t> indices,
                 std::span<const float> src, std::int64_t width,
                 std::span<float> out) {
  const std::int64_t n = static_cast<std::int64_t>(indices.size());
  ES_CHECK(static_cast<std::int64_t>(src.size()) == n * width,
           "scatter_add: src size mismatch");
  if (scatter_add_sorted(ctx) && width > 0) {
    // Deterministic.  Validate every row up front so no chunk body can
    // throw mid-flight.
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t row = indices[static_cast<std::size_t>(i)];
      ES_CHECK(row >= 0 &&
                   (row + 1) * width <= static_cast<std::int64_t>(out.size()),
               "scatter_add: row out of range");
    }
    // Partitioning by destination row is owner-computes: each chunk scans
    // every update in source order and applies only those landing in its
    // own rows, so each row adds its updates in exactly the order the
    // sequential loop would.  One chunk is that sequential loop.
    const std::int64_t num_rows = static_cast<std::int64_t>(out.size()) / width;
    const std::int64_t grain = std::max<std::int64_t>(1, 512 / width);
    const std::int64_t* idx = indices.data();
    parallel_for(ctx, num_rows, grain,
                 [&](int /*chunk*/, std::int64_t r0, std::int64_t r1) {
                   for (std::int64_t i = 0; i < n; ++i) {
                     const std::int64_t row = idx[i];
                     if (row < r0 || row >= r1) continue;
                     float* d = out.data() + row * width;
                     const float* s = src.data() + i * width;
                     for (std::int64_t c = 0; c < width; ++c) d[c] += s[c];
                   }
                 });
    ctx.notify_post_op(KernelFamily::kScatter, out.data(),
                       static_cast<std::int64_t>(out.size()));
    return;
  }
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), std::int64_t{0});
  if (!scatter_add_sorted(ctx)) {
    // Emulated atomics: rotate the processing order by a process-global
    // counter so collision accumulation order varies call to call.  Stays
    // sequential — this path is deliberately nondeterministic already.
    const std::uint64_t rot = g_atomic_order_counter.fetch_add(1);
    if (n > 0) {
      std::rotate(order.begin(),
                  order.begin() + static_cast<std::int64_t>(rot % n),
                  order.end());
    }
  }
  for (std::int64_t oi : order) {
    const std::int64_t row = indices[static_cast<std::size_t>(oi)];
    ES_CHECK(row >= 0 &&
                 (row + 1) * width <= static_cast<std::int64_t>(out.size()),
             "scatter_add: row out of range");
    const float* s = src.data() + oi * width;
    float* d = out.data() + row * width;
    for (std::int64_t c = 0; c < width; ++c) d[c] += s[c];
  }
  ctx.notify_post_op(KernelFamily::kScatter, out.data(),
                     static_cast<std::int64_t>(out.size()));
}

}  // namespace easyscale::kernels
