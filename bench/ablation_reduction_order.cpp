// Ablation: how much floating-point nondeterminism does each mechanism
// actually inject?  Quantifies, per mechanism, the fraction of elements
// whose reduced value changes bitwise — the raw material behind Figs 2/9.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/allreduce.hpp"
#include "comm/bucket.hpp"
#include "comm/ring.hpp"
#include "kernels/gemm.hpp"
#include "rng/sampling.hpp"

namespace {

using namespace easyscale;

double fraction_diff(std::span<const float> a, std::span<const float> b) {
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++diff;
  }
  return static_cast<double>(diff) / static_cast<double>(a.size());
}

}  // namespace

int main() {
  bench::banner("Ablation", "bitwise divergence rates per mechanism");
  rng::Philox gen(4242);
  constexpr std::size_t kN = 1 << 14;

  // 1. Ring all-reduce world size.
  std::vector<std::vector<float>> grads(8, std::vector<float>(kN));
  for (auto& g : grads) rng::fill_normal(gen, g, 0.0f, 1.0f);
  auto ring_with_world = [&](std::size_t world) {
    std::vector<std::vector<float>> parts(world, std::vector<float>(kN, 0.0f));
    for (std::size_t v = 0; v < grads.size(); ++v) {
      for (std::size_t i = 0; i < kN; ++i) parts[v % world][i] += grads[v][i];
    }
    std::vector<std::span<const float>> views(parts.begin(), parts.end());
    std::vector<float> out(kN);
    comm::ring_allreduce_sum(views, out);
    return out;
  };
  const auto w8 = ring_with_world(8);
  std::printf("\nring all-reduce, 8 virtual gradients folded into W physical "
              "participants (vs W=8):\n");
  for (std::size_t w : {1, 2, 4}) {
    std::printf("  W=%zu: %.1f%% of elements differ bitwise\n", w,
                100.0 * fraction_diff(ring_with_world(w), w8));
  }

  // 2. GEMM kernel variants (device heterogeneity).
  const std::int64_t m = 16, n = 64, k = 128;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  rng::fill_normal(gen, a, 0.0f, 1.0f);
  rng::fill_normal(gen, b, 0.0f, 1.0f);
  auto gemm_with = [&](kernels::GemmVariant v) {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    kernels::gemm_variant(v, m, n, k, a, b, c, false);
    return c;
  };
  const auto v100 = gemm_with(kernels::GemmVariant::kInterleaved8);
  std::printf("\nGEMM (m=%lld n=%lld k=%lld) vs the V100-native kernel:\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k));
  std::printf("  P100-native: %.1f%% elements differ\n",
              100.0 * fraction_diff(
                          gemm_with(kernels::GemmVariant::kInterleaved4), v100));
  std::printf("  T4-native:   %.1f%% elements differ\n",
              100.0 * fraction_diff(
                          gemm_with(kernels::GemmVariant::kInterleaved2), v100));
  std::printf("  D2-pinned:   %.1f%% elements differ (but identical on "
              "EVERY device)\n",
              100.0 * fraction_diff(
                          gemm_with(kernels::GemmVariant::kInterleaved4), v100));

  // 3. Bucket layout (the D0-vs-D1 restart gap).
  std::vector<autograd::Parameter> params;
  // GCC 12 at -O3 flags the inlined "p" + std::string as a -Wrestrict
  // overlap of ~2^63 bytes at offset -3: GCC PR 105329, a false positive
  // of the 1-character-literal basic_string::_M_replace path.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
  for (int i = 0; i < 8; ++i) {
    params.emplace_back("p" + std::to_string(i), tensor::Shape{512});
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  autograd::ParameterStore store;
  for (auto& p : params) store.register_parameter(&p);
  std::printf("\nbucket layout vs divergence (4 virtual ranks, 8 params x "
              "512 floats):\n");
  for (std::int64_t cap : {1024, 4096, 16384}) {
    comm::BucketManager mgr(store, cap);
    const auto init = mgr.initial_layout();
    const auto ready = mgr.layout_from_ready_order({0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<comm::GradientSet> sets;
    for (int r = 0; r < 4; ++r) {
      auto s = comm::GradientSet::zeros_like(store);
      for (auto& g : s.grads) rng::fill_normal(gen, g.data(), 0.0f, 1.0f);
      sets.push_back(std::move(s));
    }
    auto reduce = [&](const comm::BucketLayout& layout) {
      auto copy = sets;
      std::vector<comm::GradientSet*> parts;
      for (auto& s : copy) parts.push_back(&s);
      comm::allreduce_average(layout, parts);
      std::vector<float> flat;
      for (const auto& g : copy[0].grads) {
        flat.insert(flat.end(), g.data().begin(), g.data().end());
      }
      return flat;
    };
    const auto x = reduce(init);
    const auto y = reduce(ready);
    std::printf("  cap %5lld B: %zu buckets, layouts %s, %.1f%% elements "
                "differ after reduce\n",
                static_cast<long long>(cap), init.num_buckets(),
                init == ready ? "EQUAL" : "differ",
                100.0 * fraction_diff(x, y));
  }
  bench::note("every nonzero row is a root cause EasyScale must record "
              "(D1: layout + virtual ranks) or pin (D2: kernels).");
  return 0;
}
