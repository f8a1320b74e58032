#include "cluster/allocator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace easyscale::cluster {

namespace {

using Keyed = std::pair<double, std::size_t>;  // (sort key, request index)

/// Add to `alloc` the largest-remainder rounding of the fractional surplus
/// shares ws.extra, each capped at its ws.headroom, handing out at most
/// `capacity` GPUs in all.  Deterministic: remainder ties break toward the
/// lower index.  A positive remainder means floor(share) < headroom, so
/// the GPU it may earn never overshoots the headroom.
void round_shares(FairShareWorkspace& ws, std::int64_t capacity,
                  std::vector<std::int64_t>& alloc) {
  auto& rem = ws.remainders;
  rem.clear();
  std::int64_t used = 0;
  for (std::size_t i = 0; i < ws.extra.size(); ++i) {
    const double clamped =
        std::min(ws.extra[i], static_cast<double>(ws.headroom[i]));
    const double whole = std::floor(clamped);
    alloc[i] += static_cast<std::int64_t>(whole);
    used += static_cast<std::int64_t>(whole);
    if (clamped - whole > 0.0) rem.push_back({clamped - whole, i});
  }
  std::sort(rem.begin(), rem.end(),
            [](const Keyed& a, const Keyed& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& entry : rem) {
    if (used >= capacity) break;
    ++alloc[entry.second];
    ++used;
  }
}

}  // namespace

void fair_share(const std::vector<ShareRequest>& reqs, std::int64_t capacity,
                FairShareWorkspace& ws, std::vector<std::int64_t>& alloc) {
  ES_CHECK(capacity >= 0, "negative capacity");
  const std::size_t n = reqs.size();
  alloc.assign(n, 0);
  std::int64_t remaining = capacity;

  // Pass 1 — entitlements, guaranteed before burst: each quota-holding
  // tenant receives min(demand, quota) while capacity lasts (an
  // oversubscribed cluster serves guaranteed quotas first).
  for (SlaTier tier : {SlaTier::kGuaranteed, SlaTier::kBurst}) {
    for (std::size_t i = 0; i < n && remaining > 0; ++i) {
      if (reqs[i].tier != tier) continue;
      const std::int64_t granted = std::min(
          {reqs[i].demand, reqs[i].quota, remaining});
      alloc[i] += granted;
      remaining -= granted;
    }
  }

  // Pass 2 — weighted max-min water-fill of the surplus over unmet demand
  // (all tiers compete; spot only ever eats here).  Exact O(n log n):
  // sort by saturation level headroom/weight, walk until the water level
  // fits under the next tenant's cap; everyone before the walk point gets
  // their full headroom, everyone after gets weight × level.
  auto& headroom = ws.headroom;
  auto& order = ws.order;
  auto& extra = ws.extra;
  headroom.resize(n);
  order.clear();
  extra.assign(n, 0.0);
  double weight_tail = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    headroom[i] = std::max<std::int64_t>(0, reqs[i].demand - alloc[i]);
    if (headroom[i] > 0 && reqs[i].weight > 0.0) {
      order.push_back(
          {static_cast<double>(headroom[i]) / reqs[i].weight, i});
      weight_tail += reqs[i].weight;
    }
  }
  std::sort(order.begin(), order.end(), [](const Keyed& a, const Keyed& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  double spare = static_cast<double>(remaining);
  std::size_t walk = 0;
  for (; walk < order.size() && weight_tail > 0.0; ++walk) {
    const auto [saturation, i] = order[walk];
    const double level = spare / weight_tail;
    if (saturation > level) break;
    extra[i] = static_cast<double>(headroom[i]);  // saturates below level
    spare -= extra[i];
    weight_tail -= reqs[i].weight;
  }
  if (weight_tail > 0.0) {
    const double level = spare / weight_tail;
    for (std::size_t k = walk; k < order.size(); ++k) {
      const std::size_t i = order[k].second;
      extra[i] = level * reqs[i].weight;
    }
  }
  round_shares(ws, remaining, alloc);
}

std::vector<std::int64_t> fair_share(const std::vector<ShareRequest>& reqs,
                                     std::int64_t capacity) {
  FairShareWorkspace ws;
  std::vector<std::int64_t> alloc;
  fair_share(reqs, capacity, ws, alloc);
  return alloc;
}

double jain_index(const std::vector<double>& x) {
  if (x.empty()) return 1.0;
  double sum = 0.0, sq = 0.0;
  for (double v : x) {
    sum += v;
    sq += v * v;
  }
  if (sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(x.size()) * sq);
}

}  // namespace easyscale::cluster
