// Weighted max-min fair-share allocator with SLA-aware preemption order.
//
// The allocator works on *tenant aggregates* (total GPUs, not device
// types): guaranteed and burst tenants are first made whole up to
// min(demand, quota), then the surplus is water-filled across all unmet
// demand proportionally to tenant weight.  Integer GPUs come out of a
// deterministic largest-remainder rounding (ties toward the lower tenant
// id), so the same inputs always produce the same allocation.
//
// Preemption never kills a job here: when capacity shrinks, the service
// re-runs the allocator and routes the *difference* through the elastic
// scale-in path (jobs shrink toward — but, for guaranteed tenants, never
// below — their fair share), in SLA order: spot first, burst next,
// guaranteed last.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/tenant.hpp"

namespace easyscale::cluster {

struct ShareRequest {
  std::int64_t tenant = 0;
  SlaTier tier = SlaTier::kBurst;
  std::int64_t quota = 0;
  double weight = 1.0;
  std::int64_t demand = 0;  // sum of maxP over the tenant's live jobs
};

/// Scratch buffers of fair_share.  Reusing one across calls makes a call
/// allocation-free once the buffers have grown to the largest request set;
/// the contents carry nothing from one call to the next.
struct FairShareWorkspace {
  std::vector<std::int64_t> headroom;
  /// (headroom / weight, request index), sorted: the water-fill walk.
  std::vector<std::pair<double, std::size_t>> order;
  std::vector<double> extra;  // fractional surplus shares
  /// (fractional part, request index): the rounding order.
  std::vector<std::pair<double, std::size_t>> remainders;
};

/// out[i] becomes the GPU share of requests[i]; the shares sum to at most
/// capacity and never exceed the request's demand.  `out` is resized to
/// requests.size().
void fair_share(const std::vector<ShareRequest>& requests,
                std::int64_t capacity, FairShareWorkspace& ws,
                std::vector<std::int64_t>& out);

/// The same shares in a fresh vector, with a fresh workspace.
[[nodiscard]] std::vector<std::int64_t> fair_share(
    const std::vector<ShareRequest>& requests, std::int64_t capacity);

/// Jain's fairness index over per-tenant normalized service x_i =
/// received_i / weight_i: (Σx)² / (n·Σx²), 1.0 = perfectly fair.
[[nodiscard]] double jain_index(const std::vector<double>& normalized);

}  // namespace easyscale::cluster
