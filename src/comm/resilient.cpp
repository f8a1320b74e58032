#include "comm/resilient.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "comm/shard.hpp"

namespace easyscale::comm {

namespace {

/// `bucket_ids` checked against `layout`, or every bucket in layout order.
std::vector<std::size_t> select_buckets(
    const BucketLayout& layout, const std::vector<std::size_t>* bucket_ids) {
  if (bucket_ids == nullptr) {
    std::vector<std::size_t> all(layout.buckets.size());
    for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
    return all;
  }
  for (std::size_t b : *bucket_ids) {
    ES_CHECK(b < layout.buckets.size(),
             "bucket_ids references bucket " << b << " outside layout");
  }
  return *bucket_ids;
}

/// The retry scaffold every resilient collective shares: a heartbeat
/// round, the membership view, the simulated ring timeline (per entry of
/// `phase_numel`, steps_factor * (W-1) ring steps shipping ceil(numel / W)
/// floats per edge), an abort on the first fault, a jittered backoff, and
/// the clean (re-)execution `execute(live)` over the live part indices.
/// With `shrink` the ring drops parts whose host the monitor condemned;
/// without it such a part throws RankDeathError.  `what` names the
/// collective in errors.
CollectiveReport run_resilient(
    std::size_t num_parts, const std::vector<std::int64_t>& phase_numel,
    std::int64_t steps_factor, bool shrink, const std::string& what,
    Transport& transport, MembershipMonitor& monitor,
    const ResilientConfig& cfg, const std::vector<int>* host_of_part,
    const std::function<void(const std::vector<std::size_t>& live)>&
        execute) {
  ES_CHECK(shrink || cfg.on_death == DeathPolicy::kAbort,
           what << " requires cfg.on_death == DeathPolicy::kAbort: a shard "
                   "owner's optimizer-state chunks have no live replica "
                   "inside the collective, so death cannot shrink away");
  ES_CHECK(cfg.max_attempts >= 1, "need at least one collective attempt");
  const int world = transport.world();
  std::vector<int> hosts;
  if (host_of_part != nullptr) {
    hosts = *host_of_part;
    ES_CHECK(hosts.size() == num_parts,
             "host_of_part size " << hosts.size() << " != parts "
                                  << num_parts);
  } else {
    ES_CHECK(static_cast<int>(num_parts) <= world,
             "identity mapping needs parts <= transport world");
    hosts.resize(num_parts);
    for (std::size_t i = 0; i < num_parts; ++i) {
      hosts[i] = static_cast<int>(i);
    }
  }
  for (int h : hosts) {
    ES_CHECK(h >= 0 && h < world, "part host " << h << " out of range");
  }

  CollectiveReport report;
  const double t_base = transport.stats().virtual_time_s;
  transport.begin_collective();

  for (int attempt = 1; attempt <= cfg.max_attempts; ++attempt) {
    report.attempts = attempt;
    // Heartbeat round: live ranks report in before the transfers start.
    transport.advance(transport.config().heartbeat_period_s);
    const double hb_now = transport.stats().virtual_time_s;
    for (int r = 0; r < world; ++r) {
      if (transport.alive(r)) monitor.record_heartbeat(r, hb_now);
    }

    // Membership view for this attempt: parts whose host the monitor still
    // trusts.  Shrinking excludes condemned hosts' parts — their gradients
    // stay untouched; otherwise the step must roll back (and reshard).
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < num_parts; ++i) {
      if (monitor.alive(hosts[i])) {
        live.push_back(i);
      } else if (!shrink) {
        report.virtual_time_s = transport.stats().virtual_time_s - t_base;
        throw RankDeathError(
            hosts[i], "shard owner rank " + std::to_string(hosts[i]) +
                          " dead before sharded collective; step must roll "
                          "back and reshard");
      }
    }
    if (live.empty()) {
      throw CollectiveAbortedError("all collective participants condemned");
    }
    const auto ring_w = static_cast<std::int64_t>(live.size());

    // Simulate the message timeline of the ring: within a step every edge
    // ships one chunk concurrently, so the step costs the slowest
    // transfer.  Any non-clean delivery aborts the in-flight operation —
    // partial reductions are never published.
    bool faulted = false;
    for (std::size_t p = 0; p < phase_numel.size() && !faulted; ++p) {
      const std::int64_t chunk_bytes =
          ((phase_numel[p] + ring_w - 1) / ring_w) *
          static_cast<std::int64_t>(sizeof(float));
      for (std::int64_t step = 0; step < steps_factor * (ring_w - 1) &&
                                  !faulted;
           ++step) {
        double step_s = 0.0;
        for (std::int64_t i = 0; i < ring_w; ++i) {
          const int src = hosts[live[static_cast<std::size_t>(i)]];
          const int dst =
              hosts[live[static_cast<std::size_t>((i + 1) % ring_w)]];
          if (src == dst) continue;  // co-hosted parts: local copy
          const Delivery d = transport.send(src, dst, chunk_bytes);
          step_s = std::max(step_s, d.elapsed_s);
          if (d.status == DeliveryStatus::kDelivered) continue;
          faulted = true;
          if (d.status == DeliveryStatus::kCorrupt) {
            report.incidents.push_back(
                {LinkFaultKind::kCorruptChunk, src, attempt});
          } else {  // timeout: a drop, an over-deadline stall, or death
            monitor.note_timeout(src);
            report.incidents.push_back(
                {LinkFaultKind::kDropChunk, src, attempt});
            transport.advance(d.elapsed_s);  // the receiver waited it out
            const double now = transport.stats().virtual_time_s;
            // Heartbeats are out-of-band and kept flowing during the wait:
            // live ranks stay fresh, a dead rank's last beat keeps aging —
            // so a single transient fault never condemns a live rank.
            for (int r = 0; r < world; ++r) {
              if (transport.alive(r)) monitor.record_heartbeat(r, now);
            }
            // Condemn EVERY rank whose deadline has expired, in ascending
            // rank order — when two deadlines expire at the same tick the
            // outcome must not depend on which send timed out first.
            const auto due = monitor.condemn_expired(now);
            for (const int dead : due) {
              report.condemned.push_back(dead);
              report.incidents.push_back(
                  {LinkFaultKind::kRankDeath, dead, attempt});
            }
            if (!due.empty() && cfg.on_death == DeathPolicy::kAbort) {
              report.virtual_time_s =
                  transport.stats().virtual_time_s - t_base;
              throw RankDeathError(
                  due.front(),
                  "rank " + std::to_string(due.front()) +
                      " condemned mid-collective (heartbeat deadline "
                      "exceeded); in-flight " + what + " aborted");
            }
          }
          break;  // abort the in-flight operation at the first fault
        }
        if (!faulted) transport.advance(step_s);
      }
    }

    if (!faulted) {
      // Deterministic (re-)execution from the untouched inputs.
      execute(live);
      for (std::size_t i : live) monitor.clear_timeouts(hosts[i]);
      report.ok = true;
      report.survivors.reserve(live.size());
      for (std::size_t i : live) {
        report.survivors.push_back(static_cast<int>(i));
      }
      report.virtual_time_s = transport.stats().virtual_time_s - t_base;
      return report;
    }

    // Transient fault (or a shrink): back off — bounded, jittered — and
    // re-execute from the untouched inputs.
    bool capped = false;
    const double wait = cfg.backoff.delay_s(attempt, &capped);
    report.backoff_wait_s += wait;
    if (capped) ++report.capped_backoffs;
    transport.advance(wait);
  }
  report.virtual_time_s = transport.stats().virtual_time_s - t_base;
  throw CollectiveAbortedError(what + " still faulting after " +
                               std::to_string(cfg.max_attempts) +
                               " attempts");
}

}  // namespace

void merge_collective_report(CollectiveReport& total,
                             const CollectiveReport& piece) {
  total.ok = (total.attempts == 0 ? true : total.ok) && piece.ok;
  total.attempts += piece.attempts;
  total.condemned.insert(total.condemned.end(), piece.condemned.begin(),
                         piece.condemned.end());
  total.survivors = piece.survivors;
  total.virtual_time_s += piece.virtual_time_s;
  total.backoff_wait_s += piece.backoff_wait_s;
  total.capped_backoffs += piece.capped_backoffs;
  total.incidents.insert(total.incidents.end(), piece.incidents.begin(),
                         piece.incidents.end());
}

CollectiveReport resilient_allreduce_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    Transport& transport, MembershipMonitor& monitor,
    const ResilientConfig& cfg, const std::vector<int>* host_of_part,
    const std::vector<std::size_t>* bucket_ids) {
  // Subset calls come from the overlapped pipeline, whose owner validated
  // the full layout once before submitting any job; validating here would
  // read buckets other ranks are still publishing (a racy cross-bucket
  // scan on the comm thread).
  if (bucket_ids == nullptr) validate_allreduce_inputs(layout, parts);
  ES_CHECK(!parts.empty(), "allreduce over zero participants");
  const auto selected = select_buckets(layout, bucket_ids);
  std::vector<std::int64_t> numel;
  numel.reserve(selected.size());
  for (std::size_t b : selected) {
    numel.push_back(bucket_numel(layout, b, *parts[0]));
  }
  // Per bucket: W-1 reduce-scatter steps then W-1 all-gather steps.
  return run_resilient(
      parts.size(), numel, /*steps_factor=*/2, /*shrink=*/true, "all-reduce",
      transport, monitor, cfg, host_of_part,
      [&](const std::vector<std::size_t>& live) {
        // Exactly the plain bucketed ring all-reduce + average over the
        // survivors' original gradients — the same bits as a failure-free
        // run at the survivor DoP.
        std::vector<GradientSet*> live_parts;
        live_parts.reserve(live.size());
        for (std::size_t i : live) live_parts.push_back(parts[i]);
        for (std::size_t b : selected) {
          allreduce_average_bucket(layout, b, live_parts);
        }
      });
}

// The ZeRO-1 collectives (comm/shard.hpp) ride the same scaffold.
CollectiveReport resilient_reduce_scatter_average(
    const BucketLayout& layout, std::vector<GradientSet*>& parts,
    const std::vector<ShardSlices>& owned_of_part, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg,
    const std::vector<int>* host_of_part,
    const std::vector<std::size_t>* bucket_ids) {
  // Subset calls come from the overlapped pipeline, whose owner validated
  // the full layout once before submitting any job (see
  // resilient_allreduce_average).
  if (bucket_ids == nullptr) {
    validate_reduce_scatter_inputs(layout, parts, owned_of_part);
  }
  const auto selected = select_buckets(layout, bucket_ids);
  std::int64_t total = 0;
  for (std::size_t b : selected) total += bucket_numel(layout, b, *parts[0]);
  return run_resilient(
      parts.size(), {total}, /*steps_factor=*/1, /*shrink=*/false,
      "sharded collective", transport, monitor, cfg, host_of_part,
      [&](const std::vector<std::size_t>&) {
        for (std::size_t b : selected) {
          reduce_scatter_average_bucket(layout, b, parts, owned_of_part);
        }
      });
}

CollectiveReport resilient_all_gather_params(
    const std::vector<autograd::ParameterStore*>& stores,
    const std::vector<optim::ParamSlice>& slices,
    const std::vector<int>& source_of_slice, Transport& transport,
    MembershipMonitor& monitor, const ResilientConfig& cfg,
    const std::vector<int>* host_of_store) {
  validate_all_gather_inputs(stores, slices, source_of_slice);
  return run_resilient(
      stores.size(), {slices_numel(slices)}, /*steps_factor=*/1,
      /*shrink=*/false, "sharded collective", transport, monitor, cfg,
      host_of_store, [&](const std::vector<std::size_t>&) {
        all_gather_params(stores, slices, source_of_slice);
      });
}

}  // namespace easyscale::comm
