#include "sim/recovery_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rng/philox.hpp"

namespace easyscale::sim {

double peer_fetch_seconds(const comm::TransportConfig& fabric,
                          std::int64_t frame_bytes) {
  ES_CHECK(fabric.link_bandwidth_bps > 0.0, "fabric bandwidth must be > 0");
  return fabric.link_latency_s +
         static_cast<double>(frame_bytes) / fabric.link_bandwidth_bps;
}

namespace {

/// One strategy's job timeline: wall clock and completed-step counter.
struct JobTimeline {
  double t_s = 0.0;
  std::int64_t steps = 0;
};

/// Advance `job` to the failure instant, then roll back to its newest
/// recovery point (`every`-step cadence) and charge `restore_s`.  Returns
/// the steps lost to the rollback.
std::int64_t fail_and_recover(JobTimeline& job, double fail_t_s,
                              double step_s, std::int64_t every,
                              double restore_s) {
  if (fail_t_s > job.t_s) {
    job.steps +=
        static_cast<std::int64_t>((fail_t_s - job.t_s) / step_s);
    job.t_s = fail_t_s;
  }
  const std::int64_t lost = job.steps % every;
  job.steps -= lost;
  job.t_s += restore_s;
  return lost;
}

}  // namespace

RecoveryModelResult model_recovery(
    const std::vector<trace::ClusterFailureEvent>& failures,
    const RecoveryModelConfig& config) {
  ES_CHECK(config.step_s > 0.0, "step time must be positive");
  ES_CHECK(config.disk_every >= 1, "disk cadence must be >= 1");
  ES_CHECK(config.peer_every >= 1, "peer cadence must be >= 1");
  ES_CHECK(config.world >= 1, "need at least one rank");
  ES_CHECK(config.peer_replicas >= 0, "replicas must be >= 0");
  ES_CHECK(config.replica_loss_rate >= 0.0 && config.replica_loss_rate <= 1.0,
           "replica loss rate must be a probability");

  std::vector<trace::ClusterFailureEvent> sorted = failures;
  std::sort(sorted.begin(), sorted.end(),
            [](const trace::ClusterFailureEvent& a,
               const trace::ClusterFailureEvent& b) {
              return a.t_s < b.t_s;
            });

  const std::int64_t frame_bytes =
      (config.snapshot_bytes + config.world - 1) / config.world;
  const double fetch_s = peer_fetch_seconds(config.fabric, frame_bytes);

  RecoveryModelResult result;
  JobTimeline disk_job;
  JobTimeline peer_job;
  rng::Philox gen(config.seed);
  for (const auto& ev : sorted) {
    ++result.failures;
    // Disk-only strategy: lose up to a full disk interval, pay the disk
    // restore.
    result.lost_steps_disk += fail_and_recover(
        disk_job, ev.t_s, config.step_s, config.disk_every,
        config.disk_restore_s);
    result.recovery_s_disk += config.disk_restore_s;

    // Peer-first strategy: the dead rank's owner copy dies with it; the
    // quorum holds if any peer replica survives the seeded loss draw.
    // The draws are consumed unconditionally (fixed count per failure) so
    // the stream stays aligned across configs.
    bool quorum = false;
    for (int r = 0; r < config.peer_replicas; ++r) {
      if (gen.next_double() >= config.replica_loss_rate) quorum = true;
    }
    if (quorum) {
      result.lost_steps_peer += fail_and_recover(
          peer_job, ev.t_s, config.step_s, config.peer_every, fetch_s);
      result.recovery_s_peer += fetch_s;
      ++result.peer_recoveries;
    } else {
      result.lost_steps_peer += fail_and_recover(
          peer_job, ev.t_s, config.step_s, config.disk_every,
          config.disk_restore_s);
      result.recovery_s_peer += config.disk_restore_s;
      ++result.disk_fallbacks;
    }
  }
  result.steps_done_disk = disk_job.steps;
  result.steps_done_peer = peer_job.steps;
  return result;
}

}  // namespace easyscale::sim
