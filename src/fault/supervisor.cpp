#include "fault/supervisor.hpp"

#include <algorithm>
#include <optional>

#include "comm/resilient.hpp"
#include "comm/transport.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace easyscale::fault {

namespace {

/// Whether `trainer` already runs on `workers` default workers under the
/// balanced split configure_workers builds for them, so that a repack
/// would only snapshot, rebuild and restore the same packing.
bool on_default_packing(const parallel::Trainer& trainer,
                        std::int64_t workers) {
  if (trainer.num_workers() != workers) return false;
  for (const auto& spec : trainer.current_worker_specs()) {
    if (spec.device != parallel::WorkerSpec{}.device) return false;
  }
  const parallel::Assignment packing = trainer.current_assignment();
  const std::int64_t world = trainer.world_size();
  std::int64_t next = 0;
  for (std::int64_t i = 0; i < workers; ++i) {
    const auto& ranks = packing[static_cast<std::size_t>(i)];
    const std::int64_t count = world / workers + (i < world % workers ? 1 : 0);
    if (static_cast<std::int64_t>(ranks.size()) != count) return false;
    for (const std::int64_t r : ranks) {
      if (r != next++) return false;
    }
  }
  return true;
}

}  // namespace

int resolve_peer_replicas(int config_replicas) {
  ES_CHECK(config_replicas >= 0,
           "peer_replicas must be >= 0, got " << config_replicas);
  if (config_replicas > 0) return config_replicas;
  const auto v = env_int64("EASYSCALE_PEER_REPLICAS", 0, 15);
  return static_cast<int>(v.value_or(0));
}

FaultSupervisor::FaultSupervisor(parallel::Trainer& trainer,
                                 core::CheckpointManager& checkpoints,
                                 FaultInjector injector,
                                 SupervisorConfig config)
    : trainer_(&trainer),
      checkpoints_(&checkpoints),
      injector_(std::move(injector)),
      config_(std::move(config)) {
  ES_CHECK(config_.checkpoint_every >= 1, "checkpoint interval must be >= 1");
  ES_CHECK(config_.max_retries >= 1, "need at least one retry");
  if (config_.sdc_defense) {
    ES_CHECK(config_.witness_every >= 1,
             "sdc defense needs a positive witness cadence");
    ES_CHECK(config_.checkpoint_every % config_.witness_every == 0,
             "checkpoint interval must be a multiple of witness_every so "
             "periodic saves land on witness-certified steps");
  }
  ES_CHECK(config_.peer_snapshot_every >= 1,
           "peer snapshot interval must be >= 1");
  ES_CHECK(config_.ranks_per_node >= 1, "need at least one rank per node");
  ES_CHECK(config_.peer_keep_epochs >= 1,
           "must keep at least one peer epoch");
  ES_CHECK(config_.controller_replicas == 0 ||
               (config_.controller_replicas >= 3 &&
                config_.controller_replicas % 2 == 1),
           "controller_replicas must be 0 (disabled) or odd and >= 3, got "
               << config_.controller_replicas);
}

std::optional<DecisionRecord> FaultSupervisor::decide(DecisionKind kind,
                                                      std::int64_t arg0,
                                                      std::int64_t arg1,
                                                      std::int64_t arg2) {
  if (!control_) return std::nullopt;
  // Propose-then-apply: the caller acts only AFTER the entry committed on a
  // majority.  The controller fabric's virtual-time delta (commit rounds,
  // elections, partition waits) is charged to the wall model; the decision
  // CONTENT never depends on wall time, so the committed stream is bitwise
  // identical across failover histories.
  const double before = control_->stats().virtual_time_s;
  DecisionRecord rec =
      control_->propose(kind, trainer_->global_step(), arg0, arg1, arg2);
  const double spent = control_->stats().virtual_time_s - before;
  stats_.controller_wall_s += spent;
  stats_.total_wall_s += spent;
  ++stats_.controller_decisions;
  // Every commit carries the leader's fencing epoch forward to the
  // checkpoint store: a deposed leader's writes die at the fence.
  checkpoints_->raise_fence(rec.epoch);
  return rec;
}

void FaultSupervisor::rearm_hooks() {
  // configure_workers rebuilds every Worker (fresh ExecContexts), so hooks
  // must be re-installed after EVERY reconfiguration.  Idempotent.
  for (std::int64_t s = 0; s < trainer_->num_workers(); ++s) {
    kernels::PostOpHook* hook = nullptr;
    const std::int64_t dev = device_of_slot_[static_cast<std::size_t>(s)];
    if (condemned_.count(dev) == 0) {
      const auto it = corrupt_.find(dev);
      if (it != corrupt_.end()) hook = it->second.corruptor.get();
    }
    trainer_->set_post_op_hook(s, hook);
  }
}

void FaultSupervisor::reshape_workers() {
  ES_CHECK(static_cast<std::int64_t>(device_of_slot_.size()) == workers_,
           "worker-slot/device bookkeeping out of sync");
  trainer_->configure_workers(
      std::vector<parallel::WorkerSpec>(static_cast<std::size_t>(workers_)));
  rearm_hooks();
}

void FaultSupervisor::drop_slot(std::int64_t slot) {
  ES_CHECK(slot >= 0 &&
               slot < static_cast<std::int64_t>(device_of_slot_.size()),
           "dropping worker slot " << slot << " out of range");
  // The device leaves the job for good, and its DRAM — replica shelf
  // included — leaves with it.
  peer_mark_device_dead(device_of_slot_[static_cast<std::size_t>(slot)]);
  device_of_slot_.erase(device_of_slot_.begin() + slot);
}

void FaultSupervisor::peer_mark_device_dead(std::int64_t device) {
  if (!peer_) return;
  // Replacement devices (id >= the initial world) never joined the peer
  // fabric and hold no replicas.
  if (device < 0 || device >= peer_->world()) return;
  const int rank = static_cast<int>(device);
  if (peer_->rank_alive(rank)) {
    peer_->mark_dead(rank);
    peer_fabric_->kill(rank);
  }
}

std::set<int> FaultSupervisor::peer_excluded() const {
  std::set<int> excluded;
  if (!peer_) return excluded;
  for (const auto dev : condemned_) {
    if (dev >= 0 && dev < peer_->world()) {
      excluded.insert(static_cast<int>(dev));
    }
  }
  return excluded;
}

int FaultSupervisor::peer_requester() const {
  if (!peer_) return -1;
  for (int r = 0; r < peer_->world(); ++r) {
    if (peer_->rank_alive(r) && condemned_.count(r) == 0) return r;
  }
  return -1;
}

void FaultSupervisor::take_peer_snapshot() {
  if (!peer_) return;
  // Under sdc_defense a peer epoch must be as trustworthy as a blessed disk
  // generation: only witness-certified states enter the stores.
  if (config_.sdc_defense &&
      trainer_->last_clean_witness_step() != trainer_->global_step()) {
    return;
  }
  // Two-phase epoch commit.  Copy-on-snapshot staging is the only
  // critical-path cost; the frame pushes ride the dedicated fabric's clock
  // and surface as peer_background_s at the end of the run.  Under a
  // control plane the blessing commits on the decision log between push and
  // commit, so a leader that dies in between leaves an unblessed epoch the
  // next leader's replayed log knows nothing about (exactly like a torn
  // disk write).
  peer_->stage(trainer_->global_step(), trainer_->checkpoint_bytes());
  if (peer_->replicate_staged(peer_excluded())) {
    decide(DecisionKind::kBlessPeerEpoch, trainer_->global_step());
    peer_->commit_prepared();
    ++stats_.peer_snapshots;
  } else {
    ++stats_.peer_snapshot_aborts;
  }
  stats_.peer_wall_s += config_.peer_stage_s;
  stats_.total_wall_s += config_.peer_stage_s;
}

void FaultSupervisor::arm_sdc(const FaultEvent& event) {
  ++stats_.sdc_events;
  const std::int64_t slot = event.worker % workers_;
  const std::int64_t device = device_of_slot_[static_cast<std::size_t>(slot)];
  // A device is sticky: once corrupt (or condemned) a second event is a
  // no-op rather than a re-seed, mirroring hardware that stays bad.
  if (corrupt_.count(device) != 0 || condemned_.count(device) != 0) return;
  SdcProfile prof;
  prof.mode = event.kind == FaultKind::kSdcBitFlip ? SdcMode::kBitFlip
                                                   : SdcMode::kPerturb;
  prof.seed = event.payload_seed;
  prof.ops_rate = config_.sdc_ops_rate;
  prof.magnitude = config_.sdc_magnitude;
  prof.mantissa_bit = config_.sdc_mantissa_bit;
  CorruptDevice cd;
  cd.corruptor = std::make_unique<SdcCorruptor>(prof);
  cd.since_step = trainer_->global_step();
  corrupt_.emplace(device, std::move(cd));
  ES_LOG_WARN("device " << device << " (slot " << slot
                        << ") turns silently corrupt at step "
                        << trainer_->global_step() << " ("
                        << to_string(event.kind) << ")");
  rearm_hooks();
}

void FaultSupervisor::charge_witness_wall() {
  const std::int64_t replays = trainer_->witness_stats().replays;
  const double wall = static_cast<double>(replays - last_witness_replays_) *
                      config_.est_step_s;
  last_witness_replays_ = replays;
  if (wall > 0.0) {
    stats_.witness_wall_s += wall;
    stats_.total_wall_s += wall;
  }
}

double FaultSupervisor::step_cost() const {
  const std::int64_t ests = trainer_->world_size();
  const std::int64_t per_worker = (ests + workers_ - 1) / workers_;
  return config_.est_step_s * static_cast<double>(per_worker);
}

void FaultSupervisor::save_checkpoint() {
  // Under a control plane the blessing is a decision FIRST; the write then
  // carries the committing leader's fencing epoch (0 without a control
  // plane) so a deposed leader's save is rejected at the store.  Every
  // generation is the trainer's image, parameter digest chain included, but
  // only sdc_defense blesses, and only when the state it captures is
  // witness-certified: the anchor (step 0) or a step the re-execution
  // witness just cleared.  A generation written while an undetected
  // corruption was live stays unblessed and is skipped by the SDC
  // walk-back.
  const auto bless =
      decide(DecisionKind::kBlessCheckpoint, config_.sdc_defense ? 1 : 0);
  const std::int64_t fence = bless.has_value() ? bless->epoch : 0;
  checkpoints_->save(trainer_->checkpoint_bytes(), fence);
  if (config_.sdc_defense &&
      trainer_->last_clean_witness_step() == trainer_->global_step() &&
      checkpoints_->bless_newest(fence)) {
    ++stats_.verified_checkpoints;
  }
  ++stats_.checkpoints_saved;
  stats_.checkpoint_wall_s += config_.checkpoint_time_s;
  stats_.total_wall_s += config_.checkpoint_time_s;
}

bool FaultSupervisor::restore_latest(
    core::Trust trust, std::int64_t before, double cost_before,
    const std::function<void()>& reconfigure) {
  // Recovery lattice: peer quorum first (the newest commonly-available
  // committed epoch, fetched in-fabric), disk walk-back only when no intact
  // quorum exists.  Under sdc_defense peer epochs are staged only at
  // witness-certified steps, so a committed peer epoch is as trustworthy as
  // a blessed disk generation, and newer.
  std::optional<core::LoadedCheckpoint> state;
  if (const int requester = peer_requester(); requester >= 0) {
    const double fetch_before = peer_->stats().fetch_virtual_s;
    auto rec = peer_->recover(requester, peer_excluded());
    const double fetch_s = peer_->stats().fetch_virtual_s - fetch_before;
    stats_.recovery_wall_s += fetch_s;
    stats_.total_wall_s += fetch_s;
    if (rec.has_value()) {
      state.emplace(std::move(rec->snapshot), "peer snapshot");
      ++stats_.peer_recoveries;
    }
  }
  const bool from_peer = state.has_value();
  if (!from_peer) {
    state = checkpoints_->load_latest(trust, control_ ? control_->epoch() : 0);
    if (!state.has_value()) {
      ES_LOG_WARN("no peer quorum and no "
                  << (trust == core::Trust::kBlessed ? "blessed" : "valid")
                  << " checkpoint generation on disk; job lost");
      return false;
    }
    ++stats_.disk_recoveries;
  }
  // Which saved state this recovery restores from (0 = peer quorum,
  // 1 = disk walk-back) is itself a committed decision.
  decide(DecisionKind::kRecoveryPoint, from_peer ? 0 : 1, before);
  reconfigure();
  trainer_->restore_checkpoint(state->image);
  // A disk generation read under kBlessed must restore exactly the
  // parameters its stored chain attests.
  ES_CHECK(from_peer || trust != core::Trust::kBlessed ||
               trainer_->params_digest_chain() == state->image.chain,
           "restored parameters disagree with the blessed digest chain");
  const std::int64_t lost =
      std::max<std::int64_t>(0, before - trainer_->global_step());
  stats_.lost_steps += lost;
  stats_.lost_wall_s += static_cast<double>(lost) * cost_before;
  return true;
}

void FaultSupervisor::charge_backoff(int consecutive_faults,
                                     double extra_wait_s) {
  // Bounded, jittered exponential backoff: the delay doubles per
  // consecutive fault but never beyond backoff_max_s, and the deterministic
  // jitter keeps a fleet of recovering jobs out of phase.
  comm::BackoffPolicy backoff;
  backoff.base_s = config_.backoff_base_s;
  backoff.max_s = std::max(config_.backoff_base_s, config_.backoff_max_s);
  backoff.jitter_seed = config_.backoff_jitter_seed;
  bool capped = false;
  double wait =
      config_.restore_time_s + backoff.delay_s(consecutive_faults, &capped);
  if (capped) ++stats_.capped_backoffs;
  wait += extra_wait_s;
  stats_.recovery_wall_s += wait;
  stats_.total_wall_s += wait;
}

bool FaultSupervisor::recover(bool shrink_one, int consecutive_faults) {
  ++stats_.recoveries;
  const std::int64_t before = trainer_->global_step();
  const double cost_before = step_cost();
  const bool shrinking = config_.policy == RecoveryPolicy::kElasticScaleIn &&
                         shrink_one && workers_ > 1;
  if (shrinking) {
    // Two-phase condemnation on the decision log: the crashed device is
    // proposed, then committed, BEFORE any state mutates — a failover in
    // between replays both entries and lands in the same place.
    decide(DecisionKind::kCondemnPropose, device_of_slot_.back());
    decide(DecisionKind::kCondemnCommit, device_of_slot_.back());
    // The crashed device's DRAM is gone BEFORE any fetch: its replica store
    // must not serve the recovery.  (By convention the highest slot dies —
    // which slot is immaterial to training bits.)
    peer_mark_device_dead(device_of_slot_.back());
  }
  const bool restored =
      restore_latest(core::Trust::kIntact, before, cost_before, [&] {
        if (shrinking) {
          drop_slot(workers_ - 1);
          --workers_;
          ++stats_.scale_ins;
          decide(DecisionKind::kMembershipEpoch, workers_, -1, 2);
        }
        reshape_workers();
      });
  if (!restored) return false;
  // A gang job cannot run below strength: it also waits for a replacement.
  charge_backoff(consecutive_faults,
                 config_.policy == RecoveryPolicy::kGangRestart
                     ? config_.replacement_wait_s
                     : 0.0);
  return true;
}

bool FaultSupervisor::recover_from_sdc(const core::IntegrityError& e,
                                       int consecutive_faults) {
  ++stats_.recoveries;
  ++stats_.sdc_detections;
  const std::int64_t before = trainer_->global_step();
  const double cost_before = step_cost();
  const std::int64_t slot = e.worker();
  const std::int64_t device = device_of_slot_[static_cast<std::size_t>(slot)];
  // Two-phase condemnation + quarantine on the decision log (arg1 = 1
  // flags the SDC origin).  All three entries commit BEFORE any local
  // state mutates, so a mid-recovery failover replays them and the new
  // leader's quarantine view matches exactly.
  decide(DecisionKind::kCondemnPropose, device, 1);
  decide(DecisionKind::kCondemnCommit, device, 1);
  decide(DecisionKind::kQuarantine, device, slot);
  condemned_.insert(device);
  // Nothing the corrupt device holds is trusted again — not even replica
  // frames it stored for OTHER ranks (its DRAM integrity is in question).
  peer_mark_device_dead(device);
  const auto it = corrupt_.find(device);
  if (it != corrupt_.end()) {
    stats_.sdc_detect_latency_steps += before - it->second.since_step;
  }
  ES_LOG_WARN("witness condemned device " << device << " (slot " << slot
                                          << ", est " << e.est()
                                          << ") at step " << before);
  // Quarantine the device.  Preferred route: the external scheduler's
  // bitwise-neutral remap (blocklist + EST redeal).  Fallbacks: elastic
  // jobs shrink around the device; a gang job (or the last worker) swaps
  // in a replacement device.
  bool remapped = false;
  if (quarantine_) remapped = quarantine_(slot);
  if (remapped) {
    drop_slot(slot);
    workers_ = trainer_->num_workers();
    rearm_hooks();
  } else if (config_.policy == RecoveryPolicy::kElasticScaleIn &&
             workers_ > 1) {
    drop_slot(slot);
    --workers_;
    ++stats_.scale_ins;
    reshape_workers();
  } else {
    device_of_slot_[static_cast<std::size_t>(slot)] = next_device_id_++;
    reshape_workers();
    if (config_.policy == RecoveryPolicy::kGangRestart) {
      stats_.recovery_wall_s += config_.replacement_wait_s;
      stats_.total_wall_s += config_.replacement_wait_s;
    }
  }
  decide(DecisionKind::kMembershipEpoch, workers_, device, 3);
  ++stats_.devices_quarantined;
  stats_.recovery_wall_s += config_.sdc_repair_s;
  stats_.total_wall_s += config_.sdc_repair_s;
  // Walk back to a witness-certified state: a committed peer epoch or a
  // BLESSED disk generation.  Merely-valid generations are never enough:
  // one written during the detection window is well-formed but captures
  // poisoned parameters.
  if (!restore_latest(core::Trust::kBlessed, before, cost_before, [] {})) {
    return false;
  }
  charge_backoff(consecutive_faults, 0.0);
  return true;
}

GoodputStats FaultSupervisor::run_to(std::int64_t target_step,
                                     std::int64_t initial_workers) {
  ES_CHECK(initial_workers >= 1, "need at least one worker");
  ES_CHECK(initial_workers <= trainer_->world_size(), "more workers than ESTs");
  // A scale-in packs several ranks onto one worker, which a sharded plan
  // forbids: fail here, not at the first shrink in the middle of recovery.
  ES_CHECK(config_.policy != RecoveryPolicy::kElasticScaleIn ||
               trainer_->shard_degree() == 1,
           "shard_degree " << trainer_->shard_degree()
                           << " cannot run under RecoveryPolicy "
                              "kElasticScaleIn (a scale-in packs ranks)");
  stats_ = GoodputStats{};
  workers_ = initial_workers;
  initial_workers_ = initial_workers;
  // Slot s starts on device s; replacements get fresh ids, condemned ids
  // never return.
  device_of_slot_.clear();
  for (std::int64_t s = 0; s < workers_; ++s) device_of_slot_.push_back(s);
  next_device_id_ = workers_;
  corrupt_.clear();
  condemned_.clear();
  last_witness_replays_ = 0;
  if (config_.sdc_defense) {
    trainer_->set_witness_every(config_.witness_every);
  }
  // Peer pipeline: one service rank per INITIAL device, over a dedicated
  // storage fabric.  A single-worker job has nobody to replicate to.
  peer_.reset();
  peer_fabric_.reset();
  const int peer_replicas = resolve_peer_replicas(config_.peer_replicas);
  if (peer_replicas > 0 && initial_workers >= 2) {
    peer_fabric_ = std::make_unique<comm::SimTransport>(
        static_cast<int>(initial_workers), comm::TransportConfig{});
    PeerCheckpointConfig pcfg;
    pcfg.replicas =
        std::min(peer_replicas, static_cast<int>(initial_workers) - 1);
    pcfg.ranks_per_node = config_.ranks_per_node;
    pcfg.keep_epochs = config_.peer_keep_epochs;
    peer_ = std::make_unique<PeerCheckpointService>(*peer_fabric_, pcfg);
  }
  // Replicated control plane: 2f+1 supervisor replicas over their own
  // fabric.  Every decision below goes through decide() — proposed to the
  // log, applied only once committed on a majority.
  control_.reset();
  if (config_.controller_replicas > 0) {
    ControllerConfig ccfg = config_.controller;
    ccfg.replicas = config_.controller_replicas;
    control_ = std::make_unique<ControlPlane>(ccfg);
  }
  // A trainer already built on this packing keeps its workers and fabric;
  // the hooks are re-armed all the same.
  if (on_default_packing(*trainer_, workers_)) {
    rearm_hooks();
  } else {
    reshape_workers();
  }
  try {
    // The run opens with a committed membership epoch: the initial worker
    // set is itself a decision a failed-over leader must replay.
    decide(DecisionKind::kMembershipEpoch, workers_, -1, 0);
    // Anchor generation: recovery is always possible, even when the very
    // first steps are hit.  Under sdc_defense it is verified (step 0 is the
    // witness chain's trusted root).
    save_checkpoint();
    take_peer_snapshot();
    run_loop(target_step);
  } catch (const ControllerUnavailableError& e) {
    // More than f of the 2f+1 replicas are gone: no quorum, no leader, no
    // decisions.  Honest unavailability — the job halts rather than let a
    // minority leader keep mutating state (split-brain).
    ES_LOG_WARN("control plane lost quorum; halting: " << e.what());
    stats_.controller_unavailable = true;
    stats_.failed = true;
  }
  stats_.steps_completed = trainer_->global_step();
  stats_.witness_replays = trainer_->witness_stats().replays;
  if (peer_) {
    stats_.peer_background_s = peer_->stats().replicate_virtual_s;
  }
  if (control_) {
    stats_.controller_failovers = control_->stats().failovers;
  }
  return stats_;
}

void FaultSupervisor::run_loop(std::int64_t target_step) {
  int consecutive_faults = 0;
  std::int64_t clean_steps = 0;
  while (trainer_->global_step() < target_step) {
    const auto due = injector_.take_due(trainer_->global_step());
    bool fatal = false;        // roll back to the last valid checkpoint
    bool lose_worker = false;  // a physical worker is gone for good
    double slowdown = 1.0;
    for (const auto& event : due) {
      ++stats_.faults_seen;
      switch (event.kind) {
        case FaultKind::kStraggler:
          slowdown = std::max(slowdown, event.slowdown);
          break;
        case FaultKind::kTornCheckpoint:
          // Adversary mangles the newest on-disk generation; noticed only
          // when a later recovery walks the generations.
          FaultInjector::tear_file(checkpoints_->path_for(0),
                                   event.payload_seed);
          break;
        case FaultKind::kGpuRevocation:
          if (config_.policy == RecoveryPolicy::kElasticScaleIn) {
            // Grace period: on-demand checkpoint, then shrink the worker
            // set.  configure_workers carries the live state across, so
            // nothing is lost and no rollback happens.
            save_checkpoint();
            if (workers_ > 1) {
              const std::int64_t slot =
                  static_cast<std::int64_t>(event.worker) % workers_;
              // The shrink is a committed membership decision (arg1 = the
              // revoked device, arg2 = 1 flags a graceful revocation).
              decide(DecisionKind::kMembershipEpoch, workers_ - 1,
                     device_of_slot_[static_cast<std::size_t>(slot)], 1);
              drop_slot(slot);
              --workers_;
              reshape_workers();
              ++stats_.scale_ins;
              stats_.reconfig_wall_s += config_.reconfigure_time_s;
              stats_.total_wall_s += config_.reconfigure_time_s;
            }
            clean_steps = 0;
          } else {
            // A gang job cannot run below strength: abort and restart.
            fatal = true;
            ++consecutive_faults;
          }
          break;
        case FaultKind::kWorkerCrash:
        case FaultKind::kCommDrop:
          // No grace: the in-flight step is lost (a dropped all-reduce
          // participant aborts the step for everyone).
          fatal = true;
          lose_worker = true;
          ++consecutive_faults;
          break;
        case FaultKind::kCommChunkDrop:
        case FaultKind::kCommStalledLink:
          // Transient link faults.  With the resilient substrate the
          // collective absorbs them (abort + bounded backoff + bitwise
          // re-execution); a gang job aborts the step like any sync fault.
          ++stats_.comm_faults;
          if (event.kind == FaultKind::kCommStalledLink) {
            ++stats_.straggler_reports;
          }
          if (config_.policy == RecoveryPolicy::kGangRestart) {
            fatal = true;
            ++consecutive_faults;
          } else if (trainer_->resilient_comm_enabled() && workers_ > 1) {
            comm::CommFaultEvent ce;
            ce.kind = event.kind == FaultKind::kCommChunkDrop
                          ? comm::LinkFaultKind::kDropChunk
                          : comm::LinkFaultKind::kStallLink;
            ce.rank = static_cast<int>(event.worker % workers_);
            ce.stall_s = event.stall_s;
            ce.payload_seed = event.payload_seed;
            trainer_->inject_comm_fault(ce);
          } else {
            // No failure-aware fabric: the sync layer still retransmits,
            // costing one detection window of wall time.
            ++stats_.comm_retries;
            stats_.comm_wall_s += config_.comm_detect_s;
            stats_.total_wall_s += config_.comm_detect_s;
          }
          break;
        case FaultKind::kCommRankDeath:
          // A rank goes silent mid-collective.  The resilient collective
          // condemns it via deadlines + heartbeat silence and aborts the
          // step (RankDeathError below); without the substrate — or for a
          // gang job — it degenerates to a worker crash.
          ++stats_.comm_faults;
          if (config_.policy == RecoveryPolicy::kElasticScaleIn &&
              trainer_->resilient_comm_enabled() && workers_ > 1) {
            comm::CommFaultEvent ce;
            ce.kind = comm::LinkFaultKind::kRankDeath;
            ce.rank = static_cast<int>(event.worker % workers_);
            trainer_->inject_comm_fault(ce);
          } else {
            fatal = true;
            lose_worker = true;
            ++consecutive_faults;
          }
          break;
        case FaultKind::kSdcBitFlip:
        case FaultKind::kSdcPerturb:
          // The device goes silently bad: every kernel output it produces
          // from now on is corrupted (no exception, no crash).  Detection —
          // if anyone is watching — happens at the next witness step.
          arm_sdc(event);
          break;
        case FaultKind::kControllerCrash:
          // A controller replica dies.  Training is untouched; the loss
          // surfaces at the next decision — a dead LEADER costs a lease
          // failover, a dead follower at worst thins the ack quorum.  With
          // the control plane disabled the event is a no-op (the in-process
          // supervisor has no replicas to lose).
          if (control_) {
            control_->crash_replica(static_cast<std::int64_t>(event.worker));
            ++stats_.controller_crashes;
          }
          break;
        case FaultKind::kControllerPartition:
          // The controller fabric partitions: a seeded minority subset
          // (never a majority — quorum math, not luck) is isolated until
          // partition_heal_s of fabric time passes.  Decisions stall or
          // fail over, they never fork.
          if (control_) {
            control_->partition(event.payload_seed);
            ++stats_.controller_partitions;
          }
          break;
        case FaultKind::kPeerReplicaLoss:
          // One frame evaporates from a rank's replica shelf (host OOM,
          // DRAM scrub, eviction).  Training is untouched — the loss shows
          // up only if a later recovery needed that copy.
          if (peer_) {
            const std::int64_t slot =
                static_cast<std::int64_t>(event.worker) % workers_;
            const std::int64_t dev =
                device_of_slot_[static_cast<std::size_t>(slot)];
            if (dev >= 0 && dev < peer_->world() &&
                peer_->drop_random_replica(static_cast<int>(dev),
                                           event.payload_seed)) {
              ++stats_.peer_replicas_lost;
            }
          }
          break;
        default:
          ES_THROW("unknown fault kind");
      }
    }
    if (fatal) {
      if (consecutive_faults > config_.max_retries ||
          !recover(lose_worker, consecutive_faults)) {
        stats_.failed = true;
        break;
      }
      clean_steps = 0;
      continue;  // re-check the schedule before stepping again
    }

    const double cost = step_cost() * slowdown;
    try {
      trainer_->run_steps(1);
    } catch (const comm::RankDeathError& e) {
      // Condemned mid-collective: the in-flight all-reduce was aborted,
      // nothing was published.  Charge the detection window and roll back
      // to the last valid checkpoint on the survivors.
      ES_LOG_WARN("rank " << e.rank() << " condemned mid-collective");
      ++consecutive_faults;
      stats_.recovery_wall_s += config_.comm_detect_s;
      stats_.total_wall_s += config_.comm_detect_s;
      if (consecutive_faults > config_.max_retries ||
          !recover(/*shrink_one=*/true, consecutive_faults)) {
        stats_.failed = true;
        break;
      }
      clean_steps = 0;
      continue;
    } catch (const core::IntegrityError& e) {
      // The re-execution witness caught a silent corruption BEFORE the
      // all-reduce published it.  Charge the replays that ran, condemn +
      // quarantine the device, and walk back to the last verified
      // generation.
      charge_witness_wall();
      ++consecutive_faults;
      if (consecutive_faults > config_.max_retries ||
          !recover_from_sdc(e, consecutive_faults)) {
        stats_.failed = true;
        break;
      }
      clean_steps = 0;
      continue;
    }
    charge_witness_wall();
    if (trainer_->resilient_comm_enabled() &&
        trainer_->last_comm_report().has_value()) {
      const auto& rep = *trainer_->last_comm_report();
      stats_.comm_retries += rep.attempts - 1;
      stats_.capped_backoffs += rep.capped_backoffs;
      stats_.comm_wall_s += rep.virtual_time_s;
      stats_.total_wall_s += rep.virtual_time_s;
    }
    ++stats_.steps_executed;
    stats_.step_wall_s += cost;
    stats_.total_wall_s += cost;
    consecutive_faults = 0;
    if (trainer_->global_step() % config_.checkpoint_every == 0) {
      save_checkpoint();
    }
    if (peer_ &&
        trainer_->global_step() % config_.peer_snapshot_every == 0) {
      take_peer_snapshot();
    }
    // Re-grow toward the designed worker count after a quiet period (the
    // refill behaviour of §5.3); bitwise-neutral like any scale event.
    if (config_.policy == RecoveryPolicy::kElasticScaleIn &&
        config_.regrow_after_clean_steps > 0 && workers_ < initial_workers_ &&
        ++clean_steps >= config_.regrow_after_clean_steps) {
      // Refill with a FRESH device: condemned ids never re-enter the slot
      // map, so a quarantined device stays quarantined forever.  The
      // reshard choice (new extent, new device) commits first.
      decide(DecisionKind::kReshard, workers_ + 1, next_device_id_);
      device_of_slot_.push_back(next_device_id_++);
      ++workers_;
      reshape_workers();
      ++stats_.scale_outs;
      stats_.reconfig_wall_s += config_.reconfigure_time_s;
      stats_.total_wall_s += config_.reconfigure_time_s;
      clean_steps = 0;
    }
  }
}

}  // namespace easyscale::fault
