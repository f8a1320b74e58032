// Recovery orchestrator (§2.1 / §5.3): drives any parallel::Trainer (an
// EasyScale engine, a plain DDP job or a ZeRO-1 job) through a fault
// schedule and keeps the training bitwise on-track.
//
// The supervisor owns the checkpoint cadence (periodic saves plus an
// on-demand save inside every revocation grace period), catches injected
// failures, restores the newest intact state (peer quorum, else the newest
// valid CheckpointManager generation), remaps the ESTs onto the surviving
// workers via configure_workers(), and retries with bounded exponential
// backoff.  Because everything that
// affects training state round-trips through the D1 checkpoint, a run that
// crashes and recovers any number of times ends with the SAME params
// digest as an undisturbed run — the keystone property of the fault tests.
//
// Two recovery policies are modelled:
//  - kElasticScaleIn (EasyScale): revocations scale the job in within the
//    grace period (zero lost steps); crashes roll back to the latest valid
//    checkpoint and continue on the survivors; freed capacity is re-grown
//    after a quiet period.  Jobs never fail.
//  - kGangRestart (the §2.1 baseline): the job can only run at its full
//    worker set, so EVERY fault — including a graceful revocation — aborts
//    the step, waits for a replacement worker, and replays from the last
//    checkpoint.  Too many faults without progress fail the job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "comm/transport.hpp"
#include "core/checkpoint_manager.hpp"
#include "core/integrity.hpp"
#include "fault/controller.hpp"
#include "fault/injector.hpp"
#include "fault/integrity.hpp"
#include "fault/peer_checkpoint.hpp"
#include "parallel/trainer.hpp"

namespace easyscale::fault {

enum class RecoveryPolicy {
  kElasticScaleIn,  // EasyScale: checkpoint + remap ESTs onto survivors
  kGangRestart,     // gang scheduling: all-or-nothing restart
};

struct SupervisorConfig {
  RecoveryPolicy policy = RecoveryPolicy::kElasticScaleIn;
  /// Periodic checkpoint interval in global steps.
  std::int64_t checkpoint_every = 4;
  /// Consecutive fatal faults without a completed step before giving up.
  int max_retries = 8;
  /// Elastic only: clean steps below the initial worker count before one
  /// worker is re-added (models the ~minutes-scale refill of §5.3).
  /// 0 disables re-growth.
  std::int64_t regrow_after_clean_steps = 8;

  // Simulated wall-clock model (seconds) for the goodput accounting.
  double est_step_s = 0.25;         // one EST local step
  double checkpoint_time_s = 0.5;   // one on-demand checkpoint save
  double reconfigure_time_s = 1.0;  // scale in/out (checkpoint + remap)
  double restore_time_s = 2.0;      // load checkpoint + rebuild workers
  double backoff_base_s = 1.0;      // doubles per consecutive fault ...
  double backoff_max_s = 30.0;      // ... but never beyond this cap
  std::uint64_t backoff_jitter_seed = 0xB0FF;  // decorrelates retry fleets
  double replacement_wait_s = 60.0;  // gang: reacquire a full worker set
  /// Wall cost of condemning a silent rank mid-collective (receive
  /// deadline + heartbeat silence before the membership decision).
  double comm_detect_s = 1.0;

  // --- Silent-data-corruption defense ---
  /// Arm the full defense stack: the trainer's re-execution witness,
  /// blessing of witness-certified checkpoints, and — on detection —
  /// device condemnation, quarantine, and a walk-back to the last BLESSED
  /// checkpoint.  SDC fault events corrupt kernels regardless of this flag
  /// (the undefended baseline suffers them silently); the flag only
  /// controls whether anybody is watching.
  bool sdc_defense = false;
  /// Witness cadence forwarded to the trainer when sdc_defense is on.  The
  /// checkpoint interval must be a multiple of this so periodic saves land
  /// on witness-certified steps.
  std::int64_t witness_every = 1;
  /// Corruption profile applied when an SDC event fires (the event supplies
  /// mode and pattern seed).  ops_rate 1.0 hits every kernel output on the
  /// sticky device, making witness detection certain at the next cadence
  /// point; lower it only for detection-latency experiments.
  double sdc_ops_rate = 1.0;
  double sdc_magnitude = 1e-3;
  int sdc_mantissa_bit = 12;
  /// Wall cost of condemning + quarantining a corrupt device (blocklist
  /// update, EST remap).
  double sdc_repair_s = 5.0;

  // --- Peer-replicated checkpointing (fault/peer_checkpoint.hpp) ---
  /// Peer copies per snapshot frame; 0 disables the peer pipeline (the
  /// historical disk-only behaviour).  When 0, EASYSCALE_PEER_REPLICAS
  /// supplies the default (strict parse, range [0, 15] — see
  /// resolve_peer_replicas below).
  int peer_replicas = 0;
  /// Steps between peer snapshots.  Every step by default: only the
  /// copy-on-snapshot staging sits on the critical path; replication is
  /// overlapped with the next step's compute.
  std::int64_t peer_snapshot_every = 1;
  /// Placement input: ranks sharing `device / ranks_per_node` are one node
  /// and never replicate to each other.
  int ranks_per_node = 1;
  /// Committed peer epochs retained in the replica stores.
  std::int64_t peer_keep_epochs = 2;
  /// Wall cost of the copy-on-snapshot staging (the ONLY per-step critical-
  /// path cost of the peer pipeline; pushes ride the fabric clock in the
  /// background).
  double peer_stage_s = 0.05;

  // --- Replicated control plane (fault/controller.hpp) ---
  /// 2f+1 controller replicas; 0 keeps the historical in-process supervisor
  /// (no replication, no decision log — behaviour bitwise unchanged).  When
  /// positive it must be odd and >= 3; the supervisor then PROPOSES every
  /// control decision to the replicated log and APPLIES only committed
  /// entries, so a leader crash fails over to a follower that replays the
  /// same committed stream and training continues bitwise unchanged.
  int controller_replicas = 0;
  /// Lease/fabric/heal parameters of the control plane (`replicas` inside
  /// is overridden by controller_replicas above).
  ControllerConfig controller;
};

/// Resolve the effective peer replica count: a positive config value wins;
/// a zero config value defers to EASYSCALE_PEER_REPLICAS (strict parsing —
/// malformed or out-of-[0, 15] values throw an Error naming the variable);
/// unset means 0 (disabled).  A negative config value is an error.
[[nodiscard]] int resolve_peer_replicas(int config_replicas);

/// Goodput accounting over one supervised run (the §2.1 comparison data).
struct GoodputStats {
  std::int64_t steps_completed = 0;  // trainer's final global step
  std::int64_t steps_executed = 0;   // including replayed steps
  std::int64_t lost_steps = 0;       // rolled back by recoveries
  std::int64_t recoveries = 0;
  std::int64_t scale_ins = 0;
  std::int64_t scale_outs = 0;
  std::int64_t checkpoints_saved = 0;
  std::int64_t faults_seen = 0;
  std::int64_t comm_faults = 0;       // comm-level events (drop/stall/death)
  std::int64_t comm_retries = 0;      // collective re-executions
  std::int64_t capped_backoffs = 0;   // backoff waits clipped at the cap
  std::int64_t straggler_reports = 0;  // stalled-link events observed
  std::int64_t sdc_events = 0;         // devices turned sticky-corrupt
  std::int64_t sdc_detections = 0;     // witness mismatches caught
  std::int64_t devices_quarantined = 0;
  std::int64_t sdc_detect_latency_steps = 0;  // summed over detections
  std::int64_t witness_replays = 0;    // EST re-executions by the witness
  std::int64_t verified_checkpoints = 0;
  std::int64_t peer_snapshots = 0;        // peer epochs committed (blessed)
  std::int64_t peer_snapshot_aborts = 0;  // epochs drained mid-replication
  std::int64_t peer_recoveries = 0;       // recoveries served from peer quorum
  std::int64_t disk_recoveries = 0;       // fell back to the disk walk-back
  std::int64_t peer_replicas_lost = 0;    // injected replica-loss events
  std::int64_t controller_decisions = 0;   // committed decision-log entries
  std::int64_t controller_failovers = 0;   // leadership changed hands
  std::int64_t controller_crashes = 0;     // injected replica crashes
  std::int64_t controller_partitions = 0;  // injected fabric partitions
  bool controller_unavailable = false;  // > f replicas lost: no quorum
  bool failed = false;  // kGangRestart, torn disks, or a lost control plane

  double total_wall_s = 0.0;
  double step_wall_s = 0.0;        // time inside surviving steps
  double checkpoint_wall_s = 0.0;  // checkpoint-save overhead
  double recovery_wall_s = 0.0;    // restore + backoff + replacement waits
  double reconfig_wall_s = 0.0;    // graceful scale in/out
  double lost_wall_s = 0.0;        // step time that was rolled back
  double comm_wall_s = 0.0;        // fabric time: transfers, retries, waits
  double controller_wall_s = 0.0;  // control-plane commits + failovers
  double witness_wall_s = 0.0;     // verification overhead (replay cost)
  double peer_wall_s = 0.0;        // copy-on-snapshot staging (critical path)
  double peer_background_s = 0.0;  // replication fabric time, overlapped —
                                   // NOT part of total_wall_s by design

  /// Fraction of wall time spent on surviving training steps.
  [[nodiscard]] double goodput_fraction() const {
    return total_wall_s > 0.0 ? step_wall_s / total_wall_s : 1.0;
  }
  [[nodiscard]] double steps_per_second() const {
    return total_wall_s > 0.0
               ? static_cast<double>(steps_completed) / total_wall_s
               : 0.0;
  }
};

/// Scheduler hand-off for device quarantine.  The supervisor cannot link
/// against sched/ (es_cluster layers above es_train), so the scheduler
/// registers a callback: given the condemned worker slot, vacate it and
/// remap its ESTs (sched::IntraJobScheduler::quarantine_worker).  Return
/// true when the trainer was reconfigured; false falls back to the
/// supervisor's direct shrink/replace path.
using QuarantineFn = std::function<bool(std::int64_t worker_slot)>;

class FaultSupervisor {
 public:
  /// Neither the trainer nor the checkpoint manager is owned.
  FaultSupervisor(parallel::Trainer& trainer,
                  core::CheckpointManager& checkpoints, FaultInjector injector,
                  SupervisorConfig config);

  /// Route quarantine through an external scheduler (see QuarantineFn).
  void set_quarantine(QuarantineFn fn) { quarantine_ = std::move(fn); }

  /// Configure `initial_workers`, then drive the trainer to `target_step`
  /// global steps under the fault schedule.  Returns the goodput stats;
  /// `stats().failed` is true when recovery was exhausted (gang restart
  /// only, or when every checkpoint generation on disk is torn).
  GoodputStats run_to(std::int64_t target_step, std::int64_t initial_workers);

  [[nodiscard]] const GoodputStats& stats() const { return stats_; }
  [[nodiscard]] const FaultInjector& injector() const { return injector_; }
  [[nodiscard]] std::int64_t current_workers() const { return workers_; }

  /// Devices condemned by the integrity witness so far (never re-admitted).
  [[nodiscard]] const std::set<std::int64_t>& condemned_devices() const {
    return condemned_;
  }

  /// The peer checkpoint service of the current run (nullptr when the peer
  /// pipeline is disabled or run_to has not started).  Test introspection.
  [[nodiscard]] const PeerCheckpointService* peer_service() const {
    return peer_.get();
  }

  /// The replicated control plane of the current run (nullptr when
  /// controller_replicas == 0 or run_to has not started).  Tests compare
  /// its committed log's content_tail() across failover histories.
  [[nodiscard]] const ControlPlane* control_plane() const {
    return control_.get();
  }

 private:
  /// A sticky corrupt device: its deterministic corruptor plus the step at
  /// which corruption began (for detection-latency accounting).
  struct CorruptDevice {
    std::unique_ptr<SdcCorruptor> corruptor;
    std::int64_t since_step = 0;
  };

  /// Simulated wall-seconds of one global step at the current worker count
  /// (ESTs on one worker run serially, §3.2).
  [[nodiscard]] double step_cost() const;
  /// Propose one decision to the replicated log and wait for its commit;
  /// charges the control plane's virtual time to the wall model and raises
  /// the checkpoint fence to the committing leader's epoch.  nullopt when
  /// the control plane is disabled (the historical in-process path).
  /// Propagates ControllerUnavailableError when quorum is lost for good.
  std::optional<DecisionRecord> decide(DecisionKind kind,
                                       std::int64_t arg0 = 0,
                                       std::int64_t arg1 = 0,
                                       std::int64_t arg2 = 0);
  /// The supervision loop proper (run_to's body after setup); split out so
  /// run_to can catch ControllerUnavailableError around the whole run.
  void run_loop(std::int64_t target_step);
  void save_checkpoint();
  /// The recovery lattice shared by crash and SDC recovery: the newest
  /// committed peer epoch with an intact quorum, else the newest disk
  /// generation meeting `trust` (read under the control plane's fence).
  /// Once a state is found it commits the recovery point, runs
  /// `reconfigure` (the caller's membership change), restores the trainer —
  /// checking a blessed generation against its stored digest chain — and
  /// charges the steps rolled back since `before`.  Returns false (job lost)
  /// when nothing survives.
  bool restore_latest(core::Trust trust, std::int64_t before,
                      double cost_before,
                      const std::function<void()>& reconfigure);
  /// Charge the restore time plus the bounded, jittered exponential backoff
  /// for `consecutive_faults`, plus `extra_wait_s`, to the wall model.
  void charge_backoff(int consecutive_faults, double extra_wait_s);
  /// Roll back to the newest intact state; optionally drop one worker
  /// (elastic crash path).  Returns false when recovery is impossible.
  bool recover(bool shrink_one, int consecutive_faults);
  /// SDC respond path: condemn the detected device, quarantine it, and
  /// walk back to the newest BLESSED state.  Returns false when none
  /// survives.
  bool recover_from_sdc(const core::IntegrityError& e,
                        int consecutive_faults);
  /// Turn the device currently in `slot` sticky-corrupt per the event.
  void arm_sdc(const FaultEvent& event);
  /// Re-install post-op hooks after any configure_workers (worker rebuild
  /// clears every ExecContext hook).
  void rearm_hooks();
  /// Apply the current worker count as fresh default specs + rearm.
  void reshape_workers();
  /// Remove `slot`'s device from the slot map (shrink bookkeeping).
  void drop_slot(std::int64_t slot);
  /// Fold the trainer's witness-replay delta into the wall-clock model.
  void charge_witness_wall();
  /// Stage + replicate + commit one peer epoch at the current step.
  void take_peer_snapshot();
  /// Service ranks excluded from placement and recovery (condemned devices
  /// that fall inside the peer fabric's world).
  [[nodiscard]] std::set<int> peer_excluded() const;
  /// Lowest usable service rank to reassemble a recovery at; -1 when none.
  [[nodiscard]] int peer_requester() const;
  /// A device (and its replica store) left the job for good.
  void peer_mark_device_dead(std::int64_t device);

  parallel::Trainer* trainer_;
  core::CheckpointManager* checkpoints_;
  FaultInjector injector_;
  SupervisorConfig config_;
  GoodputStats stats_;
  QuarantineFn quarantine_;
  std::int64_t workers_ = 0;
  std::int64_t initial_workers_ = 0;
  /// Physical device identity per worker slot.  Slots are positions in the
  /// trainer's worker vector; devices are stable ids that survive remaps so
  /// stickiness and condemnation attach to hardware, not positions.
  std::vector<std::int64_t> device_of_slot_;
  std::int64_t next_device_id_ = 0;
  std::map<std::int64_t, CorruptDevice> corrupt_;
  std::set<std::int64_t> condemned_;
  std::int64_t last_witness_replays_ = 0;
  /// Peer pipeline of the current run: a dedicated storage fabric (the
  /// checkpoint traffic must not consume the training fabric's schedule)
  /// plus the replication service.  Service rank r == initial device r;
  /// replacement devices live outside the peer world and hold no replicas.
  std::unique_ptr<comm::SimTransport> peer_fabric_;
  std::unique_ptr<PeerCheckpointService> peer_;
  /// Replicated control plane of the current run (controller_replicas > 0).
  std::unique_ptr<ControlPlane> control_;
};

}  // namespace easyscale::fault
