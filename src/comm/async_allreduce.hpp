// Async collective engine: pipelined bucket all-reduce during backward.
//
// The sequential sync path waits for the whole backward pass, copies every
// gradient out, then reduces bucket after bucket — serializing compute and
// communication that real DDP overlaps (Horovod-style ready-order bucket
// flushing).  This module supplies the overlap without giving up a single
// bit of determinism:
//
//  - AsyncCollectiveEngine owns one dedicated communicator slot (a
//    long-lived thread, the analog of NCCL's comm stream) and a bounded
//    in-flight queue of bucket jobs.  The slot runs jobs while backward is
//    still producing buckets; once the caller reaches drain() it runs the
//    remaining jobs itself instead of sleeping through a thread handoff.
//    Exactly one executor runs at a time, chosen under the engine mutex,
//    and jobs pop strictly in submission order, so the sequence of
//    transport operations — and therefore every fault draw of the
//    simulated fabric — is identical run to run, whichever thread runs
//    each job.
//  - BucketReadyTracker turns per-parameter grad-ready marks from the
//    backward walk into per-bucket completion events, using contribution
//    counts recorded on an earlier sequential step (a parameter is final
//    only after its LAST recorded contribution, which handles shared
//    parameters that accumulate more than once per step).
//  - OverlapCoordinator counts ranks into each bucket and submits the
//    bucket's reduction once the last participant has published it.
//
// Determinism argument (docs/PERFORMANCE.md): each bucket's chunking,
// reduction association and FP order depend only on the checkpointed
// BucketLayout and the participant count — never on WHEN the job runs.
// Submission order is deterministic because every rank publishes buckets in
// the same per-rank order (same graph), so the global "all ranks done with
// bucket b" events are totally ordered like the per-rank order.  The
// overlapped path therefore produces bitwise-identical results to the
// sequential one; tests/overlap_equivalence_test.cpp witnesses this across
// thread counts, bucket caps, D1 restarts and injected comm faults.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "autograd/parameter.hpp"
#include "comm/bucket.hpp"

namespace easyscale::comm {

struct AsyncConfig {
  /// Bucket jobs allowed in the engine (queued + executing) before
  /// submit() applies backpressure.  Bounds the flushed-but-unreduced
  /// working set exactly like DDP's bounded comm stream depth.
  int max_in_flight = 4;
};

/// Per-step overlap accounting.  `compute_s` is the wall-clock backward
/// window (begin_step -> drain entry); per-job comm cost is the fabric's
/// virtual seconds when the job reports them, else the job's wall busy
/// time (the plain path, where the reduction work itself stands in for
/// transfer time), measured on whichever thread ran the job.  The modeled
/// step times answer "what would this step cost if the communicator slot
/// had its own execution resource":
///   modeled_seq_s     = compute_s + sum(comm)        (flush-at-the-end)
///   modeled_overlap_s = pipelined: job j starts at max(ready_j, end_{j-1})
/// ready_j (the submit offset) is clamped to compute_s, so with >= 2
/// buckets the pipelined model is STRICTLY below the sequential one — a
/// deterministic inequality, independent of scheduler jitter.
struct OverlapStats {
  std::int64_t buckets = 0;
  double compute_s = 0.0;
  double comm_busy_s = 0.0;     // wall time spent in jobs, either thread
  double comm_virtual_s = 0.0;  // fabric virtual seconds jobs reported
  /// Wall time the caller spent in drain(): waiting for the slot's job in
  /// flight plus running the jobs still queued at drain entry.
  double drain_wait_s = 0.0;
  double modeled_seq_s = 0.0;
  double modeled_overlap_s = 0.0;
  /// Share of comm hidden under backward in the pipelined model:
  /// (sum(comm) - max(0, last_comm_end - compute_s)) / sum(comm).
  double overlap_frac = 0.0;
};

/// A bounded in-flight queue of bucket all-reduce jobs, executed by one
/// dedicated communicator slot during backward and by the draining caller
/// after it.  One executor at a time pops the queue front under the mutex,
/// so jobs run strictly FIFO and never concurrently, and the mutex handoff
/// orders each job's writes before the next job's reads.  The engine only
/// sequences and times jobs; all reduction math lives in the job callback
/// so the plain, voting and resilient flavors share one pipeline.
class AsyncCollectiveEngine {
 public:
  /// Performs the reduction for `bucket`; returns the job's comm cost in
  /// virtual fabric seconds (0 when the path has no simulated fabric).
  /// Exceptions abort the step: queued jobs are discarded and drain()
  /// rethrows the first one.
  using BucketJob = std::function<double(std::size_t bucket)>;

  explicit AsyncCollectiveEngine(AsyncConfig cfg = {});
  ~AsyncCollectiveEngine();

  AsyncCollectiveEngine(const AsyncCollectiveEngine&) = delete;
  AsyncCollectiveEngine& operator=(const AsyncCollectiveEngine&) = delete;

  /// Open a step: subsequent submit() calls enqueue `job` invocations.
  /// Must be balanced by drain() before the next begin_step().
  void begin_step(BucketJob job);

  /// Enqueue `bucket` (thread-safe, FIFO).  Blocks while max_in_flight
  /// jobs are pending; returns immediately once a job has failed (the
  /// submission is discarded — drain() rethrows the failure).
  void submit(std::size_t bucket);

  /// Wait for the slot's job in flight, if any, then run every job still
  /// queued on the calling thread; rethrow the first job exception and
  /// return the step's overlap accounting.  Leaves the engine ready for
  /// the next begin_step().
  OverlapStats drain();

 private:
  struct Pending {
    std::size_t bucket = 0;
    double submit_offset_s = 0.0;  // relative to begin_step
  };

  void comm_loop();
  /// Pop the queue front and run it on the calling thread.  `lock` holds
  /// mutex_ on entry and exit and is released while the job runs; the
  /// caller guarantees a non-empty queue and no executor.
  void run_front(std::unique_lock<std::mutex>& lock);

  AsyncConfig cfg_;
  BucketJob job_;

  std::mutex mutex_;
  std::condition_variable cv_slot_;    // slot: submit + shutdown only
  std::condition_variable cv_submit_;  // backpressure
  std::condition_variable cv_idle_;    // drain: the slot's job finished
  std::deque<Pending> queue_;
  bool executing_ = false;  // some thread is inside a job
  bool draining_ = false;   // the caller owns the queue until drain returns
  bool stopping_ = false;
  bool step_open_ = false;
  std::exception_ptr error_;

  // Per-step accounting, written by the executor under mutex_.
  std::vector<double> ready_s_;  // submit offsets, execution order
  std::vector<double> cost_s_;   // per-job comm basis, execution order
  double comm_busy_s_ = 0.0;
  double comm_virtual_s_ = 0.0;
  std::chrono::steady_clock::time_point step_start_;

  std::thread slot_;  // the dedicated communicator slot
};

/// Per-rank bridge from the backward walk to bucket completion: counts
/// grad-ready marks against the contribution counts recorded on a
/// sequential step and fires `on_bucket_done(bucket)` exactly once per
/// bucket, on the mark that completes it.  finish() flushes what is left
/// (zero-contribution parameters and any count drift) in layout order —
/// correctness never depends on the counts being tight, only overlap does.
class BucketReadyTracker final : public autograd::GradReadySink {
 public:
  using BucketDoneFn = std::function<void(std::size_t bucket)>;

  BucketReadyTracker(const BucketLayout& layout,
                     const std::vector<int>& contrib_counts,
                     BucketDoneFn on_bucket_done);

  void grad_ready(int param_id) override;

  /// Fire every bucket not yet completed, in layout order.  Call exactly
  /// once, after the rank's backward returns.
  void finish();

 private:
  std::vector<int> bucket_of_;            // param -> bucket (-1: unbucketed)
  std::vector<std::int64_t> remaining_;   // contributions left per bucket
  std::vector<std::uint8_t> fired_;
  BucketDoneFn done_;
};

/// Counts participants into each bucket; the LAST publisher submits the
/// bucket to the engine.  publish() uses acquire-release ordering on the
/// per-bucket counter, so whichever thread runs the job observes every
/// rank's bucket data once it is queued.
class OverlapCoordinator {
 public:
  OverlapCoordinator(std::size_t num_buckets, int num_parts,
                     AsyncCollectiveEngine& engine);

  /// Rank-side: bucket `b`'s gradients for one participant are final and
  /// copied out.  Thread-safe; the call that brings the count to zero
  /// submits the bucket job.
  void publish(std::size_t bucket);

 private:
  std::vector<std::atomic<int>> remaining_;
  AsyncCollectiveEngine* engine_;
};

}  // namespace easyscale::comm
