// Shared data-worker pool with a checkpointable queuing buffer (Fig 7).
//
// The producer (training engine) enqueues WorkItems: the sample indices of
// one EST mini-batch plus a snapshot of that EST's data-RNG streams.  A
// small pool of worker threads preprocesses items in whatever order they
// are free ("data workers take turns"); because the RNG snapshot travels
// with the item, *which* worker processes a batch never affects its bits.
// Training consumes batches by (est, step) key, blocking until ready.
//
// The set of enqueued-but-unconsumed items IS the queuing buffer the paper
// checkpoints as extra state: pending_items() returns it for the on-demand
// checkpoint, and re-enqueueing the saved items on resume regenerates the
// exact same batches.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "data/augment.hpp"
#include "data/dataset.hpp"
#include "data/sample.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::data {

struct WorkItem {
  std::int64_t est_rank = 0;
  std::int64_t step = 0;  // global mini-batch index within the job
  std::vector<std::int64_t> indices;
  rng::StreamSetState rng_state;  // augmentation streams at batch start

  void save(ByteWriter& w) const {
    w.write(est_rank);
    w.write(step);
    w.write_vector(indices);
    rng_state.save(w);
  }
  static WorkItem load(ByteReader& r) {
    WorkItem it;
    it.est_rank = r.read<std::int64_t>();
    it.step = r.read<std::int64_t>();
    it.indices = r.read_vector<std::int64_t>();
    it.rng_state = rng::StreamSetState::load(r);
    return it;
  }
};

/// Builds the batch of one WorkItem: each index's sample, augmented from
/// the item's RNG snapshot, is written straight into its batch row.  It
/// keeps one sample (and the augmentation's spare buffer) across samples
/// and calls, so steady-state batches reuse its buffers and hold no more
/// than one sample besides the batch.  Not thread-safe: one per thread
/// that builds.
class BatchAssembler {
 public:
  /// Sleeps `per_sample_us` after each sample (simulated preprocessing).
  [[nodiscard]] Batch assemble(const Dataset& dataset,
                               const AugmentConfig& augment,
                               const WorkItem& item,
                               double per_sample_us = 0.0);

 private:
  Sample sample_;
  tensor::Tensor spare_;
};

struct LoaderConfig {
  std::int64_t num_workers = 2;
  AugmentConfig augment;
  /// Simulated per-worker launch cost (process fork + dataset open); the
  /// data-worker-sharing experiment (§5.1.2) measures first-batch latency
  /// against the worker count this multiplies.
  double worker_launch_ms = 0.0;
  /// Simulated per-sample preprocessing cost.
  double per_sample_us = 0.0;
};

class SharedDataWorkerPool {
 public:
  SharedDataWorkerPool(const Dataset& dataset, LoaderConfig config);
  ~SharedDataWorkerPool();

  SharedDataWorkerPool(const SharedDataWorkerPool&) = delete;
  SharedDataWorkerPool& operator=(const SharedDataWorkerPool&) = delete;

  /// Producer side: add one mini-batch of work.
  void enqueue(WorkItem item);

  /// Consumer side: blocking ordered retrieval of (est_rank, step).
  [[nodiscard]] Batch get(std::int64_t est_rank, std::int64_t step);

  /// The queuing buffer: every item enqueued but not yet consumed via
  /// get(), in enqueue order.  Used by on-demand checkpoints.
  [[nodiscard]] std::vector<WorkItem> pending_items() const;

  /// Block until no work is queued or in flight.
  void drain();

  [[nodiscard]] std::int64_t num_workers() const {
    return static_cast<std::int64_t>(threads_.size());
  }

 private:
  struct Key {
    std::int64_t est;
    std::int64_t step;
    auto operator<=>(const Key&) const = default;
  };

  void worker_loop(BatchAssembler& assembler);

  const Dataset* dataset_;
  LoaderConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_ready_;
  std::deque<WorkItem> queue_;
  std::map<Key, Batch> ready_;
  std::map<Key, WorkItem> unconsumed_;  // enqueued, not yet get()-ed
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<BatchAssembler> assemblers_;  // one per worker thread
  std::vector<std::thread> threads_;
};

}  // namespace easyscale::data
