// Distributed sampler, faithful to torch.utils.data.DistributedSampler:
// one global per-epoch permutation shared by all virtual ranks, padded to a
// multiple of the world size, sharded by stride.  Because the shard of
// virtual rank r is a pure function of (seed, epoch, world, r), EasyScale's
// ESTs sample exactly what the corresponding DDP workers would — whatever
// physical GPU they happen to run on.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "rng/philox.hpp"

namespace easyscale::data {

/// The global permutation of each epoch, a pure function of (dataset size,
/// seed, epoch).  Every rank's shard is a stride of the same permutation,
/// so the samplers of one world share one EpochOrder and the permutation is
/// drawn once per epoch, not once per rank.  It keeps the latest epoch's
/// permutation; get() is thread-safe, since ranks on parallel workers reach
/// an epoch boundary together.
class EpochOrder {
 public:
  EpochOrder(std::int64_t dataset_size, std::uint64_t seed, bool shuffle);

  /// The permutation of `epoch`, drawn on the first request for it.
  [[nodiscard]] std::shared_ptr<const std::vector<std::int64_t>> get(
      std::int64_t epoch);

  [[nodiscard]] std::int64_t dataset_size() const { return dataset_size_; }

 private:
  std::int64_t dataset_size_;
  std::uint64_t seed_;
  bool shuffle_;
  std::mutex mutex_;
  std::int64_t epoch_ = -1;
  std::shared_ptr<const std::vector<std::int64_t>> order_;
};

class DistributedSampler {
 public:
  DistributedSampler(std::int64_t dataset_size, std::int64_t world_size,
                     std::int64_t rank, std::int64_t batch_size,
                     std::uint64_t seed, bool shuffle = true);
  /// A sampler whose epoch permutations come from `order`, shared with the
  /// other ranks' samplers of the same dataset and seed.
  DistributedSampler(std::shared_ptr<EpochOrder> order,
                     std::int64_t world_size, std::int64_t rank,
                     std::int64_t batch_size);

  /// Switch to `epoch`'s permutation (the same for every rank).
  void set_epoch(std::int64_t epoch);

  [[nodiscard]] std::int64_t steps_per_epoch() const;

  /// Sample indices of this rank's `step`-th mini-batch of the current
  /// epoch.
  [[nodiscard]] std::vector<std::int64_t> batch_indices(std::int64_t step) const;

  [[nodiscard]] std::int64_t epoch() const { return epoch_; }
  [[nodiscard]] std::int64_t batch_size() const { return batch_size_; }
  [[nodiscard]] std::int64_t world_size() const { return world_size_; }

 private:
  std::shared_ptr<EpochOrder> source_;
  std::int64_t world_size_;
  std::int64_t rank_;
  std::int64_t batch_size_;
  std::int64_t epoch_ = 0;
  /// The epoch's permutation; this rank's shard is its elements rank,
  /// rank + world, ... wrapped past the end (padding, torch semantics).
  std::shared_ptr<const std::vector<std::int64_t>> order_;
};

}  // namespace easyscale::data
