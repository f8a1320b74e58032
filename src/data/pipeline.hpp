// Per-virtual-rank data pipeline state.
//
// Both trainers use one RankDataPipeline per virtual rank: DDP calls next()
// directly; EasyScale's producer calls make_item() to snapshot the state
// into a WorkItem for the shared data-worker pool and advances the streams
// past the batch.  Either path yields bitwise-identical batches, which is
// the property that lets EasyScale share data workers without changing
// training (§3.2).
#pragma once

#include "data/augment.hpp"
#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "data/sampler.hpp"

namespace easyscale::data {

class RankDataPipeline {
 public:
  /// `order` shares the epoch permutations with the other ranks'
  /// pipelines of one world (see EpochOrder); null draws them alone.
  RankDataPipeline(const Dataset& dataset, AugmentConfig augment,
                   std::int64_t world_size, std::int64_t rank,
                   std::int64_t batch_size, std::uint64_t seed,
                   std::shared_ptr<EpochOrder> order = nullptr);

  /// Build the next batch synchronously.
  [[nodiscard]] Batch next();

  /// Snapshot the next batch as a WorkItem (for the shared pool) and
  /// advance state past it.
  [[nodiscard]] WorkItem make_item();

  /// Global mini-batch counter (how many batches have been produced).
  [[nodiscard]] std::int64_t cursor() const { return cursor_; }
  [[nodiscard]] std::int64_t rank() const { return rank_; }
  [[nodiscard]] const AugmentConfig& augment() const { return augment_; }

  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  void advance_epoch_if_needed();

  const Dataset* dataset_;
  AugmentConfig augment_;
  DistributedSampler sampler_;
  rng::StreamSet streams_;  // data-side RNG (augmentation)
  std::int64_t rank_;
  std::int64_t cursor_ = 0;        // batches produced so far
  std::int64_t step_in_epoch_ = 0;
  BatchAssembler assembler_;  // next()'s reused sample buffers
};

}  // namespace easyscale::data
