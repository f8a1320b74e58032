#include "data/pipeline.hpp"

namespace easyscale::data {

namespace {
// Data streams must be independent of the model streams that share the
// (seed, rank) pair, so the pipeline perturbs the seed.
constexpr std::uint64_t kDataSeedSalt = 0xD474D474ull;
}  // namespace

RankDataPipeline::RankDataPipeline(const Dataset& dataset,
                                   AugmentConfig augment,
                                   std::int64_t world_size, std::int64_t rank,
                                   std::int64_t batch_size, std::uint64_t seed,
                                   std::shared_ptr<EpochOrder> order)
    : dataset_(&dataset),
      augment_(augment),
      sampler_(order != nullptr
                   ? std::move(order)
                   : std::make_shared<EpochOrder>(dataset.size(), seed,
                                                  /*shuffle=*/true),
               world_size, rank, batch_size),
      rank_(rank) {
  streams_.seed_all(seed ^ kDataSeedSalt, static_cast<std::uint64_t>(rank));
}

void RankDataPipeline::advance_epoch_if_needed() {
  if (step_in_epoch_ >= sampler_.steps_per_epoch()) {
    sampler_.set_epoch(sampler_.epoch() + 1);
    step_in_epoch_ = 0;
  }
}

WorkItem RankDataPipeline::make_item() {
  advance_epoch_if_needed();
  WorkItem item;
  item.est_rank = rank_;
  item.step = cursor_;
  item.indices = sampler_.batch_indices(step_in_epoch_);
  item.rng_state = streams_.state();
  advance_augment_streams(augment_, streams_,
                          static_cast<std::int64_t>(item.indices.size()));
  ++cursor_;
  ++step_in_epoch_;
  return item;
}

Batch RankDataPipeline::next() {
  return assembler_.assemble(*dataset_, augment_, make_item());
}

void RankDataPipeline::save(ByteWriter& w) const {
  streams_.state().save(w);
  w.write(cursor_);
  w.write(step_in_epoch_);
  w.write(sampler_.epoch());
}

void RankDataPipeline::load(ByteReader& r) {
  auto st = rng::StreamSetState::load(r);
  streams_.set_state(st);
  cursor_ = r.read<std::int64_t>();
  step_in_epoch_ = r.read<std::int64_t>();
  sampler_.set_epoch(r.read<std::int64_t>());
}

}  // namespace easyscale::data
