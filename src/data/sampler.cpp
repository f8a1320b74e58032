#include "data/sampler.hpp"

#include <numeric>

#include "common/error.hpp"
#include "rng/sampling.hpp"
#include "rng/stream_set.hpp"

namespace easyscale::data {

EpochOrder::EpochOrder(std::int64_t dataset_size, std::uint64_t seed,
                       bool shuffle)
    : dataset_size_(dataset_size), seed_(seed), shuffle_(shuffle) {
  ES_CHECK(dataset_size > 0, "bad sampler sizes");
}

std::shared_ptr<const std::vector<std::int64_t>> EpochOrder::get(
    std::int64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (epoch != epoch_) {
    std::vector<std::int64_t> order;
    if (shuffle_) {
      rng::Philox gen(rng::derive_stream_key(
          seed_, static_cast<std::uint64_t>(epoch), 31));
      order = rng::permutation(gen, static_cast<std::size_t>(dataset_size_));
    } else {
      order.resize(static_cast<std::size_t>(dataset_size_));
      std::iota(order.begin(), order.end(), std::int64_t{0});
    }
    order_ = std::make_shared<const std::vector<std::int64_t>>(
        std::move(order));
    epoch_ = epoch;
  }
  return order_;
}

DistributedSampler::DistributedSampler(std::int64_t dataset_size,
                                       std::int64_t world_size,
                                       std::int64_t rank,
                                       std::int64_t batch_size,
                                       std::uint64_t seed, bool shuffle)
    : DistributedSampler(
          std::make_shared<EpochOrder>(dataset_size, seed, shuffle),
          world_size, rank, batch_size) {}

DistributedSampler::DistributedSampler(std::shared_ptr<EpochOrder> order,
                                       std::int64_t world_size,
                                       std::int64_t rank,
                                       std::int64_t batch_size)
    : source_(std::move(order)),
      world_size_(world_size),
      rank_(rank),
      batch_size_(batch_size) {
  ES_CHECK(world_size > 0 && rank >= 0 && rank < world_size,
           "bad sampler rank/world");
  ES_CHECK(batch_size > 0, "bad sampler sizes");
  set_epoch(0);
  ES_CHECK(steps_per_epoch() > 0,
           "batch size " << batch_size << " exceeds the per-rank shard ("
                         << source_->dataset_size() << " samples over "
                         << world_size << " ranks)");
}

void DistributedSampler::set_epoch(std::int64_t epoch) {
  epoch_ = epoch;
  order_ = source_->get(epoch);
}

std::int64_t DistributedSampler::steps_per_epoch() const {
  // Padding by wrapping gives every rank the same shard length.
  const std::int64_t per_rank =
      (source_->dataset_size() + world_size_ - 1) / world_size_;
  return per_rank / batch_size_;
}

std::vector<std::int64_t> DistributedSampler::batch_indices(
    std::int64_t step) const {
  ES_CHECK(step >= 0 && step < steps_per_epoch(),
           "sampler step " << step << " out of range");
  const auto size = static_cast<std::int64_t>(order_->size());
  std::vector<std::int64_t> out(static_cast<std::size_t>(batch_size_));
  // Shard element k is permutation element rank + k * world; the padded
  // tail (rank + k * world >= size) wraps to the front.
  std::int64_t g = rank_ + step * batch_size_ * world_size_;
  for (auto& index : out) {
    index = (*order_)[static_cast<std::size_t>(g < size ? g : g % size)];
    g += world_size_;
  }
  return out;
}

}  // namespace easyscale::data
