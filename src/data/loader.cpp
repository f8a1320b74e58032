#include "data/loader.hpp"

#include <chrono>

#include "common/error.hpp"

namespace easyscale::data {

Batch BatchAssembler::assemble(const Dataset& dataset,
                               const AugmentConfig& augment,
                               const WorkItem& item, double per_sample_us) {
  const auto n = static_cast<std::int64_t>(item.indices.size());
  ES_CHECK(n > 0, "batch of an empty work item");
  rng::StreamSet streams;
  streams.set_state(item.rng_state);
  Batch batch;
  for (std::int64_t i = 0; i < n; ++i) {
    dataset.fill(item.indices[static_cast<std::size_t>(i)], sample_);
    augment_image(augment, streams, sample_, spare_);
    if (i == 0) batch = start_batch(sample_, n);
    put_row(batch, i, sample_);
    if (per_sample_us > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(per_sample_us));
    }
  }
  return batch;
}

SharedDataWorkerPool::SharedDataWorkerPool(const Dataset& dataset,
                                           LoaderConfig config)
    : dataset_(&dataset), config_(std::move(config)) {
  ES_CHECK(config_.num_workers > 0, "loader needs at least one worker");
  const auto workers = static_cast<std::size_t>(config_.num_workers);
  // Sized before any thread starts: each worker owns its assembler.
  assemblers_.resize(workers);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(assemblers_[i]); });
  }
}

SharedDataWorkerPool::~SharedDataWorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void SharedDataWorkerPool::enqueue(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unconsumed_.emplace(Key{item.est_rank, item.step}, item);
    queue_.push_back(std::move(item));
  }
  cv_work_.notify_one();
}

Batch SharedDataWorkerPool::get(std::int64_t est_rank, std::int64_t step) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{est_rank, step};
  cv_ready_.wait(lock, [&] { return ready_.contains(key); });
  Batch batch = std::move(ready_.at(key));
  ready_.erase(key);
  unconsumed_.erase(key);
  return batch;
}

std::vector<WorkItem> SharedDataWorkerPool::pending_items() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkItem> items;
  items.reserve(unconsumed_.size());
  for (const auto& [key, item] : unconsumed_) items.push_back(item);
  return items;
}

void SharedDataWorkerPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_ready_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void SharedDataWorkerPool::worker_loop(BatchAssembler& assembler) {
  if (config_.worker_launch_ms > 0.0) {
    // Launch cost models process fork + interpreter/dataset import, which
    // is CPU-bound: busy-wait so concurrent launches contend for cores the
    // way real data-worker processes do (§5.1.2 first-batch latency).
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count() < config_.worker_launch_ms) {
    }
  }
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    Batch batch = assembler.assemble(*dataset_, config_.augment, item,
                                     config_.per_sample_us);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ready_.emplace(Key{item.est_rank, item.step}, std::move(batch));
      --in_flight_;
    }
    cv_ready_.notify_all();
  }
}

}  // namespace easyscale::data
