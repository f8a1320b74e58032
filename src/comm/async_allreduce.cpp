#include "comm/async_allreduce.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace easyscale::comm {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

AsyncCollectiveEngine::AsyncCollectiveEngine(AsyncConfig cfg) : cfg_(cfg) {
  ES_CHECK(cfg_.max_in_flight >= 1, "async engine needs max_in_flight >= 1");
  slot_ = std::thread([this] { comm_loop(); });
}

AsyncCollectiveEngine::~AsyncCollectiveEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_slot_.notify_all();
  cv_submit_.notify_all();
  slot_.join();
}

void AsyncCollectiveEngine::begin_step(BucketJob job) {
  std::lock_guard<std::mutex> lock(mutex_);
  ES_CHECK(!step_open_, "begin_step without draining the previous step");
  ES_CHECK(queue_.empty() && !executing_, "engine not idle at begin_step");
  job_ = std::move(job);
  step_open_ = true;
  error_ = nullptr;
  ready_s_.clear();
  cost_s_.clear();
  comm_busy_s_ = 0.0;
  comm_virtual_s_ = 0.0;
  step_start_ = Clock::now();
}

void AsyncCollectiveEngine::submit(std::size_t bucket) {
  const double offset = seconds_since(step_start_);
  std::unique_lock<std::mutex> lock(mutex_);
  ES_CHECK(step_open_, "submit outside begin_step/drain");
  cv_submit_.wait(lock, [this] {
    return error_ != nullptr || stopping_ ||
           static_cast<int>(queue_.size()) + (executing_ ? 1 : 0) <
               cfg_.max_in_flight;
  });
  // A failed step discards late submissions; drain() reports the failure.
  if (error_ != nullptr || stopping_) return;
  queue_.push_back({bucket, offset});
  lock.unlock();
  cv_slot_.notify_one();
}

void AsyncCollectiveEngine::run_front(std::unique_lock<std::mutex>& lock) {
  const Pending next = queue_.front();
  queue_.pop_front();
  executing_ = true;
  lock.unlock();
  const auto t0 = Clock::now();
  double virtual_s = 0.0;
  std::exception_ptr err;
  try {
    virtual_s = job_(next.bucket);
  } catch (...) {
    err = std::current_exception();
  }
  const double busy = seconds_since(t0);
  lock.lock();
  executing_ = false;
  if (err != nullptr) {
    // The step failed: discard the jobs behind it, unblock submitters, and
    // let drain() rethrow.
    error_ = err;
    queue_.clear();
  } else {
    ready_s_.push_back(next.submit_offset_s);
    cost_s_.push_back(virtual_s > 0.0 ? virtual_s : busy);
    comm_busy_s_ += busy;
    comm_virtual_s_ += virtual_s;
  }
  cv_submit_.notify_all();
}

void AsyncCollectiveEngine::comm_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_slot_.wait(lock, [this] {
      return stopping_ || (!queue_.empty() && !executing_ && !draining_);
    });
    if (stopping_) return;
    run_front(lock);
    // A caller that entered drain() while this job ran waits for it, then
    // takes over the queue.
    if (draining_) cv_idle_.notify_one();
  }
}

OverlapStats AsyncCollectiveEngine::drain() {
  const double compute_s = seconds_since(step_start_);
  const auto t0 = Clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  ES_CHECK(step_open_, "drain without begin_step");
  // From here the caller is the only thread that starts jobs: it runs the
  // queue itself rather than waking the slot and sleeping on its progress.
  draining_ = true;
  cv_idle_.wait(lock, [this] { return !executing_; });
  while (!queue_.empty()) run_front(lock);
  draining_ = false;
  step_open_ = false;
  job_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }

  OverlapStats stats;
  stats.buckets = static_cast<std::int64_t>(cost_s_.size());
  stats.compute_s = compute_s;
  stats.comm_busy_s = comm_busy_s_;
  stats.comm_virtual_s = comm_virtual_s_;
  stats.drain_wait_s = seconds_since(t0);
  double total_comm = 0.0;
  double end = 0.0;
  for (std::size_t j = 0; j < cost_s_.size(); ++j) {
    // Submission always precedes the backward join, so the pipelined model
    // clamps readiness at compute_s: the inequality below is structural.
    const double ready = std::min(ready_s_[j], compute_s);
    end = std::max(end, ready) + cost_s_[j];
    total_comm += cost_s_[j];
  }
  stats.modeled_seq_s = compute_s + total_comm;
  stats.modeled_overlap_s = std::max(compute_s, end);
  if (total_comm > 0.0) {
    const double exposed = std::max(0.0, end - compute_s);
    stats.overlap_frac = (total_comm - exposed) / total_comm;
  }
  return stats;
}

BucketReadyTracker::BucketReadyTracker(const BucketLayout& layout,
                                       const std::vector<int>& contrib_counts,
                                       BucketDoneFn on_bucket_done)
    : done_(std::move(on_bucket_done)) {
  std::size_t num_params = contrib_counts.size();
  for (const auto& bucket : layout.buckets) {
    for (int id : bucket) {
      num_params = std::max(num_params, static_cast<std::size_t>(id) + 1);
    }
  }
  bucket_of_.assign(num_params, -1);
  remaining_.assign(layout.num_buckets(), 0);
  fired_.assign(layout.num_buckets(), 0);
  for (std::size_t b = 0; b < layout.buckets.size(); ++b) {
    for (int id : layout.buckets[b]) {
      bucket_of_[static_cast<std::size_t>(id)] = static_cast<int>(b);
      const int contribs =
          static_cast<std::size_t>(id) < contrib_counts.size()
              ? contrib_counts[static_cast<std::size_t>(id)]
              : 0;
      remaining_[b] += contribs;
    }
  }
  // A bucket whose parameters never contribute (frozen/unused) only fires
  // from finish(); mark all-zero buckets so grad_ready never fires them.
  for (std::size_t b = 0; b < remaining_.size(); ++b) {
    if (remaining_[b] == 0) fired_[b] = 2;  // finish()-only
  }
}

void BucketReadyTracker::grad_ready(int param_id) {
  if (param_id < 0 ||
      static_cast<std::size_t>(param_id) >= bucket_of_.size()) {
    return;
  }
  const int b = bucket_of_[static_cast<std::size_t>(param_id)];
  if (b < 0) return;
  const auto bi = static_cast<std::size_t>(b);
  if (fired_[bi] != 0) return;  // late extra contribution: already flushed
  if (--remaining_[bi] == 0) {
    fired_[bi] = 1;
    done_(bi);
  }
}

void BucketReadyTracker::finish() {
  for (std::size_t b = 0; b < fired_.size(); ++b) {
    if (fired_[b] == 1) continue;
    fired_[b] = 1;
    done_(b);
  }
}

OverlapCoordinator::OverlapCoordinator(std::size_t num_buckets, int num_parts,
                                       AsyncCollectiveEngine& engine)
    : remaining_(num_buckets), engine_(&engine) {
  ES_CHECK(num_parts > 0, "overlap coordinator needs participants");
  for (auto& r : remaining_) r.store(num_parts, std::memory_order_relaxed);
}

void OverlapCoordinator::publish(std::size_t bucket) {
  ES_CHECK(bucket < remaining_.size(), "publish of unknown bucket");
  // acq_rel: the final decrement observes every earlier publisher's bucket
  // writes (their release) before handing the job to the comm slot.
  const int before =
      remaining_[bucket].fetch_sub(1, std::memory_order_acq_rel);
  ES_CHECK(before >= 1, "bucket " << bucket << " published too many times");
  if (before == 1) engine_->submit(bucket);
}

}  // namespace easyscale::comm
