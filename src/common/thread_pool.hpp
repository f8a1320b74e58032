// A small fixed-size thread pool.
//
// EasyScale uses it for the shared data-worker pool (§3.2 "Optimizing data
// pre-processing") and for physically-parallel worker execution in the
// throughput benches.  All *determinism-relevant* work is ordered by the
// caller (e.g. the data-loader commits results through an index-ordered
// queue), so pool scheduling order never affects training results.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace easyscale {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution on any pool thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Grow the pool by `count` additional worker threads.  Safe to call
  /// while tasks are in flight (the intra-op ComputePool grows lazily to
  /// the largest thread count any ExecContext requests).
  void add_threads(std::size_t count);

  [[nodiscard]] std::size_t size() const;

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Run fn(i) for every i in [0, n): on one thread per index when
/// `threaded` and n > 1, else in order on the calling thread.
template <typename Fn>
void run_each(std::size_t n, bool threaded, Fn& fn) {
  if (!threaded || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

}  // namespace easyscale
