// Fixed-size worker pool for the serving plane.
//
// The ShardedStore runs one deterministic discrete-event task per tenant;
// the pool provides the wall-clock parallelism across tenants. Results never
// depend on the pool size or on scheduling order — tasks share no mutable
// state except internally synchronized components (cold backends, Coalescer).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"

namespace flstore::serve {

class ThreadPool {
 public:
  /// `threads` <= 0 runs every task inline on the submitting thread (handy
  /// for debugging and for the determinism tests' reference runs).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task) EXCLUDES(mu_);

  /// Block until every submitted task has finished.
  void wait_idle() EXCLUDES(mu_);

  /// Submit all of `tasks` and wait for them to finish.
  void run_all(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Barrier-started replicated run for the real-thread hot path: spawn
  /// `threads` dedicated OS threads, hold them at a start line until all
  /// have arrived, then run `fn(worker_index)` on each and join. The
  /// barrier keeps the measured region genuinely concurrent — without it,
  /// early threads finish their stream before late ones even start, and a
  /// "16-thread" sweep measures mostly sequential execution.
  static void run_replicated(int threads,
                             const std::function<void(int)>& fn);

 private:
  void worker_loop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar work_cv_;
  CondVar idle_cv_;
  std::size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace flstore::serve
