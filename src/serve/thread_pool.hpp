// Fixed-size worker pool for the serving plane, and the claim-or-run task
// its helper threads share with the timelines.
//
// The ShardedStore runs one deterministic discrete-event task per tenant on
// one pool (the timelines), and the work a timeline can hand off — its next
// round's preparation and the workload outputs of the arrivals it will
// reach next — on a second pool (the helpers). Results never depend on
// either pool's size or on scheduling order: timelines share no mutable
// state except internally synchronized components (cold backends,
// Coalescer), and a helper task is a pure function of what it holds, which
// its timeline takes through ClaimOrRun. A timeline that finishes early
// lends its thread to the helpers (lend()), so a run can use every hardware
// thread it was given without ever running more.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
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

  /// Block until every submitted task has finished, those a lending thread
  /// runs included.
  void wait_idle() EXCLUDES(mu_);

  /// Submit all of `tasks` and wait for them to finish.
  void run_all(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

  /// Lend the calling thread to the pool: run queued tasks on it, oldest
  /// first, until `done()` holds, and block (never poll) while the queue is
  /// empty. `done` is read under the pool's lock, before each task and on
  /// every wake-up; whoever makes it true must call wake() afterwards. A
  /// task already running when `done` turns true finishes first.
  void lend(const std::function<bool()>& done) EXCLUDES(mu_);

  /// Wake every lend() caller to re-read its stop condition.
  void wake() EXCLUDES(mu_);

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
  /// Pop the oldest task and count it active. Queue must be non-empty.
  std::function<void()> pop_locked() REQUIRES(mu_);
  /// Run `task`, then count it finished.
  void run_popped(std::function<void()>& task) EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar work_cv_;
  CondVar idle_cv_;
  std::size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// One unit of work run exactly once, by whichever thread claims it first:
/// a helper that reaches it in a pool's queue (post), or else its owner
/// when the owner needs the result (take). The owner therefore waits only
/// on work another thread has already started, never on a queue. The owner
/// holds the task; a queued helper holds it only while it runs it, so work
/// the owner lets go of before any thread starts it never runs.
template <typename T>
class ClaimOrRun {
 public:
  template <typename Work>
  explicit ClaimOrRun(Work&& work)
      : task_(std::forward<Work>(work)), result_(task_.get_future()) {}
  ClaimOrRun(const ClaimOrRun&) = delete;
  ClaimOrRun& operator=(const ClaimOrRun&) = delete;

  /// Run the work unless some thread has claimed it.
  void run_if_unclaimed() {
    if (!claimed_.exchange(true, std::memory_order_acq_rel)) task_();
  }
  /// The result: computed here if no thread has claimed the work, else
  /// waited for. Rethrows what the work threw, on whichever thread it ran.
  T take() {
    run_if_unclaimed();
    return result_.get();
  }

 private:
  std::atomic<bool> claimed_{false};
  std::packaged_task<T()> task_;
  std::future<T> result_;
};

/// Queue `task` on `pool` without keeping it alive: a pool thread that
/// reaches it runs it if its owner still holds it and has not claimed it.
template <typename T>
void post(ThreadPool& pool, const std::shared_ptr<ClaimOrRun<T>>& task) {
  pool.submit([pending = std::weak_ptr(task)] {
    if (const auto held = pending.lock()) held->run_if_unclaimed();
  });
}

}  // namespace flstore::serve
