// ThreadPool: the serving plane's worker pool (submit, run_all, wait_idle,
// the inline pool), the lend() call through which a finished timeline runs
// helper tasks, and the ClaimOrRun task the helpers share with timelines.
#include "serve/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flstore::serve {
namespace {

TEST(ThreadPool, SubmittedTasksAllRunBeforeWaitIdleReturns) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
  std::vector<std::atomic<int>> runs(200);
  for (auto& r : runs) {
    pool.submit([&r] { r.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, RunAllRunsEveryTaskOnPoolThreads) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(50);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    tasks.emplace_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  }
  pool.run_all(std::move(tasks));
  for (const auto& id : ran_on) {
    EXPECT_NE(id, std::thread::id{});
    EXPECT_NE(id, caller);
  }
}

TEST(ThreadPool, WaitIdleWaitsForARunningTask) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<bool> finished{false};
  pool.submit([released, &finished] {
    released.wait();
    finished.store(true);
  });
  std::thread waiter([&pool, &finished] {
    pool.wait_idle();
    EXPECT_TRUE(finished.load());
  });
  release.set_value();
  waiter.join();
}

TEST(ThreadPool, InlinePoolRunsTasksOnTheCaller) {
  for (const int threads : {0, -1}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), 0);
    const auto caller = std::this_thread::get_id();
    int runs = 0;
    pool.submit([&] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
    });
    EXPECT_EQ(runs, 1);  // ran before submit returned
    pool.run_all({[&] { ++runs; }, [&] { ++runs; }});
    EXPECT_EQ(runs, 3);
    pool.wait_idle();
  }
}

TEST(ThreadPool, LentThreadRunsQueuedTasksUntilDone) {
  // The pool's one thread is held by a blocker, so only the lending caller
  // can run the tasks queued behind it: each must run exactly once, on the
  // caller, and lend() must return once they have all run.
  constexpr int kTasks = 64;
  ThreadPool pool(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  std::promise<void> blocking;
  pool.submit([released, &blocking] {
    blocking.set_value();
    released.wait();
  });
  blocking.get_future().wait();

  const auto lender = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(kTasks);
  std::atomic<int> finished{0};
  std::atomic<int> on_lender{0};
  for (auto& r : runs) {
    pool.submit([&, lender] {
      r.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() == lender) on_lender.fetch_add(1);
      if (finished.fetch_add(1) + 1 == kTasks) pool.wake();
    });
  }
  pool.lend([&] { return finished.load() == kTasks; });
  EXPECT_EQ(finished.load(), kTasks);
  EXPECT_EQ(on_lender.load(), kTasks);
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  release.set_value();
  pool.wait_idle();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPool, LendersAndPoolThreadsShareTheQueue) {
  // Pool threads and two lenders drain one queue together: every task runs
  // exactly once, whoever runs it, and both lenders return once the stop
  // condition holds.
  constexpr int kTasks = 2000;
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> lenders;
  for (int i = 0; i < 2; ++i) {
    lenders.emplace_back([&] { pool.lend([&] { return stop.load(); }); });
  }
  std::vector<std::atomic<int>> runs(kTasks);
  for (auto& r : runs) {
    pool.submit([&r] { r.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  stop.store(true);
  pool.wake();
  for (auto& t : lenders) t.join();
}

TEST(ThreadPool, LendReturnsAtOnceWhenAlreadyDone) {
  ThreadPool pool(1);
  pool.lend([] { return true; });
  ThreadPool inline_pool(0);
  inline_pool.lend([] { return true; });
}

TEST(ThreadPool, ClaimOrRunRunsOnceWhoeverClaimsIt) {
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    std::atomic<int> runs{0};
    auto task = std::make_shared<ClaimOrRun<int>>([&runs, i] {
      runs.fetch_add(1);
      return i * 3;
    });
    post(pool, task);
    EXPECT_EQ(task->take(), i * 3);
    pool.wait_idle();
    EXPECT_EQ(runs.load(), 1);
  }
}

TEST(ThreadPool, ClaimOrRunLetGoBeforeItStartsNeverRuns) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto released = release.get_future().share();
  pool.submit([released] { released.wait(); });
  std::atomic<int> runs{0};
  {
    auto task = std::make_shared<ClaimOrRun<int>>([&runs] {
      runs.fetch_add(1);
      return 0;
    });
    post(pool, task);
  }  // the owner lets go while the pool's thread is still blocked
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 0);
}

TEST(ThreadPool, ClaimOrRunRethrowsOnTheTakingThread) {
  ThreadPool pool(1);
  auto task = std::make_shared<ClaimOrRun<int>>(
      []() -> int { throw std::runtime_error("work failed"); });
  post(pool, task);
  pool.wait_idle();  // a pool thread ran it and caught the error
  EXPECT_THROW((void)task->take(), std::runtime_error);
}

}  // namespace
}  // namespace flstore::serve
