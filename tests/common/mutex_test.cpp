// flstore::Mutex under real contention: lock() spins with try_lock() before
// it parks in std::mutex::lock(), so mutual exclusion and CondVar hand-offs
// are re-checked here with threads fighting over one mutex (the CI TSan leg
// runs this suite), and try_lock() is pinned to fail at once on a held
// mutex instead of spinning.
#include "common/mutex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace flstore {
namespace {

TEST(Mutex, ContendedLockIsMutuallyExclusive) {
  constexpr int kThreads = 4;
  constexpr int kAdds = 100'000;
  struct Counter {
    Mutex mu;
    std::uint64_t value GUARDED_BY(mu) = 0;
  } counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) {
        const MutexLock lock(counter.mu);
        ++counter.value;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(counter.mu);
  EXPECT_EQ(counter.value, std::uint64_t{kThreads} * kAdds);
}

// Four threads pass a baton in strict rotation: each waits on the CondVar
// until the turn is its own, so every hand-off releases the mutex inside
// wait() and re-takes it through the spinning lock() while the others
// contend for it.
TEST(Mutex, CondVarHandoffUnderContention) {
  constexpr int kThreads = 4;
  constexpr int kTurnsEach = 1000;
  struct Baton {
    Mutex mu;
    CondVar cv;
    int turn GUARDED_BY(mu) = 0;
    std::vector<int> order GUARDED_BY(mu);
  } baton;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&baton, id] {
      for (int i = 0; i < kTurnsEach; ++i) {
        {
          const MutexLock lock(baton.mu);
          while (baton.turn % kThreads != id) baton.cv.wait(baton.mu);
          baton.order.push_back(id);
          ++baton.turn;
        }
        baton.cv.notify_all();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MutexLock lock(baton.mu);
  ASSERT_EQ(baton.turn, kThreads * kTurnsEach);
  ASSERT_EQ(baton.order.size(), std::size_t{kThreads * kTurnsEach});
  for (std::size_t i = 0; i < baton.order.size(); ++i) {
    ASSERT_EQ(baton.order[i], static_cast<int>(i % kThreads)) << "turn " << i;
  }
}

// try_lock() on a mutex another thread holds must fail at once. A try_lock
// that spun the way lock() does would cost at least kSpinTries failed tries
// of the underlying std::mutex, so the check times both against the same
// holder and needs the real one to be far cheaper; the comparison scales
// with the machine and the sanitizer.
TEST(Mutex, TryLockOnAHeldMutexFailsWithoutSpinning) {
  Mutex mu;
  std::mutex raw;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    mu.lock();
    raw.lock();
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    raw.unlock();
    mu.unlock();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  using Clock = std::chrono::steady_clock;
  constexpr int kTries = 2000;
  constexpr int kReps = 3;
  // Fastest of kReps runs, so a preemption cannot inflate either side.
  const auto fastest = [](auto&& body) {
    auto best = Clock::duration::max();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = Clock::now();
      body();
      best = std::min(best, Clock::now() - start);
    }
    return best;
  };
  int successes = 0;
  const auto tries = fastest([&] {
    for (int i = 0; i < kTries; ++i) {
      if (mu.try_lock()) {
        ++successes;
        mu.unlock();
      }
    }
  });
  const auto spins = fastest([&] {
    for (int i = 0; i < kTries * Mutex::kSpinTries; ++i) {
      if (raw.try_lock()) {
        ++successes;
        raw.unlock();
      }
    }
  });
  release.store(true, std::memory_order_release);
  holder.join();

  EXPECT_EQ(successes, 0);
  // Spinning would make the two equal; a single try per call makes them
  // kSpinTries apart. A 16x margin keeps noise out of the verdict.
  EXPECT_LT(tries * 16, spins);
}

}  // namespace
}  // namespace flstore
