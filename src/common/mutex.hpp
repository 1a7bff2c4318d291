// Annotated Mutex / MutexLock / CondVar shim over the standard primitives.
//
// Clang's thread-safety analysis (common/thread_annotations.hpp) can only
// reason about lock types that carry capability annotations, which
// std::mutex and std::scoped_lock do not. These wrappers are thin
// stand-ins: Mutex is a std::mutex whose lock() spins briefly before it
// parks (below), MutexLock is a lock_guard that can also adopt a lock won
// by try_lock(), CondVar wraps std::condition_variable_any so waiters keep
// the annotated type through the wait. Every mutex member in src/ is one of
// these (tools/lint/flstore_lint.py enforces it), so the whole tree's lock
// discipline is machine-checked at compile time on the clang CI legs.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace flstore {

/// One spin-wait hint to the CPU: lets the sibling hyperthread run and
/// eases the memory-order exit of the loop. A no-op where none exists.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// std::mutex with capability annotations. Usable with any BasicLockable
/// consumer, but code should hold it via MutexLock so the analysis sees the
/// critical section.
///
/// lock() spins before it parks. The hot path's critical sections (a put,
/// an evict, a stripe drain) last well under a microsecond, so a contended
/// waiter that sleeps in the futex pays a context switch and a wake-up for
/// a lock that would have come free within a few hundred cycles. lock()
/// therefore calls try_lock() up to kSpinTries times, with a CPU pause
/// between tries, before it blocks in std::mutex::lock(). An uncontended
/// lock still succeeds on its first try, and try_lock() never spins.
class CAPABILITY("mutex") Mutex {
 public:
  /// Chosen on flbench hot_write (4 threads on 4 vCPUs, 30% writes; 3
  /// alternating 20 s runs per side). Against no spin, 256 tries raised
  /// throughput from 1.96M to 2.48M ops/s and cut voluntary context
  /// switches per run from 2.49M to 0.49M. Against 256: 32 tries lost 16%
  /// (2.46M -> 2.06M) with 3.8x the context switches; 1024 tries read 1.3%
  /// faster, inside the run-to-run drift, while quadrupling the longest
  /// spin before a waiter parks, which oversubscribed threads pay while
  /// the holder is descheduled.
  static constexpr int kSpinTries = 256;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    for (int i = 0; i < kSpinTries; ++i) {
      if (mu_.try_lock()) return;
      cpu_pause();
    }
    mu_.lock();
  }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over Mutex (the annotated std::scoped_lock).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  /// Adopt a lock the caller already holds, typically one won by
  /// try_lock(); released at scope exit like any other MutexLock.
  MutexLock(Mutex& mu, std::adopt_lock_t) REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex waiters. wait() requires the mutex held —
/// the analysis sees the guarded predicate loop around it as one critical
/// section, matching the actual release/reacquire semantics of a CV wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, wait, reacquire. Callers loop on their
  /// predicate exactly as with std::condition_variable.
  void wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace flstore
