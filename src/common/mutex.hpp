// Annotated Mutex / MutexLock / CondVar shim over the standard primitives.
//
// Clang's thread-safety analysis (common/thread_annotations.hpp) can only
// reason about lock types that carry capability annotations, which
// std::mutex and std::scoped_lock do not. These wrappers are zero-cost
// stand-ins: Mutex is exactly a std::mutex, MutexLock is exactly a
// lock_guard, CondVar wraps std::condition_variable_any so waiters keep the
// annotated type through the wait. Every mutex member in src/ is one of
// these (tools/lint/flstore_lint.py enforces it), so the whole tree's lock
// discipline is machine-checked at compile time on the clang CI legs.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace flstore {

/// std::mutex with capability annotations. Usable with any BasicLockable
/// consumer, but code should hold it via MutexLock so the analysis sees the
/// critical section.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over Mutex (the annotated std::scoped_lock).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
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
