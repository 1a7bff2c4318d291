// Portable Clang thread-safety-analysis annotations (no-ops elsewhere).
//
// These macros wire the codebase's lock discipline into the compiler:
// annotate the data a mutex guards (GUARDED_BY), the lock contract of every
// function that touches it (REQUIRES / ACQUIRE / RELEASE / EXCLUDES), and
// clang's -Wthread-safety proves at *compile time* that no path reads or
// writes guarded state without the right lock held. GCC (the development
// compiler) sees empty macros; the clang CI legs build with -Wthread-safety
// -Werror=thread-safety, and tests/static/ negative-compile cases pin that
// the layer itself keeps rejecting unguarded access.
//
// The annotations only work on lock types that are themselves annotated, so
// code uses the flstore::Mutex / flstore::MutexLock shim (common/mutex.hpp)
// instead of std::mutex / std::scoped_lock. tools/lint/flstore_lint.py
// enforces both halves: no raw std::mutex members outside src/common/, and
// every Mutex member must appear in at least one annotation.
//
// Attribute reference:
//   https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && !defined(FLSTORE_NO_THREAD_ANNOTATIONS)
#define FLSTORE_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define FLSTORE_TS_ATTRIBUTE(x)  // not clang: annotations compile away
#endif

/// Marks a class as a lockable capability ("mutex" names it in diagnostics).
#define CAPABILITY(x) FLSTORE_TS_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY FLSTORE_TS_ATTRIBUTE(scoped_lockable)

/// Field `x` may only be read or written while holding the named mutex.
#define GUARDED_BY(x) FLSTORE_TS_ATTRIBUTE(guarded_by(x))

/// Pointer field: the *pointee* may only be dereferenced holding the mutex
/// (the pointer itself is unguarded — set-once wiring, read-only after).
#define PT_GUARDED_BY(x) FLSTORE_TS_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the listed mutexes held on entry (and does not release).
#define REQUIRES(...) FLSTORE_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires the mutex (held on return, not on entry).
#define ACQUIRE(...) FLSTORE_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the mutex (held on entry, not on return).
#define RELEASE(...) FLSTORE_TS_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function attempts the lock; holds it iff the return value equals the
/// first argument.
#define TRY_ACQUIRE(...) \
  FLSTORE_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the mutex (the function acquires it itself); turns
/// self-deadlock into a compile error.
#define EXCLUDES(...) FLSTORE_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named mutex (lock accessors).
#define RETURN_CAPABILITY(x) FLSTORE_TS_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function's locking is intentionally invisible to the
/// analysis. Every use carries a comment justifying why.
#define NO_THREAD_SAFETY_ANALYSIS FLSTORE_TS_ATTRIBUTE(no_thread_safety_analysis)
