// Wall clock, CPU clock and peak memory for flbench — the one place the
// benchmark reads time. The library itself stays a pure function of
// simulated time; only this benchmark measures how fast the code runs.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>

namespace flbench {

/// Monotonic wall-clock nanoseconds.
inline std::int64_t now_ns() {
  // flstore-lint: allow(wall-clock) -- flbench measures wall-clock speed
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

/// User + system CPU nanoseconds of the whole process (every thread).
inline std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<std::int64_t>(tv.tv_usec);
  };
  return (us(ru.ru_utime) + us(ru.ru_stime)) * 1000;
}

/// Peak resident set size of the process so far, in MiB (Linux reports
/// ru_maxrss in KiB).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace flbench
