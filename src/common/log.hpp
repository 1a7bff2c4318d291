// Tiny leveled logger. Benches run quiet by default; tests can raise the
// level to debug a scenario. Thread-safe: the serving plane runs tenant
// timelines on a worker pool, so the level is an atomic and each write
// holds a mutex (one fprintf per line — no interleaved fragments). The
// fast path stays free: FLSTORE_LOG builds no LogLine (and allocates
// nothing) when the level filters the message out.
// flstore-lint: allow(orphan-header) -- the no-cout rule's sanctioned diagnostics channel
#pragma once

#include <sstream>
#include <string>

namespace flstore {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static LogLevel level() noexcept;
  static void set_level(LogLevel lv) noexcept;
  static void write(LogLevel lv, const std::string& msg);
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel lv) : lv_(lv) {}
  ~LogLine() { Logger::write(lv_, out_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel lv_;
  std::ostringstream out_;
};
}  // namespace detail

}  // namespace flstore

#define FLSTORE_LOG(lv)                                      \
  if (static_cast<int>(lv) < static_cast<int>(::flstore::Logger::level())) { \
  } else                                                     \
    ::flstore::detail::LogLine(lv)

#define FLSTORE_DEBUG FLSTORE_LOG(::flstore::LogLevel::kDebug)
#define FLSTORE_INFO FLSTORE_LOG(::flstore::LogLevel::kInfo)
#define FLSTORE_WARN FLSTORE_LOG(::flstore::LogLevel::kWarn)
