// Minimal discrete-event queue on a single virtual clock.
//
// Nothing in the library schedules on it: the experiment runner and the
// serving plane each keep their own clock. Events at equal timestamps run
// in scheduling order (a strictly increasing sequence number breaks ties),
// which keeps runs deterministic.
// flstore-lint: allow(orphan-header) -- unused; its deletion is open on ROADMAP item 2
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace flstore {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Current virtual time in seconds.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `when` (must be >= now()).
  void schedule_at(double when, Action action);

  /// Schedule `action` `delay` seconds from now.
  void schedule_in(double delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Run until the queue drains or the optional horizon is crossed.
  /// Returns the number of events executed.
  std::size_t run(double horizon = -1.0);

  /// Execute exactly one event if any is pending. Returns false when empty.
  bool step();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  struct Event {
    double when;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace flstore
