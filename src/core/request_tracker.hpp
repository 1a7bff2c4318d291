// Request Tracker (§4.3): receives non-training requests, remembers which
// function groups each was routed to, tracks completion, and is the
// component that reroutes to secondary replicas on timeouts.
//
// The dictionary format follows the paper:
//   RequestID -> (List[FunctionID], Status)
// §5.5 reports <0.19 MB for 1000 concurrent requests and sub-millisecond
// operations; the overhead bench measures exactly this structure.
//
// Completed entries also sit in an expiry index: a min-heap of
// (finished_at, id), pushed once by finish(). Finish times are not monotone
// in begin order (each is start + that request's own latency), so a FIFO
// would not do. garbage_collect pops only the expired prefix of the heap.
// Costs, for n tracked entries and k of them expiring:
//   begin / add_function / abandon   O(1) expected
//   finish                           O(log n)
//   garbage_collect                  O(1 + k log n), one comparison when
//                                    nothing has expired
// In-flight entries are not in the index, so the §5.5 footprint at 1000
// concurrent requests does not include it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

namespace flstore::core {

class RequestTracker {
 public:
  struct Entry {
    std::vector<FunctionId> functions;
    bool done = false;
    double started_at = 0.0;
    double finished_at = 0.0;
  };

  /// Register a request when routing begins.
  void begin(RequestId id, double now);

  /// Record that a function participates in serving the request.
  void add_function(RequestId id, FunctionId fn);

  /// Mark completion.
  void finish(RequestId id, double now);

  /// Forget an in-flight request whose serving failed; the id may begin
  /// again.
  void abandon(RequestId id);

  [[nodiscard]] bool contains(RequestId id) const noexcept {
    return entries_.contains(id);
  }
  [[nodiscard]] const Entry& get(RequestId id) const;
  [[nodiscard]] bool is_done(RequestId id) const;
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
  [[nodiscard]] std::size_t total_tracked() const noexcept {
    return entries_.size();
  }

  /// Drop completed entries with `finished_at + horizon_s <= now` (the
  /// tracker is a progress dictionary, not a permanent log).
  std::size_t garbage_collect(double now, double horizon_s);

  /// Approximate resident footprint of the dictionary and the expiry index
  /// (§5.5).
  [[nodiscard]] std::size_t bookkeeping_bytes() const noexcept;

 private:
  struct Expiry {
    double finished_at;
    RequestId id;
  };
  /// Heap order: the std heap algorithms keep the "largest" element on top,
  /// so ordering by "finishes later" puts the earliest expiry there.
  static bool finishes_later(const Expiry& a, const Expiry& b) noexcept {
    return a.finished_at != b.finished_at ? a.finished_at > b.finished_at
                                          : a.id > b.id;
  }

  std::unordered_map<RequestId, Entry> entries_;
  /// Min-heap on (finished_at, id); exactly the done entries of `entries_`.
  std::vector<Expiry> expiry_;
  std::size_t in_flight_ = 0;
};

}  // namespace flstore::core
