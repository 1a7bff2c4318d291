// Per-shard request scheduler: one FIFO queue per Table-1 workload class
// (P1–P4) with admission control and earliest-deadline-first dispatch.
//
// The paper serves every request immediately on an idle function; under
// offered load beyond a shard's capacity, *which* request runs next decides
// whether latency-critical P1 inference hides behind minute-long P2
// analytics scans. Each class has a latency SLO target (kClassSloS), and a
// request's deadline is its arrival plus its class's target. A fresh P1
// (deadline now+1s) beats a fresh P2 (deadline now+120s), but an old P2
// whose deadline has passed wins over new arrivals — starvation-freedom
// falls out of the math. Equal deadlines go to the earlier arrival.
//
// Single-threaded by design: each shard owns one scheduler and drives it
// from its discrete-event loop, so dispatch decisions depend only on
// simulated time, never on wall-clock thread interleaving.
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "fed/request.hpp"

namespace flstore::serve {

/// Per-class latency SLO targets in seconds (P1..P4): the scheduler's
/// dispatch deadlines (arrival + target) and obs::SloConfig's default
/// objectives. Inference goes ahead of batch work.
inline constexpr std::array<double, fed::kPolicyClassCount> kClassSloS = {
    1.0, 120.0, 30.0, 5.0};

struct SchedulerConfig {
  /// Admission control: max queued requests per class; 0 = unbounded.
  /// A full class queue rejects new arrivals (load shedding) instead of
  /// letting the backlog grow without bound.
  std::size_t class_queue_limit = 1024;
};

class RequestScheduler {
 public:
  explicit RequestScheduler(SchedulerConfig config = {});

  /// Admission control. Returns false (and counts a rejection) when the
  /// request's class queue is at its limit.
  bool admit(const fed::NonTrainingRequest& req, double now);

  /// Pop the request with the earliest deadline. Requires !empty().
  [[nodiscard]] fed::NonTrainingRequest pop();

  [[nodiscard]] bool empty() const noexcept { return queued_ == 0; }
  [[nodiscard]] std::size_t queued() const noexcept { return queued_; }
  [[nodiscard]] std::size_t queued(fed::PolicyClass c) const noexcept {
    return queues_[fed::class_index(c)].size();
  }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }

  /// Per-class admission/backlog ledger — the control plane's queue-depth
  /// and admission-reject inputs (exported as sched_* gauges by the serving
  /// plane's telemetry pass). peak_queued is the worst backlog this class's
  /// queue ever held, sampled after every admit.
  struct ClassStats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::size_t peak_queued = 0;
  };
  [[nodiscard]] const ClassStats& class_stats(fed::PolicyClass c)
      const noexcept {
    return class_stats_[fed::class_index(c)];
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Entry {
    fed::NonTrainingRequest request;
    double enqueued_s = 0.0;
    std::uint64_t seq = 0;  ///< global arrival order (deadline tie-breaks)
  };

  [[nodiscard]] std::size_t pick_class() const;

  SchedulerConfig config_;
  std::array<std::deque<Entry>, fed::kPolicyClassCount> queues_;
  std::array<ClassStats, fed::kPolicyClassCount> class_stats_{};
  std::size_t queued_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace flstore::serve
