// SloMonitor — per-class rolling burn-rate windows over ServiceRecords,
// plus the durability-exposure gauges from the flush scheduler's ledger.
//
// Burn rate is the SRE error-budget convention: with an objective of
// `good_fraction` (e.g. 99.9% of requests meet their class's latency SLO),
// the budget is 1 - good_fraction, and
//
//   burn_rate(window) = bad_fraction(window) / (1 - good_fraction)
//
// so 1.0 means "consuming budget exactly as provisioned", 10x means the
// month's budget burns in ~3 days. A request is *bad* when admission shed
// it or its end-to-end latency exceeded its class objective (by default
// the scheduler's deadline table, serve::kClassSloS).
//
// Mechanics: per class, a ring of fixed-width time buckets keyed by the
// *absolute* bucket index of the record's completion time — O(1) record,
// no per-record retention, deterministic under cross-tenant thread
// interleaving (records land in the same bucket regardless of arrival
// order; only records older than the entire largest window are dropped,
// which cannot happen while every in-flight latency is shorter than it).
//
// publish() surfaces everything the future autoscaler control loop
// consumes as gauges: slo_burn_rate{class,window}, slo_bad_fraction{...},
// and — via observe_dirty_window() — the PR 5 crash-consistency exposure
// (flush_dirty_bytes, flush_bytes_at_risk_integral, ...).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "backend/flush_scheduler.hpp"
#include "common/mutex.hpp"
#include "fed/request.hpp"
#include "obs/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_metrics.hpp"

namespace flstore::obs {

struct SloConfig {
  /// Per-class end-to-end latency objective in seconds (P1..P4).
  std::array<double, fed::kPolicyClassCount> objective_latency_s =
      serve::kClassSloS;
  /// Fraction of requests that must meet their objective (the SLO itself).
  double good_fraction = 0.999;
  /// Rolling windows to report (seconds of simulated time). The largest
  /// bounds retention.
  std::vector<double> windows_s{60.0, 600.0};
  /// Ring resolution; window edges round to this granularity.
  double bucket_s = 5.0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Book one served (or shed) request at its completion time. Thread-safe.
  void record(const serve::ServiceRecord& record) EXCLUDES(mu_);

  /// Burn rate for `cls` over the trailing `window_s` ending at `now`;
  /// 0 when the window saw no requests.
  [[nodiscard]] double burn_rate(fed::PolicyClass cls, double window_s,
                                 double now) const EXCLUDES(mu_);
  /// Fraction of bad requests in the trailing window (0 when empty).
  [[nodiscard]] double bad_fraction(fed::PolicyClass cls, double window_s,
                                    double now) const EXCLUDES(mu_);
  /// Requests booked for `cls` over the trailing window.
  [[nodiscard]] std::uint64_t window_total(fed::PolicyClass cls,
                                           double window_s, double now) const
      EXCLUDES(mu_);
  /// Records dropped because they pre-dated the entire retained ring.
  [[nodiscard]] std::uint64_t dropped_old() const EXCLUDES(mu_);

  /// Export burn-rate/bad-fraction gauges for every (class, window) pair
  /// at `now`, e.g. slo_burn_rate{class="P1",window="60"}.
  void publish(MetricsRegistry& metrics, double now) const EXCLUDES(mu_);

  /// Structured export of everything publish() writes as gauges — the
  /// control plane's snapshot form. burn_rate[c][w] pairs class index `c`
  /// (fed::class_index) with windows_s[w]; all (class, window) cells are
  /// sampled under one lock acquisition, so the snapshot is a consistent
  /// read of the ring at `now`.
  struct BurnSnapshot {
    double now_s = 0.0;
    std::vector<double> windows_s;  ///< copy of config().windows_s
    std::array<std::vector<double>, fed::kPolicyClassCount> burn_rate{};
    std::array<std::vector<double>, fed::kPolicyClassCount> bad_fraction{};
    std::array<std::vector<std::uint64_t>, fed::kPolicyClassCount>
        window_requests{};
  };
  [[nodiscard]] BurnSnapshot snapshot(double now) const EXCLUDES(mu_);

  /// Surface the flush scheduler's crash-consistency ledger as gauges
  /// (flush_dirty_bytes, flush_peak_dirty_bytes, flush_bytes_at_risk
  /// integral, flush_oldest_dirty_age_s, flush_lost_bytes) — the
  /// durability half of the autoscaler's inputs.
  static void observe_dirty_window(MetricsRegistry& metrics,
                                   const backend::DirtyWindowStats& stats,
                                   const std::string& backend_label);

  [[nodiscard]] const SloConfig& config() const noexcept { return config_; }

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< absolute bucket index; -1 = empty slot
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };

  /// (bad, total) summed over the trailing window.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> window_counts_locked(
      fed::PolicyClass cls, double window_s, double now) const REQUIRES(mu_);

  SloConfig config_;
  std::size_t ring_size_ = 0;
  mutable Mutex mu_;
  /// ring_[class][slot]; slot = absolute index % ring_size_.
  std::array<std::vector<Bucket>, fed::kPolicyClassCount> ring_
      GUARDED_BY(mu_);
  std::array<std::int64_t, fed::kPolicyClassCount> latest_index_
      GUARDED_BY(mu_){};
  std::uint64_t dropped_old_ GUARDED_BY(mu_) = 0;
};

}  // namespace flstore::obs
