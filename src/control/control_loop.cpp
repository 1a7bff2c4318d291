#include "control/control_loop.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flstore::control {

ControlLoop::ControlLoop(serve::ShardedStore& store, obs::Telemetry& telemetry,
                         ControlSurface& surface, Controller* controller,
                         ControlLoopConfig config)
    : store_(&store),
      telemetry_(&telemetry),
      surface_(&surface),
      controller_(controller),
      config_(config) {
  FLSTORE_CHECK(config_.tick_interval_s > 0.0);
  FLSTORE_CHECK(config_.round_interval_s > 0.0);
}

TelemetrySnapshot ControlLoop::build_snapshot(
    const serve::ServiceReport& report, double start_s, double end_s) {
  TelemetrySnapshot snap;
  snap.now_s = end_s;
  snap.tick_interval_s = end_s - start_s;

  // SLO burn: fast = shortest configured window, slow = longest.
  const auto burn = telemetry_->slo.snapshot(end_s);
  std::size_t fast = 0;
  std::size_t slow = 0;
  for (std::size_t w = 1; w < burn.windows_s.size(); ++w) {
    if (burn.windows_s[w] < burn.windows_s[fast]) fast = w;
    if (burn.windows_s[w] > burn.windows_s[slow]) slow = w;
  }
  const auto class_stats = store_->tenant_class_stats(config_.tenant);
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    auto& sig = snap.classes[c];
    if (!burn.windows_s.empty()) {
      sig.burn_rate_fast = burn.burn_rate[c][fast];
      sig.burn_rate_slow = burn.burn_rate[c][slow];
      sig.window_requests = burn.window_requests[c][fast];
    }
    const auto& cs = class_stats[c];
    const auto accesses = cs.hits + cs.misses;
    sig.hit_rate = accesses == 0 ? 0.0
                                 : static_cast<double>(cs.hits) /
                                       static_cast<double>(accesses);
    sig.resident_bytes = cs.bytes;
    sig.budget_bytes = cs.budget;
    sig.admitted = report.scheduler[c].admitted;
    sig.admission_rejects = report.scheduler[c].rejected;
    sig.queue_depth_peak = report.scheduler[c].peak_queued;
  }

  snap.completed = report.completed();
  snap.rejected = report.rejected();
  snap.offered_qps = static_cast<double>(snap.completed + snap.rejected) /
                     snap.tick_interval_s;
  double service_s = 0.0;
  std::uint64_t served = 0;
  for (const auto& rec : report.records) {
    if (rec.rejected) continue;
    service_s += rec.comm_s + rec.comp_s;
    ++served;
  }
  snap.mean_service_s =
      served == 0 ? 0.0 : service_s / static_cast<double>(served);

  const auto dirty = store_->dirty_window_stats(end_s);
  snap.dirty_bytes = dirty.dirty_bytes;
  snap.peak_dirty_bytes = dirty.peak_dirty_bytes;
  snap.oldest_dirty_age_s = dirty.oldest_dirty_age_s;
  snap.bytes_at_risk_integral = dirty.bytes_at_risk_integral;
  snap.refused_drains = dirty.refused_drains;

  const auto cold = store_->cold().stats();
  snap.throttled_ops = cold.throttled_ops - last_cold_stats_.throttled_ops;
  snap.rejected_puts = cold.rejected_puts - last_cold_stats_.rejected_puts;
  snap.throttle_wait_s =
      cold.throttle_wait_s - last_cold_stats_.throttle_wait_s;
  last_cold_stats_ = cold;

  snap.active_shards = store_->tenant_shard_count(config_.tenant);
  snap.idle_usd_per_hour = surface_->idle_usd_per_hour();
  return snap;
}

ControlLoopResult ControlLoop::run(
    const std::vector<serve::ServiceRequest>& trace, double horizon_s) {
  FLSTORE_CHECK(horizon_s > 0.0);
  // The windows below slice the trace with one forward cursor, which is
  // right only for a trace sorted by arrival: an out-of-order request would
  // land in a later window and be served "in the past".
  if (!std::is_sorted(trace.begin(), trace.end(),
                      [](const serve::ServiceRequest& a,
                         const serve::ServiceRequest& b) {
                        return a.request.arrival_s < b.request.arrival_s;
                      })) {
    throw InvalidArgument("ControlLoop::run: trace is not sorted by arrival");
  }
  last_cold_stats_ = store_->cold().stats();

  ControlLoopResult result;
  const auto n_ticks = static_cast<std::size_t>(
      std::ceil(horizon_s / config_.tick_interval_s));
  std::size_t next = 0;  // trace cursor (trace sorted by arrival)
  // Each window starts exactly where the previous one ended, so every
  // arrival before the horizon falls in exactly one window.
  double start_s = 0.0;
  for (std::size_t k = 0; k < n_ticks; ++k) {
    const double end_s = std::min(
        horizon_s, static_cast<double>(k + 1) * config_.tick_interval_s);
    std::vector<serve::ServiceRequest> window;
    while (next < trace.size() &&
           trace[next].request.arrival_s < end_s) {
      window.push_back(trace[next]);
      ++next;
    }
    const auto report = store_->serve_open_loop_window(
        window, config_.round_interval_s, start_s, end_s);

    TickRecord tick;
    tick.start_s = start_s;
    tick.end_s = end_s;
    tick.completed = report.completed();
    tick.rejected = report.rejected();
    // Bill the fleet as deployed *during* the window (actuation below
    // reshapes it for the next one).
    tick.infra_usd = store_->infrastructure_cost(end_s - start_s);
    tick.snapshot = build_snapshot(report, start_s, end_s);
    if (controller_ != nullptr) {
      tick.actions = controller_->tick(tick.snapshot, *surface_);
    }

    result.completed += tick.completed;
    result.rejected += tick.rejected;
    result.infra_usd += tick.infra_usd;
    for (const auto& rec : report.records) {
      result.request_usd += rec.cost_usd;
    }
    result.records.insert(result.records.end(), report.records.begin(),
                          report.records.end());
    result.ticks.push_back(std::move(tick));
    start_s = end_s;
  }
  return result;
}

}  // namespace flstore::control
