// ControlLoop — runs the serving plane one control-tick window at a time
// and closes the loop between windows.
//
//   ┌────────────────────────────────────────────────────────────┐
//   │  window k: serve_open_loop_window([kT, (k+1)T))            │
//   │      └─ records, scheduler ledgers, SLO ring, dirty window │
//   │  build TelemetrySnapshot at (k+1)T                         │
//   │  controller.tick(snapshot, surface)   ← actions actuate    │
//   │  window k+1 runs on the re-shaped plane                    │
//   └────────────────────────────────────────────────────────────┘
//
// The plane is quiescent between windows (no run in flight), so actuation
// needs no coordination with serving. Tick-boundary approximation:
// scheduler queues and shard busy time do not carry across windows (see
// ShardedStore::serve_open_loop_window) — ticks should sit on round
// boundaries where queues drain naturally.
//
// With `controller == nullptr` the loop is monitor-only: it builds the
// same snapshots but never actuates, and the run is bit-identical to the
// unwindowed plane modulo the boundary approximation (regression-tested
// against a quiescent controller).
#pragma once

#include <cstdint>
#include <vector>

#include "control/control_surface.hpp"
#include "control/controller.hpp"
#include "control/telemetry_snapshot.hpp"
#include "obs/telemetry.hpp"
#include "serve/sharded_store.hpp"

namespace flstore::control {

struct ControlLoopConfig {
  JobId tenant = 0;              ///< the tenant under control
  double tick_interval_s = 180;  ///< control-tick window (= round interval
                                 ///< by default, so ticks sit on boundaries)
  double round_interval_s = 180;
};

/// What one tick saw and did.
struct TickRecord {
  double start_s = 0.0;
  double end_s = 0.0;
  TelemetrySnapshot snapshot;
  std::vector<Controller::Action> actions;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  /// Keep-alive bill of the fleet as deployed during this window.
  double infra_usd = 0.0;
};

struct ControlLoopResult {
  std::vector<TickRecord> ticks;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double infra_usd = 0.0;     ///< total keep-alive over the run
  double request_usd = 0.0;   ///< per-request serving cost over the run
  /// All per-request records, in the plane's canonical order (the
  /// bit-identity tests compare these).
  std::vector<serve::ServiceRecord> records;
};

class ControlLoop {
 public:
  /// All references must outlive the loop. `telemetry` must be the same
  /// bundle the store was configured with (the loop reads its SLO ring).
  /// `controller` may be nullptr (monitor-only).
  ControlLoop(serve::ShardedStore& store, obs::Telemetry& telemetry,
              ControlSurface& surface, Controller* controller,
              ControlLoopConfig config = {});

  /// Serve `trace` through ceil(horizon/tick) windows. The trace must be
  /// sorted by arrival (InvalidArgument otherwise).
  ControlLoopResult run(const std::vector<serve::ServiceRequest>& trace,
                        double horizon_s);

 private:
  TelemetrySnapshot build_snapshot(const serve::ServiceReport& report,
                                   double start_s, double end_s);

  serve::ShardedStore* store_;
  obs::Telemetry* telemetry_;
  ControlSurface* surface_;
  Controller* controller_;
  ControlLoopConfig config_;
  backend::OpStats last_cold_stats_;  ///< for per-tick deltas
};

}  // namespace flstore::control
