// Controller — the closed loop over the serving plane's capacity knobs.
//
// Each control tick the loop hands it one TelemetrySnapshot; the
// controller compares the signals against its thresholds and issues
// actions through the ControlSurface:
//
//   signal                          action
//   ------------------------------  ---------------------------------------
//   dirty bytes / dirty age spike   swap in the aggressive flush policy
//                                   (shed the bytes-at-risk), restore the
//                                   base policy once exposure subsides
//   throttle wait dominates a tick  raise the cold tier's token-bucket rate
//                                   (bounded), decay back when calm
//   fast-window SLO burn >= high    scale out toward the fleet
//                                   core::plan_serving sizes for the
//                                   offered load (cooldown-gated)
//   sustained calm + fleet > need   scale in one shard per tick toward that
//                                   fleet — the idle-cost win
//   burn >= critical                tighten scheduler admission (shrink
//                                   class queues), relax when burn recovers
//   every Nth tick                  re-split per-class cache budgets from
//                                   observed hit rates (epsilon-greedy
//                                   selector's deterministic suggestion)
//
// Determinism: tick() is a pure function of (snapshot, internal state).
// It never reads clocks or randomness — identical snapshot sequences
// produce identical action sequences (regression-tested), and a controller
// whose thresholds are never crossed leaves the plane bit-identical to no
// controller at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "backend/flush_scheduler.hpp"
#include "backend/storage_backend.hpp"
#include "common/units.hpp"
#include "control/control_surface.hpp"
#include "control/telemetry_snapshot.hpp"
#include "core/adaptive_policy.hpp"
#include "obs/metrics.hpp"

namespace flstore::control {

struct ControllerConfig {
  // Scaling thresholds (fast/slow-window SLO burn rates).
  double burn_high = 2.0;  ///< fast burn at/above: scale out
  double burn_low = 0.5;   ///< both burns at/below: calm tick (scale-in)
  int scale_cooldown_ticks = 1;  ///< ticks between scale actions
  int scale_in_quiet_ticks = 2;  ///< consecutive calm ticks before scale-in
  int min_shards = 1;
  int max_shards = 8;

  // Admission control.
  double admission_burn_critical = 8.0;  ///< tighten at/above
  double admission_relax_burn = 1.0;     ///< relax at/below (when tight)
  double admission_tighten_factor = 0.25;  ///< queue-limit multiplier
  std::size_t admission_floor = 16;        ///< never shrink queues below

  // Write shedding on durability exposure.
  units::Bytes shed_dirty_bytes = 512 * units::MB;  ///< shed at/above
  /// Restore the base policy once dirty bytes fall to this fraction of the
  /// shed threshold (hysteresis).
  double shed_restore_fraction = 0.25;
  double shed_max_dirty_age_s = 60.0;  ///< the shed policy's age bound

  // Throttle retuning.
  double throttle_wait_high_s = 1.0;   ///< per-tick added wait: raise rate
  double throttle_raise_factor = 1.5;  ///< multiplicative raise
  double throttle_max_factor = 8.0;    ///< cap relative to the base rate
  int throttle_calm_ticks = 2;  ///< waitless ticks before decaying back

  // Cache budget re-splitting. 0 disables the rebalancer.
  int rebalance_every_ticks = 0;
  units::Bytes rebalance_floor_bytes = 0;  ///< per-class floor
  core::AdaptivePolicySelector::Config selector;
};

class Controller {
 public:
  struct Action {
    enum class Kind : std::uint8_t {
      kScaleOut,
      kScaleIn,
      kRetuneThrottle,
      kShedWrites,
      kRestoreWrites,
      kTightenAdmission,
      kRelaxAdmission,
      kRebalanceBudgets,
    };
    Kind kind = Kind::kScaleOut;
    double at_s = 0.0;
    double value = 0.0;  ///< target shards / new rate / new queue limit
    std::string detail;
  };

  /// `metrics` is optional (nullptr = no control_* series) and used only
  /// for bookkeeping — it never feeds back into decisions.
  explicit Controller(ControllerConfig config,
                      obs::MetricsRegistry* metrics = nullptr);

  /// One control tick: read the snapshot, actuate through `surface`,
  /// return what was done (empty when the plane is where it should be).
  /// The first tick captures the surface's current flush policy, scheduler
  /// config, and throttle as the "base" state that shed/tighten/raise
  /// actions later restore.
  std::vector<Action> tick(const TelemetrySnapshot& snap,
                           ControlSurface& surface);

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }

 private:
  void capture_base(const ControlSurface& surface);
  void book(const Action& action);

  ControllerConfig config_;
  obs::MetricsRegistry* metrics_;
  core::AdaptivePolicySelector selector_;

  std::uint64_t ticks_ = 0;
  // Base state captured on the first tick (what restore actions return to).
  bool base_captured_ = false;
  backend::FlushPolicy base_flush_;
  serve::SchedulerConfig base_sched_;
  backend::Throttle::Config base_throttle_;

  std::int64_t last_scale_tick_ = -1;  ///< tick index of the last scale
  int quiet_ticks_ = 0;                ///< consecutive calm ticks
  bool shedding_ = false;              ///< aggressive flush policy active
  bool tightened_ = false;             ///< admission currently tightened
  int throttle_calm_ = 0;              ///< waitless ticks since last raise
  bool throttle_raised_ = false;
  std::optional<std::array<units::Bytes, fed::kPolicyClassCount>>
      last_budgets_;
};

[[nodiscard]] constexpr const char* to_string(
    Controller::Action::Kind kind) noexcept {
  switch (kind) {
    case Controller::Action::Kind::kScaleOut: return "scale-out";
    case Controller::Action::Kind::kScaleIn: return "scale-in";
    case Controller::Action::Kind::kRetuneThrottle: return "retune-throttle";
    case Controller::Action::Kind::kShedWrites: return "shed-writes";
    case Controller::Action::Kind::kRestoreWrites: return "restore-writes";
    case Controller::Action::Kind::kTightenAdmission:
      return "tighten-admission";
    case Controller::Action::Kind::kRelaxAdmission: return "relax-admission";
    case Controller::Action::Kind::kRebalanceBudgets:
      return "rebalance-budgets";
  }
  return "?";
}

}  // namespace flstore::control
