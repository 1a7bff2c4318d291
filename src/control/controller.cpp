#include "control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "core/capacity_planner.hpp"

namespace flstore::control {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Controller::Controller(ControllerConfig config, obs::MetricsRegistry* metrics)
    : config_(config),
      metrics_(metrics),
      selector_(config.selector) {
  FLSTORE_CHECK(config_.min_shards >= 1);
  FLSTORE_CHECK(config_.max_shards >= config_.min_shards);
  FLSTORE_CHECK(config_.burn_high > config_.burn_low);
  FLSTORE_CHECK(config_.shed_restore_fraction > 0.0 &&
                config_.shed_restore_fraction < 1.0);
  FLSTORE_CHECK(config_.throttle_raise_factor > 1.0);
  FLSTORE_CHECK(config_.admission_tighten_factor > 0.0 &&
                config_.admission_tighten_factor < 1.0);
}

void Controller::capture_base(const ControlSurface& surface) {
  if (base_captured_) return;
  base_flush_ = surface.flush_policy();
  base_sched_ = surface.scheduler_config();
  base_throttle_ = surface.throttle();
  base_captured_ = true;
}

void Controller::book(const Action& action) {
  if (metrics_ == nullptr) return;
  metrics_->counter("control_actions_total", {{"action", to_string(action.kind)}})
      .add();
}

std::vector<Controller::Action> Controller::tick(const TelemetrySnapshot& snap,
                                                 ControlSurface& surface) {
  ++ticks_;
  capture_base(surface);
  std::vector<Action> actions;
  const auto act = [&](Action::Kind kind, double value, std::string detail) {
    Action a;
    a.kind = kind;
    a.at_s = snap.now_s;
    a.value = value;
    a.detail = std::move(detail);
    book(a);
    actions.push_back(std::move(a));
  };

  const double burn_fast = snap.max_burn_fast();
  const double burn_slow = snap.max_burn_slow();

  // 1. Durability: shed bytes-at-risk by flushing aggressively, with
  // hysteresis so the policy does not flap around the threshold.
  if (!shedding_ && config_.shed_dirty_bytes > 0 &&
      snap.dirty_bytes >= config_.shed_dirty_bytes) {
    auto shed = base_flush_;
    shed.max_dirty_bytes = std::max<units::Bytes>(
        1, config_.shed_dirty_bytes / 2);
    shed.max_dirty_age_s =
        shed.max_dirty_age_s > 0.0
            ? std::min(shed.max_dirty_age_s, config_.shed_max_dirty_age_s)
            : config_.shed_max_dirty_age_s;
    surface.set_flush_policy(snap.now_s, shed);
    shedding_ = true;
    act(Action::Kind::kShedWrites,
        static_cast<double>(snap.dirty_bytes),
        "dirty " + format_double(static_cast<double>(snap.dirty_bytes)) +
            " B >= " +
            format_double(static_cast<double>(config_.shed_dirty_bytes)));
  } else if (shedding_ &&
             static_cast<double>(snap.dirty_bytes) <=
                 static_cast<double>(config_.shed_dirty_bytes) *
                     config_.shed_restore_fraction) {
    surface.set_flush_policy(snap.now_s, base_flush_);
    shedding_ = false;
    act(Action::Kind::kRestoreWrites, static_cast<double>(snap.dirty_bytes),
        "exposure subsided");
  }

  // 2. Cold-tier throttle: when the token bucket added real wait this tick,
  // raise its rate (the provisioned-IOPS knob); decay back to base after a
  // calm stretch so a transient burst does not leave the rate pinned high.
  const auto throttle = surface.throttle();
  if (throttle.ops_per_s > 0.0 && base_throttle_.ops_per_s > 0.0) {
    if (snap.throttle_wait_s >= config_.throttle_wait_high_s) {
      const double cap =
          base_throttle_.ops_per_s * config_.throttle_max_factor;
      const double raised =
          std::min(cap, throttle.ops_per_s * config_.throttle_raise_factor);
      if (raised > throttle.ops_per_s) {
        auto cfg = throttle;
        cfg.ops_per_s = raised;
        cfg.burst_ops = base_throttle_.burst_ops *
                        (raised / base_throttle_.ops_per_s);
        surface.set_throttle(cfg, snap.now_s);
        throttle_raised_ = true;
        act(Action::Kind::kRetuneThrottle, raised,
            "wait " + format_double(snap.throttle_wait_s) + " s/tick");
      }
      throttle_calm_ = 0;
    } else if (throttle_raised_) {
      if (++throttle_calm_ >= config_.throttle_calm_ticks) {
        surface.set_throttle(base_throttle_, snap.now_s);
        throttle_raised_ = false;
        throttle_calm_ = 0;
        act(Action::Kind::kRetuneThrottle, base_throttle_.ops_per_s,
            "calm; restore base rate");
      }
    }
  }

  // 3. Elastic shard fleet: scale out toward the fleet the load needs
  // under burn, scale in one shard at a time after a sustained calm
  // stretch — never below that fleet.
  const int shards = surface.shard_count();
  const auto plan = core::plan_serving(
      {.offered_qps = snap.offered_qps,
       .per_request_service_s = snap.mean_service_s});
  const int needed = static_cast<int>(std::clamp<std::int64_t>(
      plan.shards, config_.min_shards, config_.max_shards));
  const bool cooled =
      last_scale_tick_ < 0 ||
      static_cast<std::int64_t>(ticks_) - last_scale_tick_ >
          config_.scale_cooldown_ticks;
  const bool calm = burn_fast <= config_.burn_low &&
                    burn_slow <= config_.burn_low;
  if (burn_fast >= config_.burn_high) {
    quiet_ticks_ = 0;
    if (cooled && shards < config_.max_shards) {
      const int target =
          std::clamp(std::max(needed, shards + 1), config_.min_shards,
                     config_.max_shards);
      if (target > shards) {
        surface.set_shard_count(target, snap.now_s);
        last_scale_tick_ = static_cast<std::int64_t>(ticks_);
        act(Action::Kind::kScaleOut, target,
            "burn " + format_double(burn_fast) + " >= " +
                format_double(config_.burn_high));
      }
    }
  } else if (calm) {
    ++quiet_ticks_;
    if (cooled && quiet_ticks_ >= config_.scale_in_quiet_ticks &&
        shards > std::max(needed, config_.min_shards)) {
      const int target = shards - 1;  // one step per tick: easy to reverse
      surface.set_shard_count(target, snap.now_s);
      last_scale_tick_ = static_cast<std::int64_t>(ticks_);
      act(Action::Kind::kScaleIn, target,
          "calm x" + std::to_string(quiet_ticks_) + ", load needs " +
              std::to_string(needed));
    }
  } else {
    quiet_ticks_ = 0;
  }

  // 4. Admission: under critical burn the queues themselves are the harm
  // (every queued request will miss its SLO anyway) — shrink the per-class
  // limits so the scheduler sheds early; restore once burn recovers.
  if (!tightened_ && burn_fast >= config_.admission_burn_critical &&
      base_sched_.class_queue_limit > 0) {
    auto sched = base_sched_;
    sched.class_queue_limit = std::max<std::size_t>(
        config_.admission_floor,
        static_cast<std::size_t>(
            static_cast<double>(base_sched_.class_queue_limit) *
            config_.admission_tighten_factor));
    surface.set_scheduler_config(sched);
    tightened_ = true;
    act(Action::Kind::kTightenAdmission,
        static_cast<double>(sched.class_queue_limit),
        "burn " + format_double(burn_fast));
  } else if (tightened_ && burn_fast <= config_.admission_relax_burn) {
    surface.set_scheduler_config(base_sched_);
    tightened_ = false;
    act(Action::Kind::kRelaxAdmission,
        static_cast<double>(base_sched_.class_queue_limit), "burn recovered");
  }

  // 5. Cache budgets: feed the tick's per-class hit rates to the selector
  // and periodically re-split the total budget by its deterministic
  // suggestion. Only classes that saw traffic report (an idle class's
  // stale hit rate is not evidence).
  if (config_.rebalance_every_ticks > 0) {
    units::Bytes total = 0;
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      const auto& sig = snap.classes[c];
      total += sig.budget_bytes;
      if (sig.admitted > 0 || sig.window_requests > 0) {
        selector_.report(static_cast<fed::PolicyClass>(c), sig.hit_rate);
      }
    }
    if (total > 0 &&
        ticks_ % static_cast<std::uint64_t>(config_.rebalance_every_ticks) ==
            0) {
      const auto budgets =
          selector_.suggest_budgets(total, config_.rebalance_floor_bytes);
      if (!last_budgets_.has_value() || *last_budgets_ != budgets) {
        surface.set_class_budgets(budgets, snap.now_s);
        last_budgets_ = budgets;
        act(Action::Kind::kRebalanceBudgets, static_cast<double>(total),
            "re-split " + format_double(static_cast<double>(total)) + " B");
      }
    }
  }

  if (metrics_ != nullptr) {
    metrics_->counter("control_ticks_total").add();
    metrics_->gauge("control_shards").set(
        static_cast<double>(surface.shard_count()));
    metrics_->gauge("control_burn_fast").set(burn_fast);
    metrics_->gauge("control_idle_usd_per_hour")
        .set(surface.idle_usd_per_hour());
  }
  return actions;
}

}  // namespace flstore::control
