// Controller decision logic against a recording fake surface: determinism
// (identical snapshot sequences → identical action sequences; a quiescent
// controller touches nothing), scale-out under burn / scale-in after calm,
// shed/restore on durability exposure, throttle raise-cap-decay, and
// admission tighten/relax.
#include "control/controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flstore::control {
namespace {

using backend::Throttle;
using units::MB;

/// Records every setter call; getters reflect the last set.
class FakeSurface final : public ControlSurface {
 public:
  [[nodiscard]] int shard_count() const override { return shards_; }
  int set_shard_count(int target, double now) override {
    (void)now;
    shards_ = std::max(1, target);
    calls.push_back("shards=" + std::to_string(shards_));
    return shards_;
  }

  void set_class_budgets(
      const std::array<units::Bytes, fed::kPolicyClassCount>& budgets,
      double now) override {
    (void)now;
    budgets_ = budgets;
    calls.push_back("budgets");
  }

  [[nodiscard]] Throttle::Config throttle() const override {
    return throttle_;
  }
  bool set_throttle(const Throttle::Config& config, double now) override {
    (void)now;
    throttle_ = config;
    calls.push_back("throttle=" + std::to_string(config.ops_per_s));
    return true;
  }

  [[nodiscard]] backend::FlushPolicy flush_policy() const override {
    return flush_;
  }
  void set_flush_policy(double now,
                        const backend::FlushPolicy& policy) override {
    (void)now;
    flush_ = policy;
    calls.push_back("flush");
  }

  [[nodiscard]] serve::SchedulerConfig scheduler_config() const override {
    return sched_;
  }
  void set_scheduler_config(const serve::SchedulerConfig& config) override {
    sched_ = config;
    calls.push_back("sched=" + std::to_string(config.class_queue_limit));
  }

  [[nodiscard]] double idle_usd_per_hour() const override {
    return 0.1 * shards_;
  }

  std::vector<std::string> calls;
  int shards_ = 1;
  Throttle::Config throttle_{};
  backend::FlushPolicy flush_{};
  serve::SchedulerConfig sched_{};
  std::array<units::Bytes, fed::kPolicyClassCount> budgets_{};
};

/// A snapshot where one class saw traffic at the given fast burn.
TelemetrySnapshot snap_with_burn(double now, double burn_fast,
                                 double burn_slow = 0.0) {
  TelemetrySnapshot snap;
  snap.now_s = now;
  snap.tick_interval_s = 60.0;
  snap.classes[0].window_requests = 100;
  snap.classes[0].burn_rate_fast = burn_fast;
  snap.classes[0].burn_rate_slow = burn_slow;
  snap.completed = 100;
  snap.offered_qps = 100.0 / 60.0;
  snap.mean_service_s = 0.05;
  snap.active_shards = 1;
  return snap;
}

TEST(Controller, QuiescentSnapshotTouchesNothing) {
  Controller controller(ControllerConfig{});
  FakeSurface surface;
  for (int k = 0; k < 10; ++k) {
    const auto actions =
        controller.tick(snap_with_burn(60.0 * (k + 1), 0.0), surface);
    EXPECT_TRUE(actions.empty());
  }
  EXPECT_TRUE(surface.calls.empty());
}

TEST(Controller, IdenticalSnapshotsProduceIdenticalActions) {
  // A sequence that exercises every branch: overload, durability spike,
  // throttle pressure, calm. Two independent controllers must agree on
  // every action, field for field.
  std::vector<TelemetrySnapshot> sequence;
  for (int k = 0; k < 12; ++k) {
    const double now = 60.0 * (k + 1);
    auto snap = snap_with_burn(now, k < 3 ? 10.0 : 0.0);
    if (k == 4) snap.dirty_bytes = 2000 * MB;
    if (k == 6) snap.dirty_bytes = 10 * MB;
    if (k == 5) snap.throttle_wait_s = 5.0;
    sequence.push_back(snap);
  }

  ControllerConfig cfg;
  cfg.rebalance_every_ticks = 2;
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    for (auto& snap : sequence) {
      snap.classes[c].budget_bytes = 100 * MB;
      snap.classes[c].hit_rate = 0.1 + 0.2 * static_cast<double>(c);
      snap.classes[c].window_requests = 10;
    }
  }

  Controller a(cfg);
  Controller b(cfg);
  FakeSurface sa;
  FakeSurface sb;
  sa.throttle_ = sb.throttle_ = Throttle::Config{100.0, 32.0};

  for (const auto& snap : sequence) {
    const auto actions_a = a.tick(snap, sa);
    const auto actions_b = b.tick(snap, sb);
    ASSERT_EQ(actions_a.size(), actions_b.size());
    for (std::size_t i = 0; i < actions_a.size(); ++i) {
      EXPECT_EQ(actions_a[i].kind, actions_b[i].kind);
      EXPECT_DOUBLE_EQ(actions_a[i].at_s, actions_b[i].at_s);
      EXPECT_DOUBLE_EQ(actions_a[i].value, actions_b[i].value);
      EXPECT_EQ(actions_a[i].detail, actions_b[i].detail);
    }
  }
  EXPECT_EQ(sa.calls, sb.calls);
  EXPECT_EQ(sa.shards_, sb.shards_);
}

TEST(Controller, ScalesOutUnderBurnAndBackInAfterCalm) {
  ControllerConfig cfg;
  cfg.scale_cooldown_ticks = 0;  // every tick is eligible
  cfg.scale_in_quiet_ticks = 2;
  Controller controller(cfg);
  FakeSurface surface;

  // Overload: burn 5 (above burn_high, below admission-critical) with
  // offered load that plans at 3 shards (2 qps x 1 s / 0.7).
  auto hot = snap_with_burn(60.0, 5.0);
  hot.offered_qps = 2.0;
  hot.mean_service_s = 1.0;
  auto actions = controller.tick(hot, surface);
  ASSERT_EQ(actions.size(), 1U);
  EXPECT_EQ(actions[0].kind, Controller::Action::Kind::kScaleOut);
  EXPECT_EQ(surface.shard_count(), 3);

  // Calm at negligible load: after two quiet ticks the fleet shrinks one
  // shard per tick back to the minimum.
  int scale_ins = 0;
  for (int k = 0; k < 6; ++k) {
    auto calm = snap_with_burn(120.0 + 60.0 * k, 0.0);
    calm.offered_qps = 0.01;
    calm.mean_service_s = 0.01;
    for (const auto& action : controller.tick(calm, surface)) {
      EXPECT_EQ(action.kind, Controller::Action::Kind::kScaleIn);
      ++scale_ins;
    }
  }
  EXPECT_EQ(scale_ins, 2);
  EXPECT_EQ(surface.shard_count(), 1);
}

TEST(Controller, ShedsWritesOnDirtySpikeAndRestoresWithHysteresis) {
  ControllerConfig cfg;
  cfg.shed_dirty_bytes = 100 * MB;
  cfg.shed_restore_fraction = 0.25;
  cfg.shed_max_dirty_age_s = 60.0;
  Controller controller(cfg);
  FakeSurface surface;
  surface.flush_.flush_on_round_boundary = false;
  surface.flush_.max_dirty_age_s = 600.0;
  const auto base = surface.flush_;

  auto spike = snap_with_burn(60.0, 0.0);
  spike.dirty_bytes = 150 * MB;
  auto actions = controller.tick(spike, surface);
  ASSERT_EQ(actions.size(), 1U);
  EXPECT_EQ(actions[0].kind, Controller::Action::Kind::kShedWrites);
  EXPECT_EQ(surface.flush_.max_dirty_bytes, 50 * MB);
  EXPECT_DOUBLE_EQ(surface.flush_.max_dirty_age_s, 60.0);

  // Still above the restore line: no flapping.
  auto mid = snap_with_burn(120.0, 0.0);
  mid.dirty_bytes = 60 * MB;
  EXPECT_TRUE(controller.tick(mid, surface).empty());

  auto low = snap_with_burn(180.0, 0.0);
  low.dirty_bytes = 20 * MB;
  actions = controller.tick(low, surface);
  ASSERT_EQ(actions.size(), 1U);
  EXPECT_EQ(actions[0].kind, Controller::Action::Kind::kRestoreWrites);
  EXPECT_EQ(surface.flush_.max_dirty_bytes, base.max_dirty_bytes);
  EXPECT_DOUBLE_EQ(surface.flush_.max_dirty_age_s, base.max_dirty_age_s);
}

TEST(Controller, RaisesThrottleBoundedThenDecaysToBase) {
  ControllerConfig cfg;
  cfg.throttle_wait_high_s = 1.0;
  cfg.throttle_raise_factor = 2.0;
  cfg.throttle_max_factor = 4.0;
  cfg.throttle_calm_ticks = 2;
  Controller controller(cfg);
  FakeSurface surface;
  surface.throttle_ = Throttle::Config{100.0, 10.0};

  // Three pressured ticks: 200, 400, capped at 400 (4x base).
  for (int k = 0; k < 3; ++k) {
    auto snap = snap_with_burn(60.0 * (k + 1), 0.0);
    snap.throttle_wait_s = 3.0;
    (void)controller.tick(snap, surface);
  }
  EXPECT_DOUBLE_EQ(surface.throttle_.ops_per_s, 400.0);
  EXPECT_DOUBLE_EQ(surface.throttle_.burst_ops, 40.0);  // scaled with rate

  // One calm tick is not enough; the second restores the base rate.
  (void)controller.tick(snap_with_burn(240.0, 0.0), surface);
  EXPECT_DOUBLE_EQ(surface.throttle_.ops_per_s, 400.0);
  (void)controller.tick(snap_with_burn(300.0, 0.0), surface);
  EXPECT_DOUBLE_EQ(surface.throttle_.ops_per_s, 100.0);
  EXPECT_DOUBLE_EQ(surface.throttle_.burst_ops, 10.0);
}

TEST(Controller, TightensAdmissionUnderCriticalBurnAndRelaxes) {
  ControllerConfig cfg;
  cfg.admission_burn_critical = 8.0;
  cfg.admission_tighten_factor = 0.25;
  cfg.admission_floor = 16;
  cfg.max_shards = 1;  // isolate the admission branch from scaling
  Controller controller(cfg);
  FakeSurface surface;
  surface.sched_.class_queue_limit = 1024;

  auto critical = snap_with_burn(60.0, 20.0);
  auto actions = controller.tick(critical, surface);
  ASSERT_EQ(actions.size(), 1U);
  EXPECT_EQ(actions[0].kind, Controller::Action::Kind::kTightenAdmission);
  EXPECT_EQ(surface.sched_.class_queue_limit, 256U);

  // Burn above the relax line keeps the clamp on.
  EXPECT_TRUE(controller.tick(snap_with_burn(120.0, 1.5), surface).empty());

  actions = controller.tick(snap_with_burn(180.0, 0.5), surface);
  ASSERT_EQ(actions.size(), 1U);
  EXPECT_EQ(actions[0].kind, Controller::Action::Kind::kRelaxAdmission);
  EXPECT_EQ(surface.sched_.class_queue_limit, 1024U);
}

TEST(Controller, AdmissionFloorHolds) {
  ControllerConfig cfg;
  cfg.admission_floor = 64;
  cfg.admission_tighten_factor = 0.25;
  cfg.max_shards = 1;
  Controller controller(cfg);
  FakeSurface surface;
  surface.sched_.class_queue_limit = 100;  // 25% would be 25 < floor

  (void)controller.tick(snap_with_burn(60.0, 20.0), surface);
  EXPECT_EQ(surface.sched_.class_queue_limit, 64U);
}

TEST(Controller, RebalanceOnlyActuatesWhenTheSplitChanges) {
  ControllerConfig cfg;
  cfg.rebalance_every_ticks = 1;
  Controller controller(cfg);
  FakeSurface surface;

  auto snap = snap_with_burn(60.0, 0.0);
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    snap.classes[c].budget_bytes = 100 * MB;
    snap.classes[c].hit_rate = c == 0 ? 0.9 : 0.1;
    snap.classes[c].window_requests = 10;
  }
  const auto first = controller.tick(snap, surface);
  ASSERT_EQ(first.size(), 1U);
  EXPECT_EQ(first[0].kind, Controller::Action::Kind::kRebalanceBudgets);
  units::Bytes total = 0;
  for (const auto b : surface.budgets_) total += b;
  EXPECT_EQ(total, 400 * MB);

  // Same evidence, same suggestion: idempotent, no second actuation.
  snap.now_s = 120.0;
  EXPECT_TRUE(controller.tick(snap, surface).empty());
}

}  // namespace
}  // namespace flstore::control
