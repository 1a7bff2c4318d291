#include "core/capacity_planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "cloud/pricing.hpp"
#include "fed/codec.hpp"

namespace flstore::core {

namespace {

CapacityPlan finish_plan(units::Bytes total, const CapacityRequest& req) {
  FLSTORE_CHECK(req.function_memory > 0);
  FLSTORE_CHECK(req.usable_fraction > 0.0 && req.usable_fraction <= 1.0);
  CapacityPlan plan;
  plan.total_bytes = total;
  const double usable = static_cast<double>(req.function_memory) *
                        req.usable_fraction;
  plan.functions = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(total) / usable));
  if (plan.functions == 0 && total > 0) plan.functions = 1;
  // Keeping functions warm: each instance is pinged once a minute and every
  // ping bills ~100 ms of the function's memory, i.e. a 0.1/60 duty cycle
  // at the Lambda GB-second rate. For the §4.4 example (10098 functions of
  // 10 GB) this reproduces the paper's "$10.2 per hour".
  constexpr double kPingDutyCycle = 0.1 / 60.0;
  const auto& pricing = PricingCatalog::aws();
  plan.keepalive_usd_per_hour =
      static_cast<double>(plan.functions) *
      units::to_gb(req.function_memory) * pricing.lambda_usd_per_gb_second *
      3600.0 * kPingDutyCycle;
  return plan;
}

}  // namespace

CapacityPlan plan_full_cache(const CapacityRequest& req) {
  FLSTORE_CHECK(req.model != nullptr);
  FLSTORE_CHECK(req.clients_per_round > 0);
  FLSTORE_CHECK(req.rounds > 0);
  const auto per_round =
      fed::round_logical_bytes(req.model->object_bytes, req.clients_per_round);
  return finish_plan(per_round * static_cast<units::Bytes>(req.rounds), req);
}

CapacityPlan plan_tailored_cache(const CapacityRequest& req,
                                 int metadata_window) {
  FLSTORE_CHECK(req.model != nullptr);
  FLSTORE_CHECK(metadata_window >= 1);
  const auto updates = 2ULL * static_cast<units::Bytes>(req.clients_per_round) *
                       req.model->object_bytes;
  const auto aggregates = 2ULL * req.model->object_bytes;
  const auto metadata =
      static_cast<units::Bytes>(metadata_window) *
      (static_cast<units::Bytes>(req.clients_per_round) *
           fed::kMetricsLogicalBytes +
       fed::kRoundInfoLogicalBytes);
  return finish_plan(updates + aggregates + metadata, req);
}

ServingPlan plan_serving(const ServingPlanRequest& req) {
  FLSTORE_CHECK(req.offered_qps >= 0.0);
  FLSTORE_CHECK(req.per_request_service_s >= 0.0);
  FLSTORE_CHECK(req.target_utilization > 0.0 && req.target_utilization <= 1.0);
  ServingPlan plan;
  const double demand = req.offered_qps * req.per_request_service_s;
  plan.shards = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(demand / req.target_utilization)));
  plan.utilization = demand / static_cast<double>(plan.shards);
  return plan;
}

}  // namespace flstore::core
