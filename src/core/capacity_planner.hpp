// Capacity planning arithmetic from §4.4: what it takes to cache *all* FL
// metadata in serverless functions versus what the tailored policies keep.
//
// Paper example: 1000 clients x 1000 rounds of EfficientNet => ~79 TB over
// ~10k Lambda functions; with tailored policies, ~1.2 GB on 2 functions.
#pragma once

#include "common/units.hpp"
#include "models/model_zoo.hpp"

namespace flstore::core {

struct CapacityPlan {
  units::Bytes total_bytes = 0;     ///< metadata footprint to hold
  std::int64_t functions = 0;       ///< function instances needed
  double keepalive_usd_per_hour = 0.0;  ///< cost to keep them warm
};

struct CapacityRequest {
  const ModelSpec* model = nullptr;
  std::int64_t clients_per_round = 10;
  std::int64_t rounds = 1000;
  units::Bytes function_memory = 10 * units::GB;  ///< Lambda ceiling
  /// Fraction of function memory usable for cache payload (runtime + buffers
  /// take the rest).
  double usable_fraction = 0.78;
};

/// Plan for caching every round's updates (the naive all-metadata cache).
[[nodiscard]] CapacityPlan plan_full_cache(const CapacityRequest& req);

/// Plan for the tailored working set: the latest two rounds of updates,
/// the newest aggregate, and the R-round metadata window.
[[nodiscard]] CapacityPlan plan_tailored_cache(const CapacityRequest& req,
                                               int metadata_window = 10);

/// Serving-capacity arithmetic for the control plane's controller: how
/// many single-server cache shards an observed arrival rate needs. Pure
/// M/M/c-style provisioning — demand is offered_qps × service time, and
/// shards are sized so each runs at or below target_utilization (the
/// headroom that keeps queueing tails bounded).
struct ServingPlanRequest {
  double offered_qps = 0.0;           ///< observed arrival rate
  double per_request_service_s = 0.0; ///< observed mean comm+comp per request
  double target_utilization = 0.7;    ///< per-shard busy fraction to plan for
};

struct ServingPlan {
  std::int64_t shards = 1;    ///< serving shards needed (>= 1)
  double utilization = 0.0;   ///< per-shard busy fraction at that count
};

[[nodiscard]] ServingPlan plan_serving(const ServingPlanRequest& req);

}  // namespace flstore::core
