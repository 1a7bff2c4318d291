// The two runners agree: sim::run_trace over an FLStore and
// ShardedStore::replay over a one-tenant, one-shard plane (no worker
// threads, no coalescing) serve the same trace with the same records.
// Each side has its own bucket. A third of the arrivals sit exactly on a
// round boundary, so the same-instant ingest-before-request order is
// exercised on both sides; the capped caches push misses to the cold tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "fed/trace.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"
#include "sim/runner.hpp"

namespace flstore {
namespace {

constexpr double kIntervalS = 50.0;

struct Policy {
  const char* name;
  core::PolicyMode mode;
  int cached_objects;  ///< cache capacity in model objects; 0 = default
};

const Policy kPolicies[] = {
    {"tailored", core::PolicyMode::kTailored, 0},
    {"random", core::PolicyMode::kTailoredRandom, 0},
    {"static", core::PolicyMode::kTailoredStatic, 0},
    {"lru", core::PolicyMode::kLru, 0},
    {"fifo", core::PolicyMode::kFifo, 0},
    {"tailored_capped", core::PolicyMode::kTailored, 6},
    {"lru_capped", core::PolicyMode::kLru, 6},
};

// Names the case in the test listing (the default prints raw bytes).
void PrintTo(const Policy& policy, std::ostream* os) { *os << policy.name; }

using Case = std::tuple<std::string, Policy>;

class RunnersAgree : public ::testing::TestWithParam<Case> {};

TEST_P(RunnersAgree, RunTraceMatchesShardedReplay) {
  const auto& [model, policy] = GetParam();
  fed::FLJobConfig job_cfg;
  job_cfg.model = model;
  job_cfg.pool_size = 24;
  job_cfg.clients_per_round = 4;
  job_cfg.rounds = 30;
  job_cfg.seed = 5;
  const fed::FLJob job(job_cfg);

  fed::TraceConfig tc;
  tc.duration_s = 30 * kIntervalS;
  tc.total_requests = 60;
  tc.round_interval_s = kIntervalS;
  tc.seed = 17;
  auto trace = fed::generate_trace(tc, job);
  for (std::size_t i = 0; i < trace.size(); i += 3) {
    trace[i].arrival_s =
        std::floor(trace[i].arrival_s / kIntervalS) * kIntervalS;
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  const double horizon = trace.back().arrival_s;

  core::FLStoreConfig cfg;
  cfg.policy.mode = policy.mode;
  cfg.cache_capacity =
      static_cast<units::Bytes>(policy.cached_objects) *
      job.model().object_bytes;

  backend::ObjectStoreBackend run_cold(sim::objstore_link(),
                                       PricingCatalog::aws());
  core::FLStore fl(cfg, job, run_cold);
  auto run =
      sim::run_trace({&fl}, job, trace, horizon, kIntervalS).front().records;
  std::sort(run.begin(), run.end(), [](const auto& a, const auto& b) {
    if (a.request.arrival_s != b.request.arrival_s) {
      return a.request.arrival_s < b.request.arrival_s;
    }
    return a.request.id < b.request.id;
  });

  backend::ObjectStoreBackend plane_cold(sim::objstore_link(),
                                         PricingCatalog::aws());
  serve::ShardedStoreConfig plane_cfg;
  plane_cfg.worker_threads = 0;
  plane_cfg.coalesce_cold_fetches = false;
  serve::ShardedStore plane(plane_cold, plane_cfg);
  const auto tenant = plane.add_tenant(job, cfg, 1);
  std::vector<serve::ServiceRequest> requests;
  for (const auto& req : trace) requests.push_back({tenant, req});
  const auto replayed = plane.replay(requests, kIntervalS).records;

  ASSERT_EQ(run.size(), trace.size());
  ASSERT_EQ(replayed.size(), run.size());
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < run.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(replayed[i].request.id, run[i].request.id);
    EXPECT_EQ(replayed[i].comm_s, run[i].comm_s);
    EXPECT_EQ(replayed[i].comp_s, run[i].comp_s);
    EXPECT_EQ(replayed[i].cost_usd, run[i].cost_usd);
    EXPECT_EQ(replayed[i].hits, run[i].hits);
    EXPECT_EQ(replayed[i].misses, run[i].misses);
    misses += run[i].misses;
  }
  // The cold tier served part of the trace, so its path is compared too.
  EXPECT_GT(misses, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsByPolicy, RunnersAgree,
    ::testing::Combine(::testing::Values("resnet18", "mobilenet_v3_small",
                                         "efficientnet_v2_s"),
                       ::testing::ValuesIn(kPolicies)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace flstore
