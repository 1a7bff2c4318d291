#include "baselines/aggregator_baseline.hpp"

#include <gtest/gtest.h>

#include "backend/object_store_backend.hpp"
#include "common/error.hpp"
#include "sim/calibration.hpp"

namespace flstore::baselines {
namespace {

struct BaselineFixture : ::testing::Test {
  BaselineFixture()
      : job(job_config()),
        store(sim::objstore_link(), PricingCatalog::aws()) {}

  static fed::FLJobConfig job_config() {
    fed::FLJobConfig cfg;
    cfg.model = "resnet18";
    cfg.pool_size = 40;
    cfg.clients_per_round = 8;
    cfg.rounds = 30;
    cfg.seed = 21;
    return cfg;
  }

  ObjStoreAggregator make_objstore_agg() {
    return ObjStoreAggregator(sim::vm_profile(), job, store);
  }

  CacheAggregator make_cache_agg() {
    return CacheAggregator(sim::vm_profile(), job, store,
                           job_metadata_footprint(job),
                           sim::cloudcache_link());
  }

  static fed::NonTrainingRequest request(RequestId id, fed::WorkloadType t,
                                         RoundId r) {
    fed::NonTrainingRequest req;
    req.id = id;
    req.type = t;
    req.round = r;
    return req;
  }

  fed::FLJob job;
  backend::ObjectStoreBackend store;
};

TEST_F(BaselineFixture, ObjStoreServeIsCommunicationBound) {
  auto agg = make_objstore_agg();
  for (RoundId r = 0; r < 5; ++r) agg.ingest_round(job.make_round(r), 0.0);
  const auto res =
      agg.serve(request(1, fed::WorkloadType::kCosineSimilarity, 4), 100.0);
  // §2.3: communication dominates computation by an order of magnitude+.
  EXPECT_GT(res.comm_s, res.comp_s * 10.0);
  EXPECT_GT(res.comm_s, 40.0);  // 8 x ~44.7 MiB at 8 MB/s
  EXPECT_GT(res.cost_usd, 0.0);
  EXPECT_FALSE(res.output.summary.empty());
}

TEST_F(BaselineFixture, ServeUnknownRoundThrows) {
  auto agg = make_objstore_agg();
  EXPECT_THROW(
      (void)agg.serve(request(1, fed::WorkloadType::kClustering, 0), 0.0),
      NotFound);
}

TEST_F(BaselineFixture, CacheAggFasterThanObjStoreAgg) {
  auto objagg = make_objstore_agg();
  auto cacheagg = make_cache_agg();
  for (RoundId r = 0; r < 5; ++r) {
    objagg.ingest_round(job.make_round(r), 0.0);
    cacheagg.ingest_round(job.make_round(r), 0.0);
  }
  const auto req = request(1, fed::WorkloadType::kMaliciousFilter, 4);
  const auto slow = objagg.serve(req, 100.0);
  const auto fast = cacheagg.serve(req, 100.0);
  EXPECT_LT(fast.latency_s, slow.latency_s / 2.0);
  EXPECT_GT(fast.hits, 0U);
  // But Cache-Agg still ships data over the network: not compute-bound.
  EXPECT_GT(fast.comm_s, fast.comp_s);
}

TEST_F(BaselineFixture, CacheAggFallsBackToStoreOnMiss) {
  auto cacheagg = make_cache_agg();
  // Populate only the store via the plain baseline path.
  auto filler = make_objstore_agg();
  filler.ingest_round(job.make_round(0), 0.0);
  const auto res =
      cacheagg.serve(request(1, fed::WorkloadType::kClustering, 0), 10.0);
  EXPECT_EQ(res.hits, 0U);
  EXPECT_EQ(res.misses, 8U);
  EXPECT_GT(res.comm_s, 40.0);
  // Re-serving hits the now-populated cache tier.
  const auto again =
      cacheagg.serve(request(2, fed::WorkloadType::kClustering, 0), 20.0);
  EXPECT_EQ(again.misses, 0U);
  EXPECT_LT(again.comm_s, res.comm_s / 2.0);
}

TEST_F(BaselineFixture, CacheAggProvisionedForFullJob) {
  auto cacheagg = make_cache_agg();
  const auto footprint = job_metadata_footprint(job);
  EXPECT_GE(cacheagg.cache().capacity_bytes(), footprint);
  // resnet18, 30 rounds x 8 clients: ~12 GB -> a single 26 GB node.
  EXPECT_EQ(cacheagg.cache().nodes(), 1);
}

TEST_F(BaselineFixture, InfrastructureCostsRankCorrectly) {
  auto objagg = make_objstore_agg();
  auto cacheagg = make_cache_agg();
  objagg.ingest_round(job.make_round(0), 0.0);
  const double hours50 = units::hours(50);
  const double obj_cost = objagg.infrastructure_cost(hours50);
  const double cache_cost = cacheagg.infrastructure_cost(hours50);
  // Both pay the always-on VM; Cache-Agg adds provisioned node-hours.
  EXPECT_GT(obj_cost, 0.9 * 50 * 0.922);
  EXPECT_GT(cache_cost, obj_cost);
  EXPECT_NEAR(cache_cost - obj_cost, 50 * 0.411, 1.0);
}

TEST_F(BaselineFixture, PerRequestCostTracksVmOccupancy) {
  auto agg = make_objstore_agg();
  for (RoundId r = 0; r < 3; ++r) agg.ingest_round(job.make_round(r), 0.0);
  const auto light =
      agg.serve(request(1, fed::WorkloadType::kInference, 2), 50.0);
  const auto heavy =
      agg.serve(request(2, fed::WorkloadType::kDebugging, 2), 60.0);
  EXPECT_GT(heavy.latency_s, light.latency_s);
  EXPECT_GT(heavy.cost_usd, light.cost_usd);
  // Cost ≈ latency x hourly rate (fees are pennies).
  EXPECT_NEAR(heavy.cost_usd, heavy.latency_s * 0.922 / 3600.0,
              heavy.cost_usd * 0.05);
}

TEST_F(BaselineFixture, JobFootprintArithmetic) {
  const auto footprint = job_metadata_footprint(job);
  // 30 rounds x (8+1) models of ~46.8 MB (decimal) + metadata.
  const auto models =
      30ULL * 9ULL * job.model().object_bytes;
  EXPECT_GT(footprint, models);
  EXPECT_LT(footprint, models + 10 * units::MB);
}

TEST_F(BaselineFixture, BothBaselinesComputeIdenticalResults) {
  // The data path must not change workload semantics.
  auto objagg = make_objstore_agg();
  auto cacheagg = make_cache_agg();
  for (RoundId r = 0; r < 3; ++r) {
    objagg.ingest_round(job.make_round(r), 0.0);
    cacheagg.ingest_round(job.make_round(r), 0.0);
  }
  const auto req = request(1, fed::WorkloadType::kMaliciousFilter, 2);
  const auto a = objagg.serve(req, 10.0);
  const auto b = cacheagg.serve(req, 10.0);
  EXPECT_EQ(a.output.selected, b.output.selected);
  EXPECT_EQ(a.output.summary, b.output.summary);
}

}  // namespace
}  // namespace flstore::baselines
