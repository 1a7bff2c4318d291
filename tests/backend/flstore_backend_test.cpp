// FLStore (and the serving plane) over each cold backend: swapping the
// data plane requires zero changes at the core/serve call sites, serving
// still works end to end, and the miss-path latency ordering matches the
// hardware story (SSD < cloud cache < object store).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/replicated_cold_store.hpp"
#include "backend/tiered_cold_store.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"
#include "sim/scenario.hpp"

namespace flstore {
namespace {

fed::FLJobConfig small_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 30;
  cfg.clients_per_round = 6;
  cfg.rounds = 20;
  cfg.seed = 5;
  return cfg;
}

fed::NonTrainingRequest inference(RequestId id, RoundId round) {
  fed::NonTrainingRequest req;
  req.id = id;
  req.type = fed::WorkloadType::kInference;
  req.round = round;
  return req;
}

/// FLStore with the serverless cache effectively disabled (capacity one
/// byte: nothing fits), so every request runs against the cold backend.
core::ServeResult serve_cold(backend::StorageBackend& cold,
                             const fed::FLJob& job) {
  core::FLStoreConfig cfg;
  cfg.policy.mode = core::PolicyMode::kLru;
  cfg.cache_capacity = 1;
  core::FLStore fl(cfg, job, cold);
  fl.ingest_round(job.make_round(0), 0.0);
  return fl.serve(inference(1, 0), 10.0);
}

TEST(FLStoreBackends, ServesOverEveryBackendAndOrdersByHardware) {
  fed::FLJob job(small_job());
  backend::ObjectStoreBackend objstore(sim::objstore_link(),
                                       PricingCatalog::aws());
  backend::CloudCacheBackend::Config cache_cfg;
  cache_cfg.link = sim::cloudcache_link();
  backend::CloudCacheBackend cloudcache(cache_cfg, PricingCatalog::aws());
  backend::LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend ssd(ssd_cfg, PricingCatalog::aws());

  const auto via_objstore = serve_cold(objstore, job);
  const auto via_cloudcache = serve_cold(cloudcache, job);
  const auto via_ssd = serve_cold(ssd, job);

  for (const auto* res : {&via_objstore, &via_cloudcache, &via_ssd}) {
    EXPECT_EQ(res->misses, 1U);
    EXPECT_FALSE(res->output.summary.empty());
    EXPECT_GT(res->cost_usd, 0.0);
  }
  // Identical request, identical compute; only the data plane differs.
  EXPECT_DOUBLE_EQ(via_objstore.comp_s, via_ssd.comp_s);
  EXPECT_LT(via_ssd.comm_s, via_cloudcache.comm_s);
  EXPECT_LT(via_cloudcache.comm_s, via_objstore.comm_s);
  // Blocked-function time follows, so cost orders the same way.
  EXPECT_LT(via_ssd.cost_usd, via_cloudcache.cost_usd);
  EXPECT_LT(via_cloudcache.cost_usd, via_objstore.cost_usd);
}

TEST(FLStoreBackends, TieredStackBehindFLStoreServesFromTheFastTier) {
  fed::FLJob job(small_job());
  backend::ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  backend::LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend ssd(ssd_cfg, PricingCatalog::aws());
  backend::TieredColdStore tiered({&ssd, &deep});

  const auto res = serve_cold(tiered, job);
  EXPECT_EQ(res.misses, 1U);
  // Ingest wrote through both tiers; the miss fetch hit the SSD, never the
  // object store.
  EXPECT_EQ(deep.stats().gets, 0U);
  EXPECT_GT(deep.stats().puts, 0U);
  EXPECT_LT(res.comm_s, 1.0);
}

TEST(FLStoreBackends, IngestDrainsWriteBackTieredStackToDurableTier) {
  // FLStore over a write-back tiered stack: every ingest must leave the
  // round durable in the deepest tier (FLStore drives the backend flush),
  // so fast-tier churn can never lose a backed-up object.
  fed::FLJob job(small_job());
  backend::ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  backend::CloudCacheBackend::Config cache_cfg;
  cache_cfg.link = sim::cloudcache_link();
  backend::CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  backend::TieredColdStore::Config tiered_cfg;
  tiered_cfg.write_mode = backend::TieredColdStore::WriteMode::kWriteBack;
  backend::TieredColdStore tiered({&fast, &deep}, tiered_cfg);

  core::FLStoreConfig cfg;
  core::FLStore fl(cfg, job, tiered);
  fl.ingest_round(job.make_round(0), 0.0);
  EXPECT_EQ(tiered.dirty_count(), 0U);  // drained at end of ingest
  for (const auto c : job.participants(0)) {
    EXPECT_TRUE(deep.contains(MetadataKey::update(c, 0).object_name()));
  }
  EXPECT_TRUE(deep.contains(MetadataKey::aggregate(0).object_name()));
  // The drain's deep-tier PUT fees reached FLStore's meter: one S3 PUT per
  // round object, same as the write-through/inline path would pay.
  EXPECT_DOUBLE_EQ(
      fl.infra_meter().get(CostCategory::kStorageService),
      static_cast<double>(deep.stats().puts) *
          PricingCatalog::aws().s3_usd_per_put);
}

TEST(FLStoreBackends, ShardedStoreAcceptsAnyBackend) {
  fed::FLJob job(small_job());
  backend::CloudCacheBackend::Config cache_cfg;
  cache_cfg.link = sim::cloudcache_link();
  backend::CloudCacheBackend cloudcache(cache_cfg, PricingCatalog::aws());

  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 0;
  serve::ShardedStore plane(cloudcache, cfg);
  const auto tenant = plane.add_tenant(job);
  plane.ingest_round(tenant, job.make_round(0), 0.0);

  serve::ServiceRequest req;
  req.tenant = tenant;
  req.request = inference(1, 0);
  const auto res = plane.serve(req, 10.0);
  EXPECT_FALSE(res.output.summary.empty());
  // The tenant's cold namespace landed on the cache backend.
  EXPECT_GT(cloudcache.stored_logical_bytes(), 0U);
}

TEST(FLStoreBackends, ScenarioBuildsReplicatedColdBackend) {
  sim::ScenarioConfig cfg;
  cfg.rounds = 5;
  cfg.total_requests = 10;
  cfg.duration_s = 1000.0;
  cfg.pool_size = 20;
  cfg.clients_per_round = 4;
  sim::Scenario sc(cfg);
  // Three regions, each its own bucket one WAN hop further out: the
  // serving region is the scenario's object-store kind, the farther ones
  // are built directly.
  std::vector<backend::ReplicatedColdStore::Region> regions;
  for (int i = 0; i < 3; ++i) {
    backend::ReplicatedColdStore::Region region;
    region.name = "region-" + std::to_string(i);
    region.wan = sim::interregion_link(i);
    region.owned =
        i == 0 ? sc.make_cold_backend(backend::BackendKind::kObjectStore)
               : std::make_unique<backend::ObjectStoreBackend>(
                     sim::objstore_link(), PricingCatalog::aws());
    regions.push_back(std::move(region));
  }
  backend::ReplicatedColdStore repl(std::move(regions), {},
                                    PricingCatalog::aws());
  EXPECT_EQ(repl.kind(), backend::BackendKind::kReplicated);
  EXPECT_EQ(repl.region_count(), 3U);
  EXPECT_EQ(repl.write_quorum(), 2);

  // Serving works unchanged through the replicated seam, and the round
  // backup fanned out across regions (cross-region bytes billed).
  const auto fl = sc.make_flstore_over(repl, core::PolicyMode::kTailored);
  fl->ingest_round(sc.job().make_round(0), 0.0);
  const auto res = fl->serve(inference(1, 0), 10.0);
  EXPECT_FALSE(res.output.summary.empty());
  EXPECT_GT(repl.egress_fees_usd(), 0.0);
  for (std::size_t i = 0; i < repl.region_count(); ++i) {
    EXPECT_GT(repl.region_backend(i).stored_logical_bytes(), 0U) << i;
  }
}

TEST(FLStoreBackends, ScenarioBuildsEveryColdBackendKind) {
  sim::ScenarioConfig cfg;
  cfg.rounds = 5;
  cfg.total_requests = 10;
  cfg.duration_s = 1000.0;
  cfg.pool_size = 20;
  cfg.clients_per_round = 4;
  for (const auto kind :
       {backend::BackendKind::kObjectStore, backend::BackendKind::kCloudCache,
        backend::BackendKind::kLocalSsd}) {
    sim::Scenario sc(cfg);
    const auto cold = sc.make_cold_backend(kind);
    EXPECT_EQ(cold->kind(), kind);
    const auto fl = sc.make_flstore_over(*cold, core::PolicyMode::kTailored);
    fl->ingest_round(sc.job().make_round(0), 0.0);
    const auto res = fl->serve(inference(1, 0), 10.0);
    EXPECT_FALSE(res.output.summary.empty());
  }
}

}  // namespace
}  // namespace flstore
