// End-to-end behaviour of the FLStore facade: ingest-time write-allocation,
// hit/miss accounting (Table 2 semantics), prefetch chains, fault handling.
#include "core/flstore.hpp"

#include <gtest/gtest.h>

#include "fed/trace.hpp"
#include "sim/calibration.hpp"

namespace flstore::core {
namespace {

struct FLStoreFixture : ::testing::Test {
  FLStoreFixture()
      : job(job_config()),
        cold(sim::objstore_link(), PricingCatalog::aws()) {}

  static fed::FLJobConfig job_config() {
    fed::FLJobConfig cfg;
    cfg.model = "resnet18";
    cfg.pool_size = 40;
    cfg.clients_per_round = 8;
    cfg.rounds = 60;
    cfg.seed = 11;
    return cfg;
  }

  std::unique_ptr<FLStore> make_store(PolicyMode mode = PolicyMode::kTailored,
                                      units::Bytes capacity = 0,
                                      int replicas = 1) {
    FLStoreConfig cfg;
    cfg.policy.mode = mode;
    cfg.cache_capacity = capacity;
    cfg.pool.replicas = replicas;
    return std::make_unique<FLStore>(cfg, job, cold);
  }

  void ingest_upto(FLStore& store, RoundId last, double interval = 10.0) {
    for (RoundId r = 0; r <= last; ++r) {
      store.ingest_round(job.make_round(r), interval * r);
    }
  }

  static fed::NonTrainingRequest request(RequestId id, fed::WorkloadType t,
                                         RoundId r, ClientId c = kNoClient) {
    fed::NonTrainingRequest req;
    req.id = id;
    req.type = t;
    req.round = r;
    req.client = c;
    return req;
  }

  fed::FLJob job;
  ObjectStore cold;
};

TEST_F(FLStoreFixture, IngestBacksUpEverythingToColdStore) {
  auto store = make_store();
  store->ingest_round(job.make_round(0), 0.0);
  for (const auto c : job.participants(0)) {
    EXPECT_TRUE(cold.contains(MetadataKey::update(c, 0).object_name()));
    EXPECT_TRUE(cold.contains(MetadataKey::metrics(c, 0).object_name()));
  }
  EXPECT_TRUE(cold.contains(MetadataKey::aggregate(0).object_name()));
  EXPECT_TRUE(cold.contains(MetadataKey::metadata(0).object_name()));
}

TEST_F(FLStoreFixture, LatestRoundRequestsHitEntirely) {
  auto store = make_store();
  ingest_upto(*store, 5);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kMaliciousFilter, 5), 60.0);
  EXPECT_EQ(res.misses, 0U);
  EXPECT_GT(res.hits, 0U);
  // Hit path: latency is essentially compute (comm is routing overhead).
  EXPECT_LT(res.comm_s, 0.1);
  EXPECT_GT(res.comp_s, 0.0);
  EXPECT_GT(res.cost_usd, 0.0);
  EXPECT_FALSE(res.output.summary.empty());
}

TEST_F(FLStoreFixture, ColdRequestPaysOneMissThenChainsHits) {
  // Post-hoc replay (nothing ingested into the cache): the Table-2 setup.
  auto store = make_store();
  // Populate only the cold store: use a separate FLStore-free put pass.
  for (RoundId r = 0; r < 20; ++r) {
    // ingest with a traditional-mode store writes cold objects but caches
    // nothing — a clean way to fill only the persistent tier.
    auto filler = make_store(PolicyMode::kLru);
    filler->ingest_round(job.make_round(r), 0.0);
  }
  auto trace = fed::table2_p2_trace(fed::WorkloadType::kMaliciousFilter, 20);
  std::size_t hits = 0, misses = 0;
  for (const auto& req : trace) {
    const auto res = store->serve(req, 100.0 + static_cast<double>(req.round));
    hits += res.hits;
    misses += res.misses;
  }
  // 20 rounds x 8 update accesses: one cold miss, the rest covered by the
  // P2 bulk fetch + next-round prefetch chain (Table 2's 19999/1 pattern).
  EXPECT_EQ(misses, 1U);
  EXPECT_EQ(hits, 20U * 8U - 1U);
}

TEST_F(FLStoreFixture, P3PrefetchChainAcrossParticipations) {
  auto store = make_store();
  ingest_upto(*store, 59);
  const auto client = job.participants(0).front();
  auto trace = fed::table2_p3_trace(client, 10, job);
  ASSERT_GT(trace.size(), 3U);
  std::size_t misses = 0;
  double t = 700.0;
  for (const auto& req : trace) {
    const auto res = store->serve(req, t);
    misses += res.misses;
    t += 10.0;
  }
  // First access misses (old round, already evicted from the round cache),
  // every later one is covered by the P3 prefetch chain.
  EXPECT_LE(misses, 1U);
}

TEST_F(FLStoreFixture, TraditionalModeMissesEveryFirstTouch) {
  auto store = make_store(PolicyMode::kLru);
  ingest_upto(*store, 19);
  auto trace = fed::table2_p2_trace(fed::WorkloadType::kClustering, 20);
  std::size_t hits = 0, misses = 0;
  for (const auto& req : trace) {
    const auto res = store->serve(req, 220.0 + static_cast<double>(req.round));
    hits += res.hits;
    misses += res.misses;
  }
  // Demand cache, every object accessed exactly once: all accesses miss.
  EXPECT_EQ(hits, 0U);
  EXPECT_EQ(misses, 20U * 8U);
}

TEST_F(FLStoreFixture, MissLatencyReflectsColdStorePath) {
  auto store = make_store(PolicyMode::kLru);
  ingest_upto(*store, 3);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kCosineSimilarity, 3), 40.0);
  EXPECT_EQ(res.misses, 8U);
  // 8 objects of ~44.7 MiB at 8 MB/s + per-object latency: > 40 s.
  EXPECT_GT(res.comm_s, 40.0);
}

TEST_F(FLStoreFixture, P4MetadataWindowServedFromCache) {
  auto store = make_store();
  ingest_upto(*store, 30);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kSchedulingPerf, 30), 310.0);
  EXPECT_EQ(res.misses, 0U);
  // Near-instant modulo the function's one-time cold start (~1 s).
  EXPECT_LT(res.latency_s, 1.5);
  const auto again =
      store->serve(request(2, fed::WorkloadType::kSchedulingPerf, 30), 311.0);
  EXPECT_LT(again.latency_s, 0.2);
}

TEST_F(FLStoreFixture, InferenceServedFromPinnedAggregate) {
  auto store = make_store();
  ingest_upto(*store, 12);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kInference, 12), 130.0);
  EXPECT_EQ(res.misses, 0U);
  EXPECT_EQ(res.hits, 1U);
}

TEST_F(FLStoreFixture, CacheFootprintStaysBounded) {
  auto store = make_store();
  ingest_upto(*store, 59);
  // Tailored windows: 2 rounds of updates + 2 aggregates + metadata window.
  const auto expected_max =
      (2 * 8 + 2) * job.model().object_bytes + 30 * units::MB;
  EXPECT_LE(store->engine().cached_bytes(), expected_max);
  // And far less than caching everything (60 rounds).
  EXPECT_LT(store->engine().cached_bytes(),
            60 * 8 * job.model().object_bytes / 3);
}

TEST_F(FLStoreFixture, FaultOnSingleReplicaLosesDataAndRefetches) {
  auto store = make_store(PolicyMode::kTailored, 0, /*replicas=*/1);
  ingest_upto(*store, 5);
  // Kill every spawned function (rank order); groups die with one member.
  for (std::int32_t rank = 0;
       rank < static_cast<std::int32_t>(store->runtime().total_spawned());
       ++rank) {
    store->inject_fault(rank);
  }
  const auto res =
      store->serve(request(1, fed::WorkloadType::kMaliciousFilter, 5), 60.0);
  EXPECT_GT(res.misses, 0U);
  EXPECT_GT(res.comm_s, 10.0);  // re-fetch from cold store
}

TEST_F(FLStoreFixture, FaultWithReplicasFailsOverCheaply) {
  auto store = make_store(PolicyMode::kTailored, 0, /*replicas=*/3);
  ingest_upto(*store, 5);
  // Kill the first member of group 0 only.
  store->inject_fault(0);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kMaliciousFilter, 5), 60.0);
  EXPECT_EQ(res.misses, 0U);
  // Failover costs at most a detection timeout per access, not a re-fetch.
  EXPECT_LT(res.comm_s, 5.0);
}

TEST_F(FLStoreFixture, AutoRepairRestoresReplicas) {
  auto store = make_store(PolicyMode::kTailored, 0, /*replicas=*/2);
  ingest_upto(*store, 5);
  store->inject_fault(0);
  (void)store->serve(request(1, fed::WorkloadType::kMaliciousFilter, 5), 60.0);
  EXPECT_GE(store->repairs(), 1U);
  // A second serve sees a fully warm group again.
  const auto res =
      store->serve(request(2, fed::WorkloadType::kMaliciousFilter, 5), 61.0);
  EXPECT_LT(res.comm_s, 0.1);
}

TEST_F(FLStoreFixture, LimitedCapacityStillBeatsNothing) {
  // FLStore-limited: half the tailored working set.
  const auto full_ws = (2 * 8 + 2) * job.model().object_bytes;
  auto store = make_store(PolicyMode::kTailored, full_ws / 2);
  ingest_upto(*store, 10);
  const auto res =
      store->serve(request(1, fed::WorkloadType::kMaliciousFilter, 10), 110.0);
  // The newest round still largely fits; at most a few misses.
  EXPECT_LT(res.misses, 6U);
}

TEST_F(FLStoreFixture, TrackerRecordsServingFunctions) {
  auto store = make_store();
  ingest_upto(*store, 4);
  (void)store->serve(request(77, fed::WorkloadType::kClustering, 4), 50.0);
  EXPECT_TRUE(store->tracker().contains(77));
  EXPECT_TRUE(store->tracker().is_done(77));
  EXPECT_FALSE(store->tracker().get(77).functions.empty());
}

TEST_F(FLStoreFixture, ServeThatThrowsReleasesItsTrackerEntry) {
  auto store = make_store(PolicyMode::kLru);
  ingest_upto(*store, 3);
  const auto name =
      MetadataKey::update(job.participants(3).back(), 3).object_name();
  const auto kept = cold.get(name);
  ASSERT_TRUE(kept.found);
  ASSERT_TRUE(cold.remove(name));
  EXPECT_THROW(
      (void)store->serve(request(5, fed::WorkloadType::kCosineSimilarity, 3),
                         40.0),
      NotFound);
  EXPECT_EQ(store->tracker().in_flight(), 0U);
  EXPECT_FALSE(store->tracker().contains(5));

  // With the object back, a retry under the same id is served.
  (void)cold.put(name, *kept.blob, kept.logical_bytes);
  const auto res =
      store->serve(request(5, fed::WorkloadType::kCosineSimilarity, 3), 50.0);
  EXPECT_GT(res.hits + res.misses, 0U);
  EXPECT_TRUE(store->tracker().is_done(5));
  EXPECT_EQ(store->tracker().in_flight(), 0U);
}

TEST_F(FLStoreFixture, WorkloadRejectionReleasesItsTrackerEntry) {
  auto store = make_store();
  ingest_upto(*store, 2);
  // Hyperparameter tracking needs two rounds of info; round 0 has one.
  EXPECT_THROW(
      (void)store->serve(request(8, fed::WorkloadType::kHyperparamTracking, 0),
                         30.0),
      InvalidArgument);
  EXPECT_EQ(store->tracker().in_flight(), 0U);
  EXPECT_FALSE(store->tracker().contains(8));
}

TEST_F(FLStoreFixture, InfrastructureCostTracksWarmFunctions) {
  auto store = make_store();
  ingest_upto(*store, 5);
  const auto cost = store->infrastructure_cost(units::hours(50));
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 0.1);  // keep-alive pings are near-free (§4.5)
}

TEST(FLStoreConfigDefaults, RoutingOverheadIsSubMillisecond) {
  // §5.5 measures request routing + tracker/engine lookups as
  // sub-millisecond; the default once regressed to 2 ms, so pin it.
  const FLStoreConfig cfg;
  EXPECT_GT(cfg.routing_overhead_s, 0.0);
  EXPECT_LT(cfg.routing_overhead_s, 1e-3);
}

TEST_F(FLStoreFixture, ServeUnknownDataThrows) {
  auto store = make_store();
  // Nothing ingested at all: the cold store is empty.
  EXPECT_THROW(
      (void)store->serve(request(1, fed::WorkloadType::kClustering, 0), 0.0),
      NotFound);
}

}  // namespace
}  // namespace flstore::core
