// Coalescer: single-flight deduplication of cold-store fetches, in
// simulated time, including the end-to-end hook through FLStore's miss path.
#include "serve/coalescer.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "sim/calibration.hpp"

namespace flstore::serve {
namespace {

backend::ObjectStoreBackend make_store() {
  return backend::ObjectStoreBackend(sim::objstore_link(),
                                     PricingCatalog::aws());
}

TEST(Coalescer, ConcurrentMissesShareOneFetch) {
  auto cold = make_store();
  (void)cold.put("k", Blob(64), 80 * units::MB, 0.0);  // 10 s at 8 MB/s
  Coalescer co;

  const auto lead = co.fetch("k", cold, 100.0);
  ASSERT_TRUE(lead.found);
  EXPECT_GT(lead.request_fee_usd, 0.0);
  EXPECT_GT(lead.latency_s, 9.0);

  // N "concurrent" misses: arrivals inside the leader's transfer window.
  for (int i = 1; i <= 4; ++i) {
    const double now = 100.0 + 2.0 * i;  // 102, 104, 106, 108 < ready ~110
    const auto join = co.fetch("k", cold, now);
    ASSERT_TRUE(join.found);
    EXPECT_DOUBLE_EQ(join.request_fee_usd, 0.0);  // fee paid once, by the lead
    // The joiner only waits out the remainder of the stream.
    EXPECT_NEAR(join.latency_s, lead.latency_s - 2.0 * i, 1e-9);
  }

  // Exactly one real cold-store request was issued.
  EXPECT_EQ(cold.stats().gets, 1U);
  const auto stats = co.stats();
  EXPECT_EQ(stats.leads, 1U);
  EXPECT_EQ(stats.joins, 4U);
  EXPECT_GT(stats.fees_saved_usd, 0.0);
  EXPECT_GT(stats.wait_saved_s, 0.0);
}

TEST(Coalescer, ExpiredWindowLeadsAFreshFetch) {
  auto cold = make_store();
  (void)cold.put("k", Blob(64), 80 * units::MB, 0.0);
  Coalescer co;
  const auto first = co.fetch("k", cold, 0.0);
  // Past the window: the object aged out of every cache again; refetch.
  const auto second = co.fetch("k", cold, first.latency_s + 1.0);
  EXPECT_GT(second.request_fee_usd, 0.0);
  EXPECT_EQ(cold.stats().gets, 2U);
  EXPECT_EQ(co.stats().leads, 2U);
  EXPECT_EQ(co.stats().joins, 0U);
}

TEST(Coalescer, MissOpensNoWindow) {
  auto cold = make_store();
  Coalescer co;
  const auto a = co.fetch("absent", cold, 0.0);
  EXPECT_FALSE(a.found);
  EXPECT_GT(a.request_fee_usd, 0.0);  // control-plane round trip still billed
  // The object lands (ingest backup) and the next fetch must be real.
  (void)cold.put("absent", Blob(64), 1 * units::MB, 0.01);
  const auto b = co.fetch("absent", cold, 0.05);
  EXPECT_TRUE(b.found);
  EXPECT_GT(b.request_fee_usd, 0.0);
}

TEST(Coalescer, ThreadSafeUnderHammering) {
  auto cold = make_store();
  (void)cold.put("k", Blob(64), 80 * units::MB, 0.0);
  Coalescer co;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&co, &cold] {
      for (int j = 0; j < 100; ++j) {
        const auto got = co.fetch("k", cold, 1.0);
        ASSERT_TRUE(got.found);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Same simulated instant from every thread. fetch() drops its lock across
  // the cold GET, so threads that pass the join check before the first lead
  // publishes its window also lead (documented in coalescer.cpp); each thread
  // has one call in flight, so at most one lead per thread, and every call
  // after the first publish joins.
  const auto stats = co.stats();
  EXPECT_GE(stats.leads, 1U);
  EXPECT_LE(stats.leads, 8U);
  EXPECT_EQ(stats.leads + stats.joins, 800U);
  EXPECT_EQ(cold.stats().gets, stats.leads);
}

// End-to-end: two cache shards of one tenant share the cold store and the
// coalescer. Both miss on the same aggregate; the second serve piggybacks —
// one object-store GET, no second request fee.
TEST(CoalescerFLStore, TwoShardsShareOneColdFetch) {
  fed::FLJobConfig job_cfg;
  job_cfg.model = "resnet18";
  job_cfg.pool_size = 20;
  job_cfg.clients_per_round = 4;
  job_cfg.rounds = 10;
  job_cfg.seed = 3;
  fed::FLJob job(job_cfg);
  backend::ObjectStoreBackend cold(sim::objstore_link(),
                                   PricingCatalog::aws());
  Coalescer co;

  core::FLStoreConfig cfg;
  cfg.policy.mode = core::PolicyMode::kLru;  // demand-fill: first touch misses
  core::FLStore shard_a(cfg, job, cold);
  cfg.backup_to_cold = false;  // shard B must not duplicate the backup puts
  core::FLStore shard_b(cfg, job, cold);
  shard_a.set_cold_fetch_interceptor(&co);
  shard_b.set_cold_fetch_interceptor(&co);

  shard_a.ingest_round(job.make_round(0), 0.0);
  const auto puts_after_ingest = cold.stats().puts;

  fed::NonTrainingRequest req;
  req.type = fed::WorkloadType::kInference;  // needs exactly aggregate(0)
  req.round = 0;

  req.id = 1;
  const auto a = shard_a.serve(req, 10.0);
  ASSERT_EQ(a.misses, 1U);
  const auto gets_after_a = cold.stats().gets;

  // Shard B misses the same key while A's fetch is still streaming.
  req.id = 2;
  const auto b = shard_b.serve(req, 11.0);
  ASSERT_EQ(b.misses, 1U);
  EXPECT_EQ(cold.stats().gets, gets_after_a);  // no second GET
  EXPECT_EQ(co.stats().joins, 1U);
  // B's bill is smaller: no request fee and less blocked function time.
  EXPECT_LT(b.cost_usd, a.cost_usd);
  EXPECT_LT(b.comm_s, a.comm_s);
  // Result write-backs aside, B triggered no extra backup puts.
  EXPECT_EQ(cold.stats().puts,
            puts_after_ingest + 2);  // two result objects
}

}  // namespace
}  // namespace flstore::serve
