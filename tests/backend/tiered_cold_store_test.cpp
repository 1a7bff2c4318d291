// TieredColdStore: fallback probe order, promotion, write-through vs
// write-back (and the flush that drains it), and aggregate accounting.
#include "backend/tiered_cold_store.hpp"

#include <gtest/gtest.h>

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

struct TieredFixture : ::testing::Test {
  TieredFixture()
      : deep(sim::objstore_link(), PricingCatalog::aws()),
        ssd(ssd_config(), PricingCatalog::aws()) {}

  static LocalSsdBackend::Config ssd_config() {
    LocalSsdBackend::Config cfg;
    cfg.link = sim::local_ssd_link();
    return cfg;
  }

  TieredColdStore make(TieredColdStore::Config cfg = {}) {
    return TieredColdStore({&ssd, &deep}, cfg);
  }

  ObjectStoreBackend deep;
  LocalSsdBackend ssd;
};

TEST_F(TieredFixture, FallbackProbesTiersInOrder) {
  // Object only in the deep tier: the read pays the SSD's miss probe plus
  // the store's full transfer.
  (void)deep.put("k", Blob(64), 10 * units::MB, 0.0);
  auto tiered = make();
  const auto got = tiered.get("k", 0.0);
  ASSERT_TRUE(got.found);
  const double expected = sim::local_ssd_link().first_byte_latency_s +
                          sim::objstore_link().transfer_time(10 * units::MB);
  EXPECT_NEAR(got.latency_s, expected, 1e-9);
  EXPECT_DOUBLE_EQ(got.request_fee_usd, PricingCatalog::aws().s3_usd_per_get);

  // Promotion happened: the next read hits the SSD and never pays the
  // object store's round trip again.
  EXPECT_TRUE(ssd.contains("k"));
  const auto again = tiered.get("k", 100.0);
  ASSERT_TRUE(again.found);
  EXPECT_NEAR(again.latency_s,
              sim::local_ssd_link().transfer_time(10 * units::MB), 1e-9);
  EXPECT_DOUBLE_EQ(again.request_fee_usd, 0.0);
}

TEST_F(TieredFixture, PromotionCanBeDisabled) {
  (void)deep.put("k", Blob(64), 10 * units::MB, 0.0);
  TieredColdStore::Config cfg;
  cfg.promote_on_hit = false;
  auto tiered = make(cfg);
  ASSERT_TRUE(tiered.get("k", 0.0).found);
  EXPECT_FALSE(ssd.contains("k"));
}

TEST_F(TieredFixture, WriteThroughLandsInEveryTier) {
  auto tiered = make();
  const auto put = tiered.put("k", Blob{1, 2, 3}, 8 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_TRUE(ssd.contains("k"));
  EXPECT_TRUE(deep.contains("k"));
  EXPECT_EQ(tiered.dirty_count(), 0U);
  // The caller waits only for the fastest accepting stream.
  EXPECT_NEAR(put.latency_s,
              sim::local_ssd_link().transfer_time(8 * units::MB), 1e-9);
  // ... but the object store's PUT fee is real.
  EXPECT_DOUBLE_EQ(put.request_fee_usd, PricingCatalog::aws().s3_usd_per_put);
}

TEST_F(TieredFixture, WriteBackDefersDeepTiersUntilFlush) {
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  auto tiered = make(cfg);

  const Blob payload{7, 7, 7, 7};
  const auto put = tiered.put("k", Blob(payload), 8 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_DOUBLE_EQ(put.request_fee_usd, 0.0);  // no store PUT yet
  EXPECT_TRUE(ssd.contains("k"));
  EXPECT_FALSE(deep.contains("k"));
  EXPECT_EQ(tiered.dirty_count(), 1U);
  EXPECT_TRUE(tiered.contains("k"));  // the composition still serves it

  EXPECT_EQ(tiered.flush(1.0).drained, 1U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
  ASSERT_TRUE(deep.contains("k"));
  // Byte-identical drain.
  const auto drained = deep.get("k", 2.0);
  ASSERT_TRUE(drained.found);
  EXPECT_EQ(*drained.blob, payload);
  EXPECT_EQ(drained.logical_bytes, 8 * units::MB);
  // Nothing further to drain.
  EXPECT_EQ(tiered.flush(3.0).drained, 0U);
}

TEST_F(TieredFixture, RemoveDropsEveryCopy) {
  auto tiered = make();
  tiered.put("k", Blob(8), 1 * units::MB, 0.0);
  EXPECT_TRUE(tiered.remove("k", 1.0));
  EXPECT_FALSE(ssd.contains("k"));
  EXPECT_FALSE(deep.contains("k"));
  EXPECT_FALSE(tiered.contains("k"));
  EXPECT_FALSE(tiered.remove("k", 2.0));
}

TEST_F(TieredFixture, IdleCostSumsProvisionedTiers) {
  auto tiered = make();
  tiered.put("k", Blob(8), 1 * units::MB, 0.0);
  EXPECT_DOUBLE_EQ(tiered.idle_cost(3600.0),
                   ssd.idle_cost(3600.0) + deep.idle_cost(3600.0));
  EXPECT_EQ(tiered.stored_logical_bytes(), deep.stored_logical_bytes());
  EXPECT_EQ(tiered.kind(), BackendKind::kTiered);
  EXPECT_EQ(tiered.name(), "tiered(local-ssd -> object-store)");
}

TEST_F(TieredFixture, BatchedWriteBackDrainsThroughBatchedPuts) {
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  auto tiered = make(cfg);
  std::vector<PutRequest> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(
        PutRequest{std::to_string(i), Blob(8), 1 * units::MB});
  }
  const auto res = tiered.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, 5U);
  EXPECT_EQ(tiered.dirty_count(), 5U);
  EXPECT_EQ(deep.stats().puts, 0U);
  EXPECT_EQ(tiered.flush(1.0).drained, 5U);
  EXPECT_EQ(deep.stats().puts, 5U);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(deep.contains(std::to_string(i)));
  }
}

TEST(TieredWriteBackRejection, FastTierRefusalFallsThroughToDurableTier) {
  // Fixed 1-node cloud cache as the fast tier: objects larger than the
  // fleet are refused there — they must still land in the object store,
  // both on the single-put and the batched path.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &deep}, cfg);

  const auto huge = 2 * PricingCatalog::aws().cache_node_capacity;
  const auto put = tiered.put("big", Blob{9, 9}, huge, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_FALSE(fast.contains("big"));
  EXPECT_TRUE(deep.contains("big"));
  EXPECT_EQ(tiered.dirty_count(), 0U);  // nothing to drain: it went deep

  std::vector<PutRequest> batch;
  batch.push_back(PutRequest{"small", Blob{1}, 1 * units::MB});
  batch.push_back(PutRequest{"big2", Blob{2}, huge});
  const auto res = tiered.put_batch(std::move(batch), 1.0);
  EXPECT_EQ(res.stored, 2U);
  ASSERT_EQ(res.accepted.size(), 2U);
  EXPECT_TRUE(res.accepted[0]);
  EXPECT_TRUE(res.accepted[1]);
  EXPECT_TRUE(fast.contains("small"));
  EXPECT_FALSE(fast.contains("big2"));
  EXPECT_TRUE(deep.contains("big2"));  // rejected item wrote through
  EXPECT_EQ(tiered.dirty_count(), 1U);  // only "small" waits for flush()
  EXPECT_EQ(tiered.flush(2.0).drained, 1U);
  EXPECT_TRUE(deep.contains("small"));
}

TEST(TieredStaleInvalidation, RejectedOverwriteDropsTheOldFastTierCopy) {
  // v1 fits the fixed cloud cache; v2 does not and falls through to the
  // object store. The cache's v1 must be invalidated, or every read would
  // serve stale bytes (and write-back flush would drain v1 over v2).
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  const auto huge = 2 * PricingCatalog::aws().cache_node_capacity;
  for (const auto mode : {TieredColdStore::WriteMode::kWriteThrough,
                          TieredColdStore::WriteMode::kWriteBack}) {
    CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
    TieredColdStore::Config cfg;
    cfg.write_mode = mode;
    cfg.promote_on_hit = false;
    TieredColdStore tiered({&fast, &deep}, cfg);
    ASSERT_TRUE(tiered.put("k", Blob{1}, 1 * units::MB, 0.0).accepted);
    (void)tiered.flush(0.5);
    ASSERT_TRUE(tiered.put("k", Blob{2}, huge, 1.0).accepted);
    EXPECT_FALSE(fast.contains("k"));  // stale v1 dropped
    const auto got = tiered.get("k", 2.0);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(*got.blob, Blob{2});
    EXPECT_EQ(got.logical_bytes, huge);
    EXPECT_EQ(tiered.flush(3.0).drained, 0U);  // nothing stale left to drain
    const auto still = deep.get("k", 4.0);
    ASSERT_TRUE(still.found);
    EXPECT_EQ(*still.blob, Blob{2});
  }
}

TEST(TieredWriteBackMiddleTier, MiddleTierAcceptanceIsStillDirty) {
  // Three tiers: a *full* fixed SSD, a cloud cache, the object store. A
  // write the SSD refuses lands in the middle cache — and must still be
  // owed to the object store, or the cache's next eviction loses it.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.auto_scale = false;
  LocalSsdBackend full_ssd(ssd_cfg, PricingCatalog::aws());
  ASSERT_TRUE(full_ssd
                  .put("filler", Blob(8),
                       PricingCatalog::aws().ssd_device_capacity, 0.0)
                  .accepted);
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend middle(cache_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&full_ssd, &middle, &deep}, cfg);

  const auto put = tiered.put("x", Blob{5}, 1 * units::MB, 1.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_FALSE(full_ssd.contains("x"));
  EXPECT_TRUE(middle.contains("x"));
  EXPECT_FALSE(deep.contains("x"));
  EXPECT_EQ(tiered.dirty_count(), 1U);  // middle tier is not durable

  EXPECT_EQ(tiered.flush(2.0).drained, 1U);
  EXPECT_TRUE(deep.contains("x"));
  EXPECT_EQ(tiered.dirty_count(), 0U);
}

TEST(TieredWriteBackEviction, EvictedDirtyObjectIsCountedNotSilent) {
  // A fixed 1-node cache as the write-back fast tier: enough churn evicts
  // a dirty object before any flush. The bytes are gone (the crash
  // window); the composition must count it, not pretend the drain was
  // complete.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &deep}, cfg);

  const auto half = PricingCatalog::aws().cache_node_capacity / 2;
  ASSERT_TRUE(tiered.put("victim", Blob{1}, half, 0.0).accepted);
  ASSERT_TRUE(tiered.put("a", Blob{2}, half, 1.0).accepted);
  ASSERT_TRUE(tiered.put("b", Blob{3}, half, 2.0).accepted);  // evicts victim
  ASSERT_FALSE(fast.contains("victim"));
  EXPECT_EQ(tiered.flush(3.0).drained, 2U);  // a + b drained
  EXPECT_EQ(tiered.dropped_dirty_count(), 1U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
}

TEST(TieredWriteBackFlushRejection, RefusedDrainStaysDirtyForRetry) {
  // Deepest tier full and fixed: the drain is refused — the object must
  // stay dirty (and alive in the fast tier) so a later flush can retry,
  // not silently vanish from the dirty set.
  LocalSsdBackend::Config deep_cfg;
  deep_cfg.auto_scale = false;
  LocalSsdBackend full_deep(deep_cfg, PricingCatalog::aws());
  ASSERT_TRUE(full_deep
                  .put("filler", Blob(8),
                       PricingCatalog::aws().ssd_device_capacity, 0.0)
                  .accepted);
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &full_deep}, cfg);

  ASSERT_TRUE(tiered.put("y", Blob{6}, 1 * units::MB, 1.0).accepted);
  EXPECT_EQ(tiered.dirty_count(), 1U);
  EXPECT_EQ(tiered.flush(2.0).drained, 0U);    // deepest tier refused the drain
  EXPECT_EQ(tiered.dirty_count(), 1U);  // still owed — retried next flush
  EXPECT_TRUE(tiered.get("y", 3.0).found);
}

TEST(TieredPromotionOrdering, PromotionAdmitsAtReadCompletionNotIssueTime) {
  // Regression: the promotion put used to be stamped at `now`, letting it
  // consume a fast-tier throttle token *before* the deep-tier read that
  // produces its bytes had completed — promotions jumped the throttle
  // queue ahead of the request that caused them.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  ssd_cfg.throttle = Throttle::Config{/*ops_per_s=*/1.0, /*burst_ops=*/2.0};
  LocalSsdBackend fast(ssd_cfg, PricingCatalog::aws());
  (void)deep.put("k", Blob(64), 10 * units::MB, 0.0);
  TieredColdStore tiered({&fast, &deep});

  const auto got = tiered.get("k", 0.0);  // probe takes one of two tokens
  ASSERT_TRUE(got.found);
  const double read_done = got.latency_s;  // ~1.4 s deep-tier transfer
  ASSERT_GT(read_done, 1.0);
  EXPECT_TRUE(fast.contains("k"));  // promotion did land

  // An op issued at 0.5 — after the get was issued, before its deep read
  // completed — must find the second token free: the promotion's token is
  // only consumed at read-completion time, behind this op.
  const auto mid = fast.get("unrelated", 0.5);
  EXPECT_NEAR(mid.latency_s, sim::local_ssd_link().first_byte_latency_s,
              1e-12);
  EXPECT_EQ(fast.stats().throttled_ops, 0U);
  EXPECT_DOUBLE_EQ(fast.stats().throttle_wait_s, 0.0);
}

TEST(TieredOccupancy, DirtyResidentsCountInStoredLogicalBytes) {
  // Regression: occupancy used to report only the deepest tier, so a
  // write-back store with un-flushed objects claimed zero resident bytes
  // while dirty_count() was nonzero.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  LocalSsdBackend fast(ssd_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &deep}, cfg);

  ASSERT_TRUE(tiered.put("a", Blob{1}, 3 * units::MB, 0.0).accepted);
  ASSERT_TRUE(tiered.put("b", Blob{2}, 2 * units::MB, 1.0).accepted);
  EXPECT_EQ(tiered.dirty_count(), 2U);
  EXPECT_EQ(deep.stored_logical_bytes(), 0U);
  EXPECT_EQ(tiered.stored_logical_bytes(), 5 * units::MB);

  // Draining moves the bytes to the deep tier without double counting.
  EXPECT_EQ(tiered.flush(2.0).drained, 2U);
  EXPECT_EQ(tiered.stored_logical_bytes(), 5 * units::MB);

  // An overwritten object keeps its (stale) deep-tier copy until flush, so
  // the deduplicated count stays at the deep version's size until the
  // drain replaces it with the new one.
  ASSERT_TRUE(tiered.put("a", Blob{3}, 4 * units::MB, 3.0).accepted);
  EXPECT_EQ(tiered.stored_logical_bytes(), 5 * units::MB);
  EXPECT_EQ(tiered.flush(4.0).drained, 1U);
  EXPECT_EQ(tiered.stored_logical_bytes(), 6 * units::MB);
}

TEST(TieredOccupancy, CapacityReflectsTheWriteMode) {
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.auto_scale = false;
  ssd_cfg.link = sim::local_ssd_link();
  LocalSsdBackend deep(ssd_cfg, PricingCatalog::aws());

  // Write-through: durability is authoritative in the deepest tier.
  TieredColdStore through({&fast, &deep});
  EXPECT_EQ(through.capacity_bytes(), deep.capacity_bytes());

  // Write-back: distinct objects can be resident in different tiers.
  TieredColdStore::Config wb;
  wb.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore back({&fast, &deep}, wb);
  EXPECT_EQ(back.capacity_bytes(),
            fast.capacity_bytes() + deep.capacity_bytes());

  // Any auto-scaling tier makes the write-back composition unbounded.
  ObjectStoreBackend unbounded(sim::objstore_link(), PricingCatalog::aws());
  TieredColdStore open({&fast, &unbounded}, wb);
  EXPECT_EQ(open.capacity_bytes(), 0U);
}

TEST(TieredLedger, InvalidationOnlyRemovesFromTiersThatHoldACopy) {
  // Regression: write-through used to call remove() on a tier for every
  // item the tier rejected — including items that tier never held,
  // inflating its OpStats::removes ledger.
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  TieredColdStore tiered({&fast, &deep});

  const auto huge = 2 * PricingCatalog::aws().cache_node_capacity;
  // Fresh writes the cache refuses: no copy to invalidate, so no remove.
  ASSERT_TRUE(tiered.put("huge-single", Blob{1}, huge, 0.0).accepted);
  std::vector<PutRequest> batch;
  batch.push_back(PutRequest{"huge-batch", Blob{2}, huge});
  batch.push_back(PutRequest{"small", Blob{3}, 1 * units::MB});
  const auto res = tiered.put_batch(std::move(batch), 1.0);
  EXPECT_EQ(res.stored, 2U);
  EXPECT_EQ(fast.stats().removes, 0U);

  // An overwrite the cache refuses *does* invalidate its stale copy —
  // exactly one remove, for exactly the object it held.
  ASSERT_TRUE(fast.contains("small"));
  ASSERT_TRUE(tiered.put("small", Blob{4}, huge, 2.0).accepted);
  EXPECT_FALSE(fast.contains("small"));
  EXPECT_EQ(fast.stats().removes, 1U);
}

TEST(TieredWriteBackPromotionEviction, PromotionEvictingDirtyIsCounted) {
  // A promotion into a bounded write-back fast tier can LRU-evict a
  // *dirty* object: the un-flushed bytes are gone, and the crash window
  // must be visible in dropped_dirty_count() after flush().
  ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  CloudCacheBackend fast(cache_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &deep}, cfg);

  const auto node = PricingCatalog::aws().cache_node_capacity;
  ASSERT_TRUE(tiered.put("dirty", Blob{7}, node / 2, 0.0).accepted);
  EXPECT_EQ(tiered.dirty_count(), 1U);

  // An object living only in the deep tier, big enough that promoting it
  // evicts the dirty resident.
  (void)deep.put("cold-obj", Blob{5}, (3 * node) / 4, 0.0);
  ASSERT_TRUE(tiered.get("cold-obj", 1.0).found);
  EXPECT_TRUE(fast.contains("cold-obj"));   // promoted
  EXPECT_FALSE(fast.contains("dirty"));     // evicted before any flush
  EXPECT_EQ(fast.evictions(), 1U);

  const auto flushed = tiered.flush(2.0);
  EXPECT_EQ(flushed.drained, 0U);
  EXPECT_EQ(tiered.dropped_dirty_count(), 1U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
}

}  // namespace
}  // namespace flstore::backend
