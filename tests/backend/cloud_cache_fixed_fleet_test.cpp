// Cache-Agg's data tier: a fixed-fleet backend::CloudCacheBackend
// (auto_scale off), so over-capacity writes evict LRU and an object that
// can never fit is refused. The suite keeps the MemCache name of the
// in-memory cache service these cases first covered.
#include "backend/cloud_cache_backend.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace flstore::backend {
namespace {

using units::MB;

Blob blob(std::uint8_t v) { return Blob{v}; }

CloudCacheBackend::Config fixed_fleet(int nodes) {
  CloudCacheBackend::Config cfg;
  cfg.nodes = nodes;
  cfg.auto_scale = false;
  cfg.link = Link{0.001, 250.0 * 1e6};
  return cfg;
}

CloudCacheBackend make_cache(int nodes = 1) {
  return CloudCacheBackend(fixed_fleet(nodes), PricingCatalog::aws());
}

TEST(MemCache, HitAfterPut) {
  auto c = make_cache();
  (void)c.put("a", blob(1), 100 * MB, 0.0);
  const auto got = c.get("a", 0.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ((*got.blob)[0], 1);
  EXPECT_NEAR(got.latency_s, 0.001 + 0.4, 1e-9);
  EXPECT_EQ(c.stats().gets, 1U);
}

TEST(MemCache, MissCheap) {
  auto c = make_cache();
  const auto got = c.get("missing", 0.0);
  EXPECT_FALSE(got.found);
  EXPECT_NEAR(got.latency_s, 0.001, 1e-12);
  EXPECT_EQ(c.stats().gets, 1U);
}

TEST(MemCache, CapacityFromNodes) {
  auto c1 = make_cache(1);
  auto c3 = make_cache(3);
  EXPECT_EQ(c3.capacity_bytes(), 3 * c1.capacity_bytes());
  EXPECT_EQ(c1.capacity_bytes(), PricingCatalog::aws().cache_node_capacity);
}

TEST(MemCache, LruEvictionOrder) {
  auto c = make_cache();
  const auto cap = c.capacity_bytes();
  const auto third = cap / 3 + 1;  // three objects overflow
  (void)c.put("a", blob(1), third, 0.0);
  (void)c.put("b", blob(2), third, 0.0);
  // Touch "a" so "b" is the LRU victim.
  (void)c.get("a", 0.0);
  (void)c.put("c", blob(3), third, 0.0);
  EXPECT_TRUE(c.contains("a"));
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("c"));
  EXPECT_EQ(c.evictions(), 1U);
}

TEST(MemCache, UsedBytesTracked) {
  auto c = make_cache();
  (void)c.put("a", blob(1), 10 * MB, 0.0);
  (void)c.put("b", blob(2), 5 * MB, 0.0);
  EXPECT_EQ(c.stored_logical_bytes(), 15 * MB);
  (void)c.put("a", blob(9), 2 * MB, 0.0);  // replace shrinks usage
  EXPECT_EQ(c.stored_logical_bytes(), 7 * MB);
}

TEST(MemCache, ObjectLargerThanCapacityRejected) {
  auto c = make_cache();
  const auto put = c.put("big", blob(1), c.capacity_bytes() + 1, 0.0);
  EXPECT_FALSE(put.accepted);
  EXPECT_FALSE(c.contains("big"));
  EXPECT_EQ(c.stored_logical_bytes(), 0U);
}

TEST(MemCache, EvictsMultipleToFit) {
  auto c = make_cache();
  const auto cap = c.capacity_bytes();
  (void)c.put("a", blob(1), cap / 2, 0.0);
  (void)c.put("b", blob(2), cap / 2, 0.0);
  (void)c.put("big", blob(3), cap - 10, 0.0);
  EXPECT_FALSE(c.contains("a"));
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("big"));
  EXPECT_EQ(c.evictions(), 2U);
}

TEST(MemCache, ProvisioningCostByNodeHours) {
  auto c = make_cache(4);
  EXPECT_NEAR(c.idle_cost(3600.0), 4 * 0.411, 1e-9);
}

TEST(MemCache, RequiresAtLeastOneNode) {
  EXPECT_THROW(CloudCacheBackend(fixed_fleet(0), PricingCatalog::aws()),
               InternalError);
}

TEST(MemCache, GetRefreshesLruOnEveryAccess) {
  auto c = make_cache();
  const auto cap = c.capacity_bytes();
  const auto half = cap / 2 + 1;
  (void)c.put("a", blob(1), half, 0.0);
  (void)c.put("b", blob(2), half, 0.0);  // evicts a
  EXPECT_FALSE(c.contains("a"));
  (void)c.get("b", 0.0);
  // Evicts b: the only entry, touched or not.
  (void)c.put("c", blob(3), half, 0.0);
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("c"));
}

}  // namespace
}  // namespace flstore::backend
