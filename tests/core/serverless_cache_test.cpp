#include "core/serverless_cache.hpp"

#include <gtest/gtest.h>

#include "cloud/pricing.hpp"

namespace flstore::core {
namespace {

using units::GB;
using units::MB;

std::shared_ptr<const Blob> blob(std::uint8_t v = 1) {
  return std::make_shared<const Blob>(Blob{v});
}

struct PoolFixture : ::testing::Test {
  PoolFixture() : runtime(FunctionRuntime::Config{}, PricingCatalog::aws()) {}

  ServerlessCachePool make_pool(int replicas = 1, std::int32_t max_groups = 0,
                                units::Bytes memory = 1 * GB) {
    return ServerlessCachePool(
        ServerlessCachePool::Config{memory, replicas, max_groups},
        runtime);
  }

  FunctionRuntime runtime;
};

TEST_F(PoolFixture, PutSpawnsGroupsOnDemand) {
  auto pool = make_pool();
  EXPECT_EQ(pool.group_count(), 0U);
  const auto g1 = pool.put("a", blob(), 700 * MB);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(pool.group_count(), 1U);
  // Second object does not fit in group 0 -> new group.
  const auto g2 = pool.put("b", blob(), 700 * MB);
  ASSERT_TRUE(g2.has_value());
  EXPECT_NE(*g1, *g2);
  EXPECT_EQ(pool.group_count(), 2U);
  // Small object first-fits into group 0.
  const auto g3 = pool.put("c", blob(), 100 * MB);
  ASSERT_TRUE(g3.has_value());
  EXPECT_EQ(*g3, *g1);
}

TEST_F(PoolFixture, GetReadsBack) {
  auto pool = make_pool();
  const auto g = pool.put("a", blob(42), 10 * MB);
  ASSERT_TRUE(g.has_value());
  const auto access = pool.get(*g, "a");
  ASSERT_TRUE(access.ok);
  EXPECT_EQ((*access.blob)[0], 42);
  EXPECT_DOUBLE_EQ(access.failover_delay_s, 0.0);
}

TEST_F(PoolFixture, ReplicationWritesAllMembers) {
  auto pool = make_pool(3);
  const auto g = pool.put("a", blob(7), 10 * MB);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(runtime.total_spawned(), 3U);
  EXPECT_EQ(pool.warm_members(*g), 3);
  for (FunctionId id = 0; id < 3; ++id) {
    EXPECT_TRUE(runtime.instance(id).has_object("a"));
  }
}

TEST_F(PoolFixture, FailoverSkipsDeadMembersWithTimeout) {
  auto pool = make_pool(3);
  const auto g = pool.put("a", blob(7), 10 * MB);
  ASSERT_TRUE(g.has_value());
  ASSERT_FALSE(pool.reclaim_member(*g, 0));
  const auto access = pool.get(*g, "a");
  ASSERT_TRUE(access.ok);
  EXPECT_DOUBLE_EQ(access.failover_delay_s, 0.5);
  EXPECT_EQ(access.function, 1);
}

TEST_F(PoolFixture, GroupDiesWhenAllMembersReclaimed) {
  auto pool = make_pool(2);
  const auto g = pool.put("a", blob(), 10 * MB);
  ASSERT_TRUE(g.has_value());
  EXPECT_FALSE(pool.reclaim_member(*g, 0));
  EXPECT_TRUE(pool.reclaim_member(*g, 1));
  EXPECT_FALSE(pool.group_alive(*g));
  const auto access = pool.get(*g, "a");
  EXPECT_FALSE(access.ok);
  EXPECT_DOUBLE_EQ(access.failover_delay_s, 1.0);  // two timeouts burned
}

TEST_F(PoolFixture, RepairCopiesFromSurvivor) {
  auto pool = make_pool(2);
  const auto g = pool.put("a", blob(9), 10 * MB);
  ASSERT_TRUE(g.has_value());
  ASSERT_FALSE(pool.reclaim_member(*g, 0));
  EXPECT_TRUE(pool.repair(*g));
  EXPECT_EQ(pool.warm_members(*g), 2);
  // Fresh member holds the object.
  const auto access = pool.get(*g, "a");
  ASSERT_TRUE(access.ok);
  EXPECT_DOUBLE_EQ(access.failover_delay_s, 0.0);
  EXPECT_EQ((*access.blob)[0], 9);
}

TEST_F(PoolFixture, RepairFailsWhenGroupFullyDead) {
  auto pool = make_pool(1);
  const auto g = pool.put("a", blob(), 10 * MB);
  ASSERT_TRUE(g.has_value());
  ASSERT_TRUE(pool.reclaim_member(*g, 0));
  EXPECT_FALSE(pool.repair(*g));
}

TEST_F(PoolFixture, MaxGroupsBoundsThePool) {
  auto pool = make_pool(1, /*max_groups=*/1);
  ASSERT_TRUE(pool.put("a", blob(), 700 * MB).has_value());
  EXPECT_FALSE(pool.put("b", blob(), 700 * MB).has_value());
  EXPECT_EQ(pool.group_count(), 1U);
}

TEST_F(PoolFixture, ObjectBiggerThanFunctionRejected) {
  auto pool = make_pool();
  EXPECT_FALSE(pool.put("huge", blob(), 2 * GB).has_value());
}

TEST_F(PoolFixture, EvictFreesSpaceOnAllReplicas) {
  auto pool = make_pool(2);
  const auto g = pool.put("a", blob(), 600 * MB);
  ASSERT_TRUE(g.has_value());
  pool.evict(*g, "a");
  EXPECT_FALSE(pool.get(*g, "a").ok);
  EXPECT_EQ(pool.group_free(*g), 1 * GB);
}

TEST_F(PoolFixture, FirstFitChecksRoomOnEveryWarmReplica) {
  // Regression: put() admitted a group on the *first* warm member's free
  // space, then wrote to every warm replica — overflowing a fuller sibling
  // when the replicas had drifted apart.
  auto pool = make_pool(2);
  const auto g = pool.put("a", blob(), 600 * MB);
  ASSERT_TRUE(g.has_value());
  // Drift: member 0 loses "a" (inconsistent eviction), member 1 keeps it.
  ASSERT_TRUE(runtime.instance(0).evict_object("a"));
  EXPECT_EQ(runtime.instance(0).free_bytes(), 1 * GB);
  EXPECT_EQ(runtime.instance(1).free_bytes(), 400 * MB);
  // 500 MB fits member 0 but not member 1: the group must be skipped and a
  // fresh one spawned (the old code tripped put_object's fit invariant).
  const auto g2 = pool.put("b", blob(), 500 * MB);
  ASSERT_TRUE(g2.has_value());
  EXPECT_NE(*g2, *g);
  EXPECT_FALSE(runtime.instance(1).has_object("b"));
  EXPECT_LE(runtime.instance(1).used(), 1 * GB);
}

TEST_F(PoolFixture, FirstFitStillRefreshesResidentObjects) {
  auto pool = make_pool(2);
  const auto g = pool.put("a", blob(1), 600 * MB);
  ASSERT_TRUE(g.has_value());
  ASSERT_TRUE(runtime.instance(0).evict_object("a"));
  // Member 1 is full, but it already holds "a": a rewrite replaces in
  // place, so the group still fits and member 0 gets its copy back.
  const auto g2 = pool.put("a", blob(2), 600 * MB);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(*g2, *g);
  EXPECT_TRUE(runtime.instance(0).has_object("a"));
  EXPECT_TRUE(runtime.instance(1).has_object("a"));
}

TEST_F(PoolFixture, LocateRankMapsSpawnOrder) {
  auto pool = make_pool(2);
  (void)pool.put("a", blob(), 700 * MB);  // group 0: ranks 0,1
  (void)pool.put("b", blob(), 700 * MB);  // group 1: ranks 2,3
  const auto r0 = pool.locate_rank(0);
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->first, 0);
  EXPECT_EQ(r0->second, 0);
  const auto r3 = pool.locate_rank(3);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->first, 1);
  EXPECT_EQ(r3->second, 1);
  EXPECT_FALSE(pool.locate_rank(4).has_value());
}

}  // namespace
}  // namespace flstore::core
