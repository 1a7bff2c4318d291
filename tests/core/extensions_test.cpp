// Tests for the paper's extension features: multi-tenancy (Appendix A),
// adaptive policy selection (future work, §4.4/§D) and foundation-model
// sharding (Appendix D).
#include <gtest/gtest.h>

#include "backend/object_store_backend.hpp"
#include "core/adaptive_policy.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"

namespace flstore::core {
namespace {

// --- multi-tenancy ----------------------------------------------------------
// Appendix A's isolated per-tenant caches over one shared cold tier: a
// serving plane with one cache shard per tenant.

struct MultiTenantFixture : ::testing::Test {
  MultiTenantFixture()
      : cold(sim::objstore_link(), PricingCatalog::aws()), plane(cold) {
    fed::FLJobConfig a;
    a.model = "resnet18";
    a.pool_size = 30;
    a.clients_per_round = 6;
    a.rounds = 20;
    a.seed = 1;
    fed::FLJobConfig b = a;
    b.model = "mobilenet_v3_small";
    b.seed = 2;
    job_a = std::make_unique<fed::FLJob>(a);
    job_b = std::make_unique<fed::FLJob>(b);
  }

  /// The tenant's cache (its one shard).
  [[nodiscard]] const FLStore& tenant(JobId id) const {
    return plane.shard(plane.tenant_primary_shard(id));
  }

  backend::ObjectStoreBackend cold;
  serve::ShardedStore plane;
  std::unique_ptr<fed::FLJob> job_a;
  std::unique_ptr<fed::FLJob> job_b;
};

TEST_F(MultiTenantFixture, TenantsAreIsolated) {
  const auto ta = plane.add_tenant(*job_a);
  const auto tb = plane.add_tenant(*job_b);
  EXPECT_NE(ta, tb);
  EXPECT_EQ(plane.tenant_count(), 2U);

  plane.ingest_round(ta, job_a->make_round(0), 0.0);
  // Tenant A's cache holds round 0; tenant B's cache is empty.
  EXPECT_GT(tenant(ta).engine().cached_bytes(), 0U);
  EXPECT_EQ(tenant(tb).engine().cached_bytes(), 0U);
  // Function pools are disjoint.
  EXPECT_GT(tenant(ta).pool().group_count(), 0U);
  EXPECT_EQ(tenant(tb).pool().group_count(), 0U);
}

TEST_F(MultiTenantFixture, PerTenantPolicyConfiguration) {
  FLStoreConfig lru_cfg;
  lru_cfg.policy.mode = PolicyMode::kLru;
  const auto ta = plane.add_tenant(*job_a);           // tailored
  const auto tb = plane.add_tenant(*job_b, lru_cfg);  // traditional
  EXPECT_EQ(tenant(ta).config().policy.mode, PolicyMode::kTailored);
  EXPECT_EQ(tenant(tb).config().policy.mode, PolicyMode::kLru);
}

TEST_F(MultiTenantFixture, ServesBothTenantsIndependently) {
  const auto ta = plane.add_tenant(*job_a);
  const auto tb = plane.add_tenant(*job_b);
  plane.ingest_round(ta, job_a->make_round(0), 0.0);
  plane.ingest_round(tb, job_b->make_round(0), 0.0);

  fed::NonTrainingRequest req{1, fed::WorkloadType::kClustering, 0, kNoClient,
                              10.0};
  const auto ra = plane.serve({ta, req}, 10.0);
  const auto rb = plane.serve({tb, req}, 10.0);
  EXPECT_EQ(ra.misses, 0U);
  EXPECT_EQ(rb.misses, 0U);
  // Different models -> different compute footprints.
  EXPECT_NE(ra.comp_s, rb.comp_s);
}

TEST_F(MultiTenantFixture, UnknownTenantThrows) {
  EXPECT_THROW((void)plane.tenant_primary_shard(42), InvalidArgument);
}

TEST_F(MultiTenantFixture, InfrastructureCostSumsTenants) {
  const auto ta = plane.add_tenant(*job_a);
  const auto tb = plane.add_tenant(*job_b);
  plane.ingest_round(ta, job_a->make_round(0), 0.0);
  plane.ingest_round(tb, job_b->make_round(0), 0.0);
  const double d = 3600.0;
  EXPECT_NEAR(plane.infrastructure_cost(d),
              tenant(ta).infrastructure_cost(d) +
                  tenant(tb).infrastructure_cost(d),
              1e-12);
}

// --- adaptive policy selection ----------------------------------------------

TEST(AdaptivePolicy, ConvergesToTheRewardingClass) {
  AdaptivePolicySelector selector;
  Rng rng(5);
  // Simulated environment: P3 yields 0.98 hit rate, everything else ~0.1
  // (an across-round tracking workload the taxonomy does not know).
  for (int i = 0; i < 500; ++i) {
    const auto cls = selector.choose();
    const double reward =
        cls == fed::PolicyClass::kP3 ? 0.98 : rng.uniform(0.0, 0.2);
    selector.report(cls, reward);
  }
  EXPECT_EQ(selector.best(), fed::PolicyClass::kP3);
  EXPECT_GT(selector.mean_reward(fed::PolicyClass::kP3), 0.9);
  // Exploitation dominates: most pulls went to the winner.
  EXPECT_GT(selector.pulls(fed::PolicyClass::kP3),
            selector.total_pulls() / 2);
}

TEST(AdaptivePolicy, OptimisticInitExploresEveryArm) {
  AdaptivePolicySelector selector;
  for (int i = 0; i < 200; ++i) {
    const auto cls = selector.choose();
    selector.report(cls, 0.5);
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_GT(selector.pulls(static_cast<fed::PolicyClass>(c)), 0U)
        << "arm " << c << " never explored";
  }
}

TEST(AdaptivePolicy, RejectsOutOfRangeReward) {
  AdaptivePolicySelector selector;
  EXPECT_THROW(selector.report(fed::PolicyClass::kP1, 1.5), InternalError);
  EXPECT_THROW(selector.report(fed::PolicyClass::kP1, -0.1), InternalError);
}

TEST(AdaptivePolicy, DeterministicGivenSeed) {
  AdaptivePolicySelector a, b;
  for (int i = 0; i < 50; ++i) {
    const auto ca = a.choose();
    const auto cb = b.choose();
    EXPECT_EQ(ca, cb);
    a.report(ca, 0.3);
    b.report(cb, 0.3);
  }
}

TEST(AdaptivePolicy, SuggestedBudgetsFollowLearnedPressure) {
  using units::MB;
  AdaptivePolicySelector selector;
  // P2: heavy traffic, poor hit rate -> the biggest claim on the bytes.
  for (int i = 0; i < 30; ++i) selector.report(fed::PolicyClass::kP2, 0.1);
  // P1: heavy traffic but already hitting -> little marginal value.
  for (int i = 0; i < 30; ++i) selector.report(fed::PolicyClass::kP1, 0.95);
  // P3: a few poor pulls; P4 never pulled.
  for (int i = 0; i < 5; ++i) selector.report(fed::PolicyClass::kP3, 0.2);

  const auto total = 1000 * MB;
  const auto floor = 50 * MB;
  const auto budgets = selector.suggest_budgets(total, floor);
  units::Bytes sum = 0;
  for (const auto b : budgets) {
    EXPECT_GE(b, floor);
    sum += b;
  }
  EXPECT_EQ(sum, total);
  const auto of = [&](fed::PolicyClass c) {
    return budgets[fed::class_index(c)];
  };
  EXPECT_GT(of(fed::PolicyClass::kP2), of(fed::PolicyClass::kP1));
  EXPECT_GT(of(fed::PolicyClass::kP2), of(fed::PolicyClass::kP3));
  EXPECT_EQ(of(fed::PolicyClass::kP4), floor);  // no pulls, no claim
}

TEST(AdaptivePolicy, SuggestedBudgetsSplitEvenlyBeforeAnyPull) {
  using units::MB;
  AdaptivePolicySelector selector;
  const auto budgets = selector.suggest_budgets(400 * MB, 10 * MB);
  for (const auto b : budgets) EXPECT_EQ(b, 100 * MB);
}

// --- foundation-model sharding ----------------------------------------------

struct ShardingFixture : ::testing::Test {
  ShardingFixture()
      : runtime(FunctionRuntime::Config{}, PricingCatalog::aws()),
        pool(ServerlessCachePool::Config{10 * units::GB, 1, 0},
             runtime) {}
  FunctionRuntime runtime;
  ServerlessCachePool pool;
};

TEST_F(ShardingFixture, FoundationModelsRegistered) {
  const auto models = ModelZoo::foundation_models();
  ASSERT_GE(models.size(), 3U);
  bool has_tinyllama = false;
  for (const auto& m : models) {
    if (m.name == "tinyllama_1_1b") {
      has_tinyllama = true;
      // 1.1B fp32 params ≈ 4.4 GB — fits one 10 GB function.
      EXPECT_NEAR(units::to_gb(m.object_bytes), 4.4, 0.2);
    }
  }
  EXPECT_TRUE(has_tinyllama);
  // Fig 19's zoo average is unaffected by the foundation registry.
  EXPECT_NEAR(ModelZoo::instance().average_object_mib(), 160.4, 1.0);
}

TEST_F(ShardingFixture, LargeModelShardsAcrossGroups) {
  // llama2-7b at fp32 ≈ 27 GB: needs 4 shards of ≤8 GB on 10 GB functions.
  const auto& llama = ModelZoo::foundation_models().back();
  ASSERT_GT(llama.object_bytes, pool.config().function_memory);
  const auto blob = std::make_shared<const Blob>(Blob{1});
  const auto placement =
      pool.put_sharded("llama2_7b/agg", blob, llama.object_bytes);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->shards.size(), 4U);
  EXPECT_EQ(placement->total_bytes, llama.object_bytes);

  const auto access = pool.get_sharded(*placement, "llama2_7b/agg");
  EXPECT_TRUE(access.ok);
  EXPECT_EQ(access.shards_read, 4);
}

TEST_F(ShardingFixture, SmallObjectGetsSingleShard) {
  const auto blob = std::make_shared<const Blob>(Blob{1});
  const auto placement = pool.put_sharded("small", blob, 1 * units::GB);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->shards.size(), 1U);
}

TEST_F(ShardingFixture, LostShardBreaksThePipeline) {
  const auto blob = std::make_shared<const Blob>(Blob{1});
  const auto placement = pool.put_sharded("big", blob, 20 * units::GB);
  ASSERT_TRUE(placement.has_value());
  ASSERT_GE(placement->shards.size(), 2U);
  pool.reclaim_member(placement->shards[1], 0);
  const auto access = pool.get_sharded(*placement, "big");
  EXPECT_FALSE(access.ok);
  EXPECT_LT(access.shards_read, static_cast<int>(placement->shards.size()));
}

TEST_F(ShardingFixture, BoundedPoolRollsBackPartialPlacement) {
  FunctionRuntime rt(FunctionRuntime::Config{}, PricingCatalog::aws());
  ServerlessCachePool bounded(
      ServerlessCachePool::Config{10 * units::GB, 1, /*max_groups=*/2},
      rt);
  const auto blob = std::make_shared<const Blob>(Blob{1});
  // 27 GB needs 4 groups; only 2 allowed -> rejected, nothing left behind.
  const auto placement = bounded.put_sharded("big", blob, 27 * units::GB);
  EXPECT_FALSE(placement.has_value());
  for (GroupId g = 0; g < static_cast<GroupId>(bounded.group_count()); ++g) {
    EXPECT_EQ(bounded.group_free(g), 10 * units::GB) << "leftover shard";
  }
}

}  // namespace
}  // namespace flstore::core
