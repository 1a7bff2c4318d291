// FlushScheduler: ingest-driven write-back drains (age deadline fired
// retroactively at the deadline, byte threshold, round-boundary legacy
// cadence, bounded slices), the crash-consistency ledger, crash()
// semantics, and the plumb-through into core::FLStore / serve::ShardedStore
// / sim::Scenario.
#include "backend/flush_scheduler.hpp"

#include <gtest/gtest.h>

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

using backend::FlushPolicy;
using backend::FlushScheduler;
using backend::TieredColdStore;
using units::MB;

/// Built into a fresh string: `"o" + std::to_string(i)` trips GCC 12's
/// -Wrestrict false positive (PR 105329) at -O3.
std::string object_name(std::size_t i) {
  std::string name;
  name.push_back('o');
  name += std::to_string(i);
  return name;
}

struct WriteBackFixture : ::testing::Test {
  WriteBackFixture()
      : deep(sim::objstore_link(), PricingCatalog::aws()),
        ssd(ssd_config(), PricingCatalog::aws()),
        tiered({&ssd, &deep}, write_back()) {}

  static backend::LocalSsdBackend::Config ssd_config() {
    backend::LocalSsdBackend::Config cfg;
    cfg.link = sim::local_ssd_link();
    return cfg;
  }
  static TieredColdStore::Config write_back() {
    TieredColdStore::Config cfg;
    cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
    return cfg;
  }

  backend::ObjectStoreBackend deep;
  backend::LocalSsdBackend ssd;
  TieredColdStore tiered;
};

TEST_F(WriteBackFixture, AgeDeadlineFiresRetroactivelyAtTheDeadline) {
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_age_s = 30.0;
  FlushScheduler sched(tiered, policy);

  ASSERT_TRUE(tiered.put("k", Blob{1}, 8 * MB, 0.0).accepted);
  EXPECT_EQ(sched.observe(0.0).drained, 0U);  // age 0: nothing due
  EXPECT_FALSE(deep.contains("k"));

  // The next observation arrives long after the deadline: the drain fires
  // stamped at t=30 (when the daemon would have woken), so the recorded
  // peak age is exactly the threshold, never the observation gap.
  const auto drained = sched.observe(100.0);
  EXPECT_EQ(drained.drained, 1U);
  EXPECT_EQ(drained.drained_bytes, 8 * MB);
  EXPECT_TRUE(deep.contains("k"));
  const auto stats = sched.dirty_window_stats(100.0);
  EXPECT_EQ(stats.age_flushes, 1U);
  EXPECT_EQ(stats.flushes, 1U);
  EXPECT_DOUBLE_EQ(stats.peak_oldest_dirty_age_s, 30.0);
  EXPECT_EQ(stats.acked_unflushed, 0U);
  EXPECT_EQ(stats.dirty_bytes, 0U);
  // 8 MB at risk for exactly 30 s, then clean: the integral must not
  // carry the pre-drain level across the rest of the observation gap.
  EXPECT_NEAR(stats.bytes_at_risk_integral, 8e6 * 30.0, 1.0);
}

TEST_F(WriteBackFixture, ByteThresholdDrainsAtTheTrip) {
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_bytes = 8 * MB;
  FlushScheduler sched(tiered, policy);

  ASSERT_TRUE(tiered.put("a", Blob{1}, 4 * MB, 0.0).accepted);
  EXPECT_EQ(sched.observe(0.0).drained, 0U);  // 4 MB < 8 MB
  ASSERT_TRUE(tiered.put("b", Blob{2}, 4 * MB, 1.0).accepted);
  const auto drained = sched.observe(1.0);
  EXPECT_EQ(drained.drained, 2U);
  EXPECT_EQ(drained.drained_bytes, 8 * MB);
  EXPECT_TRUE(deep.contains("a"));
  EXPECT_TRUE(deep.contains("b"));

  const auto stats = sched.dirty_window_stats(1.0);
  EXPECT_EQ(stats.byte_flushes, 1U);
  // The window tripped at exactly the threshold and never exceeded it.
  EXPECT_EQ(stats.peak_dirty_bytes, 8 * MB);
}

TEST_F(WriteBackFixture, RoundBoundaryReproducesTheLegacyCadence) {
  FlushScheduler sched(tiered, FlushPolicy{});  // defaults: round-only
  ASSERT_TRUE(tiered.put("k", Blob{1}, 4 * MB, 0.0).accepted);
  EXPECT_EQ(sched.observe(5.0).drained, 0U);  // not a boundary
  EXPECT_EQ(tiered.dirty_count(), 1U);
  const auto drained = sched.observe(10.0, /*round_boundary=*/true);
  EXPECT_EQ(drained.drained, 1U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
  EXPECT_EQ(sched.dirty_window_stats(10.0).round_flushes, 1U);
}

TEST_F(WriteBackFixture, BoundedSlicesDrainInMultipleAdmissions) {
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_bytes = 1;  // any dirty byte trips
  policy.max_drain_objects = 2;
  FlushScheduler sched(tiered, policy);

  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(tiered
                    .put(object_name(i), Blob{1}, 1 * MB,
                         static_cast<double>(i))
                    .accepted);
  }
  const auto before = deep.stats().batches;
  const auto drained = sched.observe(10.0);
  EXPECT_EQ(drained.drained, 5U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
  // 2 + 2 + 1: each slice is one batched admission against the durable
  // tier's throttle, so a single trigger cannot hog the token bucket.
  EXPECT_EQ(deep.stats().batches - before, 3U);
  EXPECT_EQ(sched.dirty_window_stats(10.0).byte_flushes, 3U);
}

TEST(FlushRefusal, RefusedDrainReportsByteCountsAndStaysDirty) {
  // Deepest tier full and fixed: the drain is refused — flush() must say
  // so in object *and* byte counts (the forward-progress contract), and
  // the object keeps its original dirty-since stamp for the next retry.
  backend::LocalSsdBackend::Config deep_cfg;
  deep_cfg.auto_scale = false;
  backend::LocalSsdBackend full_deep(deep_cfg, PricingCatalog::aws());
  ASSERT_TRUE(full_deep
                  .put("filler", Blob(8),
                       PricingCatalog::aws().ssd_device_capacity, 0.0)
                  .accepted);
  backend::LocalSsdBackend::Config fast_cfg;
  fast_cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend fast(fast_cfg, PricingCatalog::aws());
  TieredColdStore::Config cfg;
  cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore tiered({&fast, &full_deep}, cfg);

  ASSERT_TRUE(tiered.put("y", Blob{6}, 3 * MB, 1.0).accepted);
  const auto flushed = tiered.flush(2.0);
  EXPECT_EQ(flushed.drained, 0U);
  EXPECT_EQ(flushed.drained_bytes, 0U);
  EXPECT_EQ(flushed.refused, 1U);
  EXPECT_EQ(flushed.refused_bytes, 3 * MB);
  EXPECT_EQ(tiered.dirty_count(), 1U);
  // The durability debt is as old as the un-flushed ack, not the retry.
  EXPECT_DOUBLE_EQ(tiered.dirty_window().oldest_since_s, 1.0);

  // A scheduler observing the stalled backend books the refusals and does
  // not spin.
  backend::FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_age_s = 0.5;
  backend::FlushScheduler sched(tiered, policy);
  const auto drained = sched.observe(10.0);
  EXPECT_EQ(drained.drained, 0U);
  EXPECT_GE(drained.refused, 1U);
  EXPECT_GE(sched.dirty_window_stats(10.0).refused_drains, 1U);
  EXPECT_EQ(tiered.dirty_count(), 1U);
}

TEST_F(WriteBackFixture, CrashRevertsToLastFlushedVersionAndBooksLosses) {
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  FlushScheduler sched(tiered, policy);

  // v1 made durable, then overwritten dirty; "fresh" never flushed.
  ASSERT_TRUE(tiered.put("k", Blob{1}, 2 * MB, 0.0).accepted);
  (void)sched.flush_now(1.0);
  ASSERT_TRUE(tiered.put("k", Blob{2}, 3 * MB, 2.0).accepted);
  ASSERT_TRUE(tiered.put("fresh", Blob{9}, 4 * MB, 3.0).accepted);
  ASSERT_EQ(tiered.dirty_count(), 2U);

  const auto lost = sched.crash(4.0);
  EXPECT_EQ(lost.lost_objects, 2U);
  EXPECT_EQ(lost.lost_bytes, 7 * MB);
  EXPECT_EQ(tiered.dirty_count(), 0U);

  // "k" reverts to the last flushed version; "fresh" is gone entirely.
  const auto got = tiered.get("k", 5.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, Blob{1});
  EXPECT_EQ(got.logical_bytes, 2 * MB);
  EXPECT_FALSE(tiered.contains("fresh"));
  EXPECT_FALSE(tiered.get("fresh", 6.0).found);

  const auto stats = sched.dirty_window_stats(6.0);
  EXPECT_EQ(stats.crashes, 1U);
  EXPECT_EQ(stats.lost_objects, 2U);
  EXPECT_EQ(stats.lost_bytes, 7 * MB);
  // A crash is not a drain: nothing further owed or booked as flushed.
  EXPECT_EQ(stats.drained_objects, 1U);  // only the explicit flush_now
  // ... and the explicit drain is attributed to its own trigger, not a
  // round boundary that never happened.
  EXPECT_EQ(stats.manual_flushes, 1U);
  EXPECT_EQ(stats.round_flushes, 0U);
}

TEST_F(WriteBackFixture, IngestLoopKeepsTheWindowBounded) {
  // The fig_writeback_window acceptance check as a test: a sustained
  // ingest stream with per-put observations and *no explicit flush* keeps
  // oldest-dirty age <= the age threshold and peak dirty bytes <= the byte
  // threshold (the byte threshold divides the object size evenly, so the
  // trip lands exactly on it).
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_age_s = 5.0;
  policy.max_dirty_bytes = 16 * MB;
  FlushScheduler sched(tiered, policy);

  const double qps = 10.0;
  const auto total = static_cast<std::size_t>(60.0 * qps);
  for (std::size_t i = 0; i < total; ++i) {
    const double now = static_cast<double>(i) / qps;
    ASSERT_TRUE(tiered.put(object_name(i), Blob{1}, 4 * MB, now).accepted);
    (void)sched.observe(now);
  }
  const auto stats = sched.dirty_window_stats(60.0);
  EXPECT_LE(stats.peak_oldest_dirty_age_s, policy.max_dirty_age_s + 1e-9);
  EXPECT_LE(stats.peak_dirty_bytes, policy.max_dirty_bytes);
  EXPECT_GT(stats.flushes, 0U);
  EXPECT_EQ(tiered.dropped_dirty_count(), 0U);
  // Everything past the last un-tripped window is durable.
  EXPECT_GT(deep.stats().puts, 0U);
  EXPECT_EQ(stats.lost_objects, 0U);
}

TEST(FlushSchedulerReplicated, ForwardsWindowFlushAndCrashAcrossRegions) {
  // Two regions, each a write-back tiered stack: the composition's dirty
  // window is the worst region's, flush_window drains every region, and a
  // correlated crash loses the (replicated) window once, not twice.
  backend::LocalSsdBackend::Config fast_cfg;
  fast_cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend fast0(fast_cfg, PricingCatalog::aws());
  backend::LocalSsdBackend fast1(fast_cfg, PricingCatalog::aws());
  backend::ObjectStoreBackend deep0(sim::objstore_link(),
                                    PricingCatalog::aws());
  backend::ObjectStoreBackend deep1(sim::objstore_link(),
                                    PricingCatalog::aws());
  TieredColdStore::Config wb;
  wb.write_mode = TieredColdStore::WriteMode::kWriteBack;
  std::vector<backend::ReplicatedColdStore::Region> regions(2);
  regions[0].name = "r0";
  regions[0].owned = std::make_unique<TieredColdStore>(
      std::vector<backend::StorageBackend*>{&fast0, &deep0}, wb);
  regions[1].name = "r1";
  regions[1].owned = std::make_unique<TieredColdStore>(
      std::vector<backend::StorageBackend*>{&fast1, &deep1}, wb);
  regions[1].wan = sim::interregion_link(1);
  backend::ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 2;
  backend::ReplicatedColdStore repl(std::move(regions), cfg,
                                    PricingCatalog::aws());

  ASSERT_TRUE(repl.put("k", Blob{1}, 4 * MB, 0.0).accepted);
  const auto window = repl.dirty_window();
  EXPECT_EQ(window.objects, 1U);
  EXPECT_EQ(window.bytes, 4 * MB);
  EXPECT_DOUBLE_EQ(window.oldest_since_s, 0.0);

  const auto flushed = repl.flush_window(1.0, 0.5, 0);
  EXPECT_EQ(flushed.drained, 1U);
  EXPECT_EQ(flushed.drained_bytes, 4 * MB);
  EXPECT_TRUE(deep0.contains("k"));
  EXPECT_TRUE(deep1.contains("k"));
  EXPECT_EQ(repl.dirty_window().objects, 0U);

  ASSERT_TRUE(repl.put("j", Blob{2}, 2 * MB, 2.0).accepted);
  const auto lost = repl.crash(3.0);
  EXPECT_EQ(lost.lost_objects, 1U);
  EXPECT_EQ(lost.lost_bytes, 2 * MB);
  EXPECT_EQ(repl.dirty_window().objects, 0U);
  EXPECT_FALSE(repl.contains("j"));
  EXPECT_TRUE(repl.get("k", 4.0).found);  // flushed data survives
}

// --- plumb-through -------------------------------------------------------

fed::FLJobConfig small_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 30;
  cfg.clients_per_round = 6;
  cfg.rounds = 20;
  cfg.seed = 5;
  return cfg;
}

struct FLStorePlumb : ::testing::Test {
  FLStorePlumb()
      : job(small_job()),
        deep(sim::objstore_link(), PricingCatalog::aws()),
        ssd(WriteBackFixture::ssd_config(), PricingCatalog::aws()),
        tiered({&ssd, &deep}, WriteBackFixture::write_back()) {}

  fed::FLJob job;
  backend::ObjectStoreBackend deep;
  backend::LocalSsdBackend ssd;
  TieredColdStore tiered;
};

TEST_F(FLStorePlumb, DefaultPolicyFlushesEveryIngestLikeBefore) {
  core::FLStoreConfig cfg;
  core::FLStore fl(cfg, job, tiered);
  for (RoundId r = 0; r < 3; ++r) {
    fl.ingest_round(job.make_round(r), static_cast<double>(r) * 180.0);
    EXPECT_EQ(tiered.dirty_count(), 0U);  // legacy cadence: always drained
  }
  EXPECT_EQ(fl.flush_scheduler().dirty_window_stats(400.0).round_flushes, 3U);
}

TEST_F(FLStorePlumb, ScheduledPolicyDrainsFromTheIngestCadence) {
  core::FLStoreConfig cfg;
  cfg.cold_flush.flush_on_round_boundary = false;
  cfg.cold_flush.max_dirty_age_s = 200.0;
  core::FLStore fl(cfg, job, tiered);

  fl.ingest_round(job.make_round(0), 0.0);
  EXPECT_GT(tiered.dirty_count(), 0U);  // no round-boundary drain any more
  fl.ingest_round(job.make_round(1), 180.0);  // age 180 < 200: still dirty
  const auto round0 = tiered.dirty_count();
  EXPECT_GT(round0, 0U);

  // The third ingest's backup put_batch observes the scheduler: round
  // 0/1 objects are past their 200 s deadline and drain (stamped at the
  // deadline); round 2's own objects stay dirty.
  fl.ingest_round(job.make_round(2), 360.0);
  EXPECT_GT(deep.stats().puts, 0U);
  const auto stats = fl.flush_scheduler().dirty_window_stats(360.0);
  EXPECT_GE(stats.age_flushes, 1U);
  EXPECT_EQ(stats.round_flushes, 0U);
  EXPECT_LE(stats.peak_oldest_dirty_age_s, 200.0 + 1e-9);
  EXPECT_GT(tiered.dirty_count(), 0U);  // round 2 within its window

  // Serving still finds every object: dirty ones in the fast tier, drained
  // ones in the durable tier.
  fed::NonTrainingRequest req;
  req.id = 1;
  req.type = fed::WorkloadType::kInference;
  req.round = 0;
  const auto res = fl.serve(req, 400.0);
  EXPECT_GE(res.hits + res.misses, 1U);
}

TEST_F(FLStorePlumb, ShardedStoreAppliesPlaneWidePolicyAndAggregates) {
  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 0;
  backend::FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_age_s = 200.0;
  cfg.cold_flush = policy;
  serve::ShardedStore plane(tiered, cfg);
  const auto tenant = plane.add_tenant(job);
  EXPECT_DOUBLE_EQ(
      plane.shard(0).flush_scheduler().policy().max_dirty_age_s, 200.0);

  plane.ingest_round(tenant, job.make_round(0), 0.0);
  EXPECT_GT(tiered.dirty_count(), 0U);
  plane.ingest_round(tenant, job.make_round(1), 360.0);
  const auto stats = plane.dirty_window_stats(360.0);
  EXPECT_GE(stats.age_flushes, 1U);
  EXPECT_LE(stats.peak_oldest_dirty_age_s, 200.0 + 1e-9);
  EXPECT_GT(stats.drained_objects, 0U);
}

TEST(ScenarioPlumb, ColdFlushPolicyReachesEveryFLStoreTheScenarioBuilds) {
  sim::ScenarioConfig cfg;
  cfg.pool_size = 20;
  cfg.clients_per_round = 4;
  cfg.rounds = 5;
  cfg.total_requests = 10;
  cfg.duration_s = 900.0;
  cfg.cold_flush.flush_on_round_boundary = false;
  cfg.cold_flush.max_dirty_age_s = 123.0;
  sim::Scenario sc(cfg);
  EXPECT_DOUBLE_EQ(sc.flstore().flush_scheduler().policy().max_dirty_age_s,
                   123.0);
  EXPECT_FALSE(
      sc.flstore().flush_scheduler().policy().flush_on_round_boundary);
  const auto variant = sc.make_flstore_over(sc.cold_backend(),
                                            core::PolicyMode::kLru, 1);
  EXPECT_DOUBLE_EQ(variant->flush_scheduler().policy().max_dirty_age_s,
                   123.0);
}

// --- Live re-policy (control-plane actuation) -----------------------------

TEST_F(WriteBackFixture, SetPolicyFiresTheOldPoliciesOverdueDeadlineFirst) {
  // Object dirty since t=0 under a 30 s age bound; the switch arrives at
  // t=100 with the deadline long overdue. Phase 1 must close out the old
  // policy's debt exactly as observe(100) would have: drain stamped at
  // t=30, peak age exactly the old threshold — never the switch gap, and
  // never the new policy's bound.
  FlushPolicy old_policy;
  old_policy.flush_on_round_boundary = false;
  old_policy.max_dirty_age_s = 30.0;
  FlushScheduler sched(tiered, old_policy);
  ASSERT_TRUE(tiered.put("k", Blob{1}, 8 * MB, 0.0).accepted);
  EXPECT_EQ(sched.observe(0.0).drained, 0U);

  FlushPolicy relaxed;
  relaxed.flush_on_round_boundary = false;
  relaxed.max_dirty_age_s = 500.0;
  const auto drained = sched.set_policy(100.0, relaxed);
  EXPECT_EQ(drained.drained, 1U);
  EXPECT_TRUE(deep.contains("k"));
  const auto stats = sched.dirty_window_stats(100.0);
  EXPECT_EQ(stats.age_flushes, 1U);
  EXPECT_DOUBLE_EQ(stats.peak_oldest_dirty_age_s, 30.0);
  EXPECT_NEAR(stats.bytes_at_risk_integral, 8e6 * 30.0, 1.0);
  EXPECT_DOUBLE_EQ(sched.policy().max_dirty_age_s, 500.0);
}

TEST_F(WriteBackFixture, SetPolicyAppliesTighterBoundsAtTheSwitchInstant) {
  // 9 MB dirty under a relaxed policy; the controller sheds by switching
  // to a 4 MB byte bound at t=50. The new bound is evaluated at the switch
  // instant itself: the window drains immediately, booked as a byte flush.
  FlushPolicy relaxed;
  relaxed.flush_on_round_boundary = false;
  FlushScheduler sched(tiered, relaxed);
  ASSERT_TRUE(tiered.put("a", Blob{1}, 4 * MB, 0.0).accepted);
  ASSERT_TRUE(tiered.put("b", Blob{2}, 5 * MB, 10.0).accepted);
  EXPECT_EQ(sched.observe(20.0).drained, 0U);

  FlushPolicy shed;
  shed.flush_on_round_boundary = false;
  shed.max_dirty_bytes = 4 * MB;
  const auto drained = sched.set_policy(50.0, shed);
  EXPECT_EQ(drained.drained, 2U);
  EXPECT_EQ(drained.drained_bytes, 9 * MB);
  EXPECT_EQ(tiered.dirty_count(), 0U);
  EXPECT_EQ(sched.dirty_window_stats(50.0).byte_flushes, 1U);
}

TEST_F(WriteBackFixture, SetPolicyTighterAgeClampsToTheSwitchInstant) {
  // Dirty since t=0, old age bound 500 s (not yet due at t=40). The new
  // 10 s bound is retroactively due at t=10 — but the old policy owned
  // the window until the switch, so the drain fires AT the switch (t=40),
  // not back-dated to a moment the new policy never governed.
  FlushPolicy relaxed;
  relaxed.flush_on_round_boundary = false;
  relaxed.max_dirty_age_s = 500.0;
  FlushScheduler sched(tiered, relaxed);
  ASSERT_TRUE(tiered.put("k", Blob{1}, 2 * MB, 0.0).accepted);
  EXPECT_EQ(sched.observe(0.0).drained, 0U);

  FlushPolicy tight;
  tight.flush_on_round_boundary = false;
  tight.max_dirty_age_s = 10.0;
  const auto drained = sched.set_policy(40.0, tight);
  EXPECT_EQ(drained.drained, 1U);
  const auto stats = sched.dirty_window_stats(40.0);
  EXPECT_EQ(stats.age_flushes, 1U);
  // Peak exposure ran to the switch instant: 40 s, not the new bound.
  EXPECT_DOUBLE_EQ(stats.peak_oldest_dirty_age_s, 40.0);
}

TEST_F(WriteBackFixture, SetPolicyWithNothingDueIsPureBookkeeping) {
  FlushPolicy policy;
  policy.flush_on_round_boundary = false;
  policy.max_dirty_age_s = 100.0;
  FlushScheduler sched(tiered, policy);
  ASSERT_TRUE(tiered.put("k", Blob{1}, 2 * MB, 0.0).accepted);
  const auto drained = sched.set_policy(5.0, policy);  // re-apply, early
  EXPECT_EQ(drained.drained, 0U);
  EXPECT_EQ(tiered.dirty_count(), 1U);
  EXPECT_EQ(sched.dirty_window_stats(5.0).flushes, 0U);
  // The retroactive deadline still belongs to the original dirty stamp.
  const auto later = sched.observe(300.0);
  EXPECT_EQ(later.drained, 1U);
  EXPECT_DOUBLE_EQ(sched.dirty_window_stats(300.0).peak_oldest_dirty_age_s,
                   100.0);
}

TEST_F(WriteBackFixture, ShardedStoreSetFlushPolicySwapsEveryPrimary) {
  // The serving-plane actuator: set_flush_policy reaches every tenant's
  // primary FlushScheduler and future windows run under the new policy.
  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 0;
  backend::FlushPolicy lazy;
  lazy.flush_on_round_boundary = false;
  lazy.max_dirty_age_s = 1e9;
  cfg.cold_flush = lazy;
  serve::ShardedStore plane(tiered, cfg);
  fed::FLJobConfig job_cfg;
  job_cfg.model = "resnet18";
  job_cfg.pool_size = 12;
  job_cfg.clients_per_round = 4;
  job_cfg.rounds = 3;
  fed::FLJob job(job_cfg);
  const auto tenant = plane.add_tenant(job, {}, 2);
  plane.ingest_round(tenant, job.make_round(0), 0.0);
  EXPECT_GT(tiered.dirty_count(), 0U);

  backend::FlushPolicy eager;
  eager.flush_on_round_boundary = false;
  eager.max_dirty_bytes = 1;  // any dirty byte trips
  const auto drained = plane.set_flush_policy(10.0, eager);
  EXPECT_GT(drained.drained, 0U);
  EXPECT_EQ(tiered.dirty_count(), 0U);
  EXPECT_EQ(plane.shard(plane.tenant_primary_shard(tenant))
                .flush_scheduler()
                .policy()
                .max_dirty_bytes,
            units::Bytes{1});
}

}  // namespace
}  // namespace flstore
