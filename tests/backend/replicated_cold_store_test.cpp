// ReplicatedColdStore: quorum acceptance, nearest-read with failover,
// outage windows from the fault schedule, egress-fee accounting, and the
// write-back dirty/flush interaction per region.
#include "backend/replicated_cold_store.hpp"

#include <gtest/gtest.h>

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/tiered_cold_store.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

const PricingCatalog& pricing = PricingCatalog::aws();

/// Three SSD regions at WAN distances 0, 1, 2 (no per-request fees, so
/// every dollar the composition reports is egress).
class ReplicatedSsdFixture : public ::testing::Test {
 protected:
  static std::unique_ptr<StorageBackend> make_ssd() {
    LocalSsdBackend::Config cfg;
    cfg.link = sim::local_ssd_link();
    return std::make_unique<LocalSsdBackend>(cfg, pricing);
  }

  static std::vector<ReplicatedColdStore::Region> make_regions(int count) {
    std::vector<ReplicatedColdStore::Region> regions;
    for (int i = 0; i < count; ++i) {
      ReplicatedColdStore::Region region;
      region.name = "region-" + std::to_string(i);
      region.owned = make_ssd();
      region.wan = sim::interregion_link(i);
      regions.push_back(std::move(region));
    }
    return regions;
  }

  static ReplicatedColdStore make(int count,
                                  ReplicatedColdStore::Config cfg = {}) {
    return ReplicatedColdStore(make_regions(count), cfg, pricing);
  }
};

TEST_F(ReplicatedSsdFixture, QuorumWriteWaitsForTheWthAck) {
  auto repl = make(3);  // majority: W = 2
  EXPECT_EQ(repl.write_quorum(), 2);
  const auto put = repl.put("k", Blob{1, 2}, 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  // Every region stores a copy.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(repl.region_backend(i).contains("k")) << i;
  }
  // Acks ordered by WAN distance; the caller waits for the 2nd (region 1).
  const double expected =
      sim::local_ssd_link().transfer_time(10 * units::MB) +
      sim::interregion_link(1).transfer_time(10 * units::MB);
  EXPECT_NEAR(put.latency_s, expected, 1e-9);
  // Two cross-region replicas paid egress; the home copy is free.
  EXPECT_NEAR(put.request_fee_usd,
              2 * pricing.interregion_transfer_cost(10 * units::MB), 1e-12);
  EXPECT_NEAR(repl.egress_fees_usd(), put.request_fee_usd, 1e-12);
}

TEST_F(ReplicatedSsdFixture, QuorumFailureIsARejectedPut) {
  ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 3;
  auto repl = make(3, cfg);
  repl.set_outages({OutageWindow{2, 0.0, 100.0}});
  const auto put = repl.put("k", Blob{1}, 1 * units::MB, 10.0);
  EXPECT_FALSE(put.accepted);  // only 2 of the required 3 acks
  EXPECT_EQ(repl.quorum_failures(), 1U);
  EXPECT_EQ(repl.stats().rejected_puts, 1U);
  // The reachable replicas still hold the bytes (and billed the shipping).
  EXPECT_TRUE(repl.region_backend(0).contains("k"));
  EXPECT_TRUE(repl.region_backend(1).contains("k"));
  EXPECT_FALSE(repl.region_backend(2).contains("k"));
  // Quorum met once the outage clears.
  const auto retry = repl.put("k", Blob{1}, 1 * units::MB, 200.0);
  EXPECT_TRUE(retry.accepted);
}

TEST_F(ReplicatedSsdFixture, NearestReadServesFromTheHomeRegion) {
  auto repl = make(3);
  repl.put("k", Blob{9}, 10 * units::MB, 0.0);
  const auto got = repl.get("k", 1.0);
  ASSERT_TRUE(got.found);
  // Home hit: no WAN hop, no egress.
  EXPECT_NEAR(got.latency_s,
              sim::local_ssd_link().transfer_time(10 * units::MB), 1e-9);
  EXPECT_DOUBLE_EQ(got.request_fee_usd, 0.0);
  EXPECT_EQ(repl.failover_reads(), 0U);
}

TEST_F(ReplicatedSsdFixture, OutageFailsTheReadOverAndBillsEgress) {
  ReplicatedColdStore::Config cfg;
  cfg.read_repair = false;
  auto repl = make(3, cfg);
  repl.put("k", Blob{9}, 10 * units::MB, 0.0);
  repl.set_outages({OutageWindow{0, 50.0, 150.0}});
  const auto got = repl.get("k", 100.0);
  ASSERT_TRUE(got.found);
  // Probe timeout on the dark home region, then the distance-1 replica:
  // its backend read plus the WAN transfer home.
  const double expected =
      cfg.outage_probe_s +
      sim::local_ssd_link().transfer_time(10 * units::MB) +
      sim::interregion_link(1).transfer_time(10 * units::MB);
  EXPECT_NEAR(got.latency_s, expected, 1e-9);
  EXPECT_NEAR(got.request_fee_usd,
              pricing.interregion_transfer_cost(10 * units::MB), 1e-12);
  EXPECT_EQ(repl.failover_reads(), 1U);
  EXPECT_EQ(repl.outage_skips(), 1U);
  // After the outage the home replica serves again at local latency.
  const auto after = repl.get("k", 200.0);
  EXPECT_NEAR(after.latency_s,
              sim::local_ssd_link().transfer_time(10 * units::MB), 1e-9);
}

TEST_F(ReplicatedSsdFixture, WritesDuringOutageGoStaleAndReadRepairHeals) {
  auto repl = make(3);  // read_repair on by default
  repl.set_outages({OutageWindow{0, 0.0, 100.0}});
  // Written while home is dark: the replica set carries it, home does not.
  ASSERT_TRUE(repl.put("k", Blob{4, 4}, 10 * units::MB, 10.0).accepted);
  EXPECT_FALSE(repl.region_backend(0).contains("k"));
  EXPECT_TRUE(repl.region_backend(1).contains("k"));

  // Home is back but misses: the read pays the miss probe, fails over to
  // region 1, and repairs the home copy at read-completion time.
  const auto got = repl.get("k", 200.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(repl.failover_reads(), 1U);
  EXPECT_EQ(repl.repairs(), 1U);
  EXPECT_TRUE(repl.region_backend(0).contains("k"));
  // Repair shipped the bytes across the WAN once more: read egress plus
  // repair egress.
  EXPECT_NEAR(got.request_fee_usd,
              2 * pricing.interregion_transfer_cost(10 * units::MB), 1e-12);
  // The next read is local again — replication healed, no re-fetch.
  const auto healed = repl.get("k", 300.0);
  EXPECT_NEAR(healed.latency_s,
              sim::local_ssd_link().transfer_time(10 * units::MB), 1e-9);
  EXPECT_EQ(repl.failover_reads(), 1U);
}

TEST_F(ReplicatedSsdFixture, ReplicaThatMissedAnOverwriteIsStaleNotServed) {
  // Regression: a region that held v1 and missed the v2 overwrite during
  // its outage must not serve v1 on nearest-read after it comes back — the
  // version map skips it and read-repair overwrites the stale copy.
  auto repl = make(3);
  ASSERT_TRUE(repl.put("k", Blob{1}, 10 * units::MB, 0.0).accepted);
  repl.set_outages({OutageWindow{0, 5.0, 100.0}});
  ASSERT_TRUE(repl.put("k", Blob{2}, 10 * units::MB, 10.0).accepted);
  // Region 0 still physically holds v1...
  ASSERT_TRUE(repl.region_backend(0).contains("k"));
  const auto raw = repl.region_backend(0).get("k", 150.0);
  ASSERT_TRUE(raw.found);
  EXPECT_EQ(*raw.blob, Blob{1});

  // ...but the composition never serves it: the home probe is a stale
  // skip, region 1 serves v2, and repair overwrites the home copy.
  const auto got = repl.get("k", 200.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, Blob{2});
  EXPECT_EQ(repl.stale_skips(), 1U);
  EXPECT_EQ(repl.failover_reads(), 1U);
  EXPECT_EQ(repl.repairs(), 1U);

  // Healed: home serves v2 locally from now on.
  const auto healed = repl.get("k", 300.0);
  ASSERT_TRUE(healed.found);
  EXPECT_EQ(*healed.blob, Blob{2});
  EXPECT_EQ(repl.stale_skips(), 1U);
  EXPECT_EQ(repl.failover_reads(), 1U);
  const auto home = repl.region_backend(0).get("k", 400.0);
  ASSERT_TRUE(home.found);
  EXPECT_EQ(*home.blob, Blob{2});
}

TEST_F(ReplicatedSsdFixture, AllCurrentReplicasDarkFallsBackToStaleCopy) {
  // Bounded staleness beats unavailability: when every region holding the
  // latest version is inside an outage window, the read serves the
  // freshest reachable stale copy (and does not repair from it).
  auto repl = make(3);
  ASSERT_TRUE(repl.put("k", Blob{1}, 1 * units::MB, 0.0).accepted);
  repl.set_outages({OutageWindow{0, 5.0, 100.0}});
  ASSERT_TRUE(repl.put("k", Blob{2}, 1 * units::MB, 10.0).accepted);
  // Now regions 1 and 2 hold v2, region 0 holds v1 — and both v2 holders
  // go dark while region 0 is back.
  repl.set_outages(
      {OutageWindow{1, 150.0, 400.0}, OutageWindow{2, 150.0, 400.0}});
  const auto got = repl.get("k", 200.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, Blob{1});  // the stale home copy, flagged stale
  EXPECT_EQ(repl.repairs(), 0U);
  // Once a v2 holder returns, the read is current again.
  const auto current = repl.get("k", 500.0);
  ASSERT_TRUE(current.found);
  EXPECT_EQ(*current.blob, Blob{2});
}

TEST_F(ReplicatedSsdFixture, WriteNoRegionTookDoesNotPoisonTheVersionMap) {
  // Regression: a write that reaches zero regions (all dark) must not
  // advance the object's version — otherwise every replica of the old,
  // perfectly consistent copy would read as stale forever.
  auto repl = make(3);
  ASSERT_TRUE(repl.put("k", Blob{1}, 1 * units::MB, 0.0).accepted);
  repl.set_outages({OutageWindow{0, 5.0, 100.0}, OutageWindow{1, 5.0, 100.0},
                    OutageWindow{2, 5.0, 100.0}});
  const auto lost = repl.put("k", Blob{2}, 1 * units::MB, 10.0);
  EXPECT_FALSE(lost.accepted);
  EXPECT_EQ(repl.quorum_failures(), 1U);
  repl.set_outages({});
  // v1 is still the latest version any replica holds: served locally as
  // current, no stale skips, no failover.
  const auto got = repl.get("k", 200.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, Blob{1});
  EXPECT_EQ(repl.stale_skips(), 0U);
  EXPECT_EQ(repl.failover_reads(), 0U);
}

TEST(ReplicatedBoundedRegion, EvictedCurrentReplicaIsRepairedOnFailover) {
  // Regression: a bounded region can LRU-evict an object its version map
  // still calls current. The failover read must repair that copy too —
  // "current but evicted" is exactly as unserveable as stale.
  CloudCacheBackend::Config cache_cfg;
  cache_cfg.auto_scale = false;
  cache_cfg.nodes = 1;
  cache_cfg.link = sim::cloudcache_link();
  std::vector<ReplicatedColdStore::Region> regions(2);
  regions[0].name = "home-cache";
  regions[0].owned =
      std::make_unique<CloudCacheBackend>(cache_cfg, PricingCatalog::aws());
  regions[1].name = "remote-ssd";
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  regions[1].owned =
      std::make_unique<LocalSsdBackend>(ssd_cfg, PricingCatalog::aws());
  regions[1].wan = sim::interregion_link(1);
  ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 1;
  ReplicatedColdStore repl(std::move(regions), cfg, PricingCatalog::aws());

  const auto half = PricingCatalog::aws().cache_node_capacity / 2;
  ASSERT_TRUE(repl.put("a", Blob{1}, half, 0.0).accepted);
  ASSERT_TRUE(repl.put("b", Blob{2}, half, 1.0).accepted);
  ASSERT_TRUE(repl.put("c", Blob{3}, half, 2.0).accepted);  // evicts "a"
  ASSERT_FALSE(repl.region_backend(0).contains("a"));

  const auto got = repl.get("a", 10.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, Blob{1});
  EXPECT_EQ(repl.failover_reads(), 1U);
  EXPECT_GE(repl.repairs(), 1U);
  EXPECT_TRUE(repl.region_backend(0).contains("a"));  // restored
  // And the restored copy serves locally next time.
  const auto again = repl.get("a", 20.0);
  ASSERT_TRUE(again.found);
  EXPECT_EQ(repl.failover_reads(), 1U);
}

TEST_F(ReplicatedSsdFixture, BatchQuorumAndPerItemAcceptance) {
  auto repl = make(3);
  std::vector<PutRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(PutRequest{std::to_string(i), Blob{1}, 1 * units::MB});
  }
  const auto res = repl.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, 4U);
  ASSERT_EQ(res.accepted.size(), 4U);
  // One batched stream per region; the caller waits for the W-th region.
  const double expected =
      sim::local_ssd_link().transfer_time(4 * units::MB) +
      sim::interregion_link(1).transfer_time(4 * units::MB);
  EXPECT_NEAR(res.latency_s, expected, 1e-9);
  EXPECT_NEAR(res.request_fee_usd,
              2 * pricing.interregion_transfer_cost(4 * units::MB), 1e-12);
  const auto stats = repl.stats();
  EXPECT_EQ(stats.batches, 1U);
  EXPECT_EQ(stats.puts, 4U);
  EXPECT_EQ(stats.bytes_written, 4 * units::MB);
}

TEST_F(ReplicatedSsdFixture, FarRegionBillsTheFarEgressRate) {
  std::vector<ReplicatedColdStore::Region> regions = make_regions(1);
  ReplicatedColdStore::Region far;
  far.name = "far-archive";
  far.owned = make_ssd();
  far.wan = sim::interregion_link(3);
  far.far = true;
  regions.push_back(std::move(far));
  ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 2;
  ReplicatedColdStore repl(std::move(regions), cfg, pricing);
  const auto put = repl.put("k", Blob{1}, 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_NEAR(put.request_fee_usd,
              pricing.interregion_transfer_cost(10 * units::MB, /*far=*/true),
              1e-12);
  EXPECT_GT(pricing.far_region_usd_per_gb, pricing.interregion_usd_per_gb);
}

TEST_F(ReplicatedSsdFixture, AggregateAccessorsAndIdentity) {
  auto repl = make(3);
  repl.put("k", Blob{1}, 5 * units::MB, 0.0);
  EXPECT_EQ(repl.kind(), BackendKind::kReplicated);
  EXPECT_EQ(repl.name(), "replicated(2/3: region-0, region-1, region-2)");
  EXPECT_EQ(repl.region_count(), 3U);
  EXPECT_TRUE(repl.contains("k"));
  // One logical copy, every replica provisioned and billed.
  EXPECT_EQ(repl.stored_logical_bytes(), 5 * units::MB);
  EXPECT_DOUBLE_EQ(repl.idle_cost(3600.0),
                   3 * pricing.ssd_devices_cost(1, 3600.0));
  // Full replication: the smallest bounded region is the bound.
  EXPECT_EQ(repl.capacity_bytes(), 0U);  // all regions auto-scale
  EXPECT_TRUE(repl.remove("k", 1.0));
  EXPECT_FALSE(repl.contains("k"));
  EXPECT_FALSE(repl.remove("k", 2.0));
}

TEST(ReplicatedOutageSchedule, FaultEventsMapOntoRegions) {
  std::vector<FaultEvent> faults = {
      FaultEvent{10.0, 0}, FaultEvent{20.0, 1}, FaultEvent{30.0, 5}};
  const auto windows = region_outages_from_faults(faults, 2, 60.0);
  ASSERT_EQ(windows.size(), 3U);
  EXPECT_EQ(windows[0].region, 0U);
  EXPECT_EQ(windows[1].region, 1U);
  EXPECT_EQ(windows[2].region, 1U);  // rank 5 % 2 regions
  EXPECT_DOUBLE_EQ(windows[0].start_s, 10.0);
  EXPECT_DOUBLE_EQ(windows[0].end_s, 70.0);
}

TEST(ReplicatedTieredRegions, WriteBackRegionsDrainOnFlushPerRegion) {
  // Each region is itself a write-back TieredColdStore (SSD over object
  // store): a replicated put lands dirty in both regions' fast tiers, and
  // the composition's flush drains every region to durability.
  ObjectStoreBackend deep_a(sim::objstore_link(), pricing);
  ObjectStoreBackend deep_b(sim::objstore_link(), pricing);
  LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.link = sim::local_ssd_link();
  LocalSsdBackend fast_a(ssd_cfg, pricing);
  LocalSsdBackend fast_b(ssd_cfg, pricing);
  TieredColdStore::Config tiered_cfg;
  tiered_cfg.write_mode = TieredColdStore::WriteMode::kWriteBack;
  TieredColdStore region_a({&fast_a, &deep_a}, tiered_cfg);
  TieredColdStore region_b({&fast_b, &deep_b}, tiered_cfg);

  std::vector<ReplicatedColdStore::Region> regions(2);
  regions[0].name = "home";
  regions[0].backend = &region_a;
  regions[1].name = "remote";
  regions[1].backend = &region_b;
  regions[1].wan = sim::interregion_link(1);
  ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 2;
  ReplicatedColdStore repl(std::move(regions), cfg, pricing);

  ASSERT_TRUE(repl.put("k", Blob{8, 8}, 2 * units::MB, 0.0).accepted);
  EXPECT_EQ(region_a.dirty_count(), 1U);
  EXPECT_EQ(region_b.dirty_count(), 1U);
  EXPECT_FALSE(deep_a.contains("k"));
  // Un-flushed bytes are still resident occupancy in every replica.
  EXPECT_EQ(repl.stored_logical_bytes(), 2 * units::MB);

  const auto flushed = repl.flush(1.0);
  EXPECT_EQ(flushed.drained, 1U);  // one logical object made durable
  EXPECT_GT(flushed.request_fee_usd, 0.0);  // both regions paid their PUTs
  EXPECT_EQ(region_a.dirty_count(), 0U);
  EXPECT_EQ(region_b.dirty_count(), 0U);
  EXPECT_TRUE(deep_a.contains("k"));
  EXPECT_TRUE(deep_b.contains("k"));
}

TEST(ReplicatedObjectStoreRegions, RequestFeesSumAcrossReachableRegions) {
  std::vector<ReplicatedColdStore::Region> regions(2);
  regions[0].name = "home";
  regions[0].owned = std::make_unique<ObjectStoreBackend>(
      sim::objstore_link(), pricing);
  regions[1].name = "remote";
  regions[1].owned = std::make_unique<ObjectStoreBackend>(
      sim::objstore_link(), pricing);
  regions[1].wan = sim::interregion_link(1);
  ReplicatedColdStore::Config cfg;
  cfg.write_quorum = 1;
  ReplicatedColdStore repl(std::move(regions), cfg, pricing);

  const auto put = repl.put("k", Blob{1}, 1 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  // Two S3 PUT fees plus one cross-region replica shipment.
  EXPECT_NEAR(put.request_fee_usd,
              2 * pricing.s3_usd_per_put +
                  pricing.interregion_transfer_cost(1 * units::MB),
              1e-12);
  // W=1: the caller waits only for the home ack.
  EXPECT_NEAR(put.latency_s,
              sim::objstore_link().transfer_time(1 * units::MB), 1e-9);
}

}  // namespace
}  // namespace flstore::backend
