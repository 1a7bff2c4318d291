// Per-backend unit coverage: latency and fee models, capacity behaviour,
// throttle accounting, and the op ledger.
#include "backend/storage_backend.hpp"

#include <gtest/gtest.h>

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

TEST(Throttle, AdmitsBurstThenQueuesAtSustainedRate) {
  Throttle throttle(Throttle::Config{/*ops_per_s=*/10.0, /*burst_ops=*/2.0});
  EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
  // Bucket empty: each further op at the same instant queues 100 ms deeper.
  EXPECT_NEAR(throttle.admit(0.0), 0.1, 1e-12);
  EXPECT_NEAR(throttle.admit(0.0), 0.2, 1e-12);
  // After enough simulated time the bucket refills to its burst depth.
  EXPECT_DOUBLE_EQ(throttle.admit(10.0), 0.0);
  EXPECT_DOUBLE_EQ(throttle.admit(10.0), 0.0);
  EXPECT_GT(throttle.admit(10.0), 0.0);
}

TEST(Throttle, DisabledIsFree) {
  Throttle throttle;  // default: ops_per_s = 0
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
}

// --- ObjectStoreBackend ---------------------------------------------------

struct ObjectStoreBackendTest : ::testing::Test {
  ObjectStoreBackend cold{sim::objstore_link(), PricingCatalog::aws()};
};

TEST_F(ObjectStoreBackendTest, MatchesRawStoreLatenciesAndFees) {
  // S3 over the access link: a transfer of the logical size per hit, the
  // first-byte round trip per miss, and a request fee on every op.
  const Link link = sim::objstore_link();
  const auto& pricing = PricingCatalog::aws();
  const auto put = cold.put("k", Blob(64), 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_DOUBLE_EQ(put.latency_s, link.transfer_time(10 * units::MB));
  EXPECT_DOUBLE_EQ(put.request_fee_usd, pricing.s3_usd_per_put);

  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.latency_s, link.transfer_time(10 * units::MB));
  EXPECT_DOUBLE_EQ(get.request_fee_usd, pricing.s3_usd_per_get);
  EXPECT_EQ(get.logical_bytes, 10 * units::MB);

  const auto miss = cold.get("absent", 2.0);
  EXPECT_FALSE(miss.found);
  EXPECT_DOUBLE_EQ(miss.latency_s, link.first_byte_latency_s);
  EXPECT_DOUBLE_EQ(miss.request_fee_usd, pricing.s3_usd_per_get);

  EXPECT_TRUE(cold.contains("k"));
  EXPECT_EQ(cold.stored_logical_bytes(), 10 * units::MB);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0),
                   pricing.s3_storage_cost(10 * units::MB, 3600.0));
  const auto stats = cold.stats();
  EXPECT_EQ(stats.gets, 2U);
  EXPECT_EQ(stats.bytes_read, 10 * units::MB);
  EXPECT_DOUBLE_EQ(stats.fees_usd, pricing.s3_usd_per_put +
                                       2 * pricing.s3_usd_per_get);
}

TEST_F(ObjectStoreBackendTest, BatchedPutAmortizesFirstByteCost) {
  constexpr std::size_t kCount = 10;
  double individual = 0.0;
  {
    ObjectStoreBackend one_by_one(sim::objstore_link(), PricingCatalog::aws());
    for (std::size_t i = 0; i < kCount; ++i) {
      individual += one_by_one
                        .put(std::to_string(i), Blob(8), 1 * units::MB,
                             0.0)
                        .latency_s;
    }
  }
  std::vector<PutRequest> batch;
  for (std::size_t i = 0; i < kCount; ++i) {
    batch.push_back(PutRequest{std::to_string(i), Blob(8),
                               1 * units::MB});
  }
  const auto res = cold.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, kCount);
  // One alpha instead of ten: strictly faster than the sequential puts.
  EXPECT_LT(res.latency_s, individual);
  const double alpha = sim::objstore_link().first_byte_latency_s;
  EXPECT_NEAR(individual - res.latency_s, (kCount - 1) * alpha, 1e-9);
  // S3 semantics: the request fee stays per object.
  EXPECT_DOUBLE_EQ(res.request_fee_usd,
                   kCount * PricingCatalog::aws().s3_usd_per_put);
  const auto stats = cold.stats();
  EXPECT_EQ(stats.batches, 1U);
  EXPECT_EQ(stats.puts, kCount);
  EXPECT_EQ(stats.bytes_written, kCount * 1 * units::MB);
}

TEST(ObjectStoreBackendThrottled, ThrottleSurfacesAsLatency) {
  ObjectStoreBackend::Config cfg;
  cfg.throttle = Throttle::Config{/*ops_per_s=*/1.0, /*burst_ops=*/1.0};
  ObjectStoreBackend cold(sim::objstore_link(), PricingCatalog::aws(), cfg);
  // The preload spends the one token; the bucket has refilled by t = 10.
  (void)cold.put("k", Blob(8), 1 * units::MB, 0.0);

  const auto first = cold.get("k", 10.0);
  const auto second = cold.get("k", 10.0);  // same instant: bucket is empty
  EXPECT_DOUBLE_EQ(first.latency_s, second.latency_s - 1.0);
  const auto stats = cold.stats();
  EXPECT_EQ(stats.throttled_ops, 1U);
  EXPECT_NEAR(stats.throttle_wait_s, 1.0, 1e-9);
}

// --- CloudCacheBackend ----------------------------------------------------

TEST(CloudCacheBackendTest, MillisecondAccessNoRequestFees) {
  CloudCacheBackend::Config cfg;
  cfg.link = sim::cloudcache_link();
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  const auto put = cold.put("k", Blob(8), 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_DOUBLE_EQ(put.request_fee_usd, 0.0);  // node-hours, not request fees
  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, 0.0);
  EXPECT_DOUBLE_EQ(get.latency_s,
                   sim::cloudcache_link().transfer_time(10 * units::MB));
  // Far faster than the object store path for the same object.
  EXPECT_LT(get.latency_s,
            sim::objstore_link().transfer_time(10 * units::MB));
}

TEST(CloudCacheBackendTest, AutoScaleGrowsNodesAndIdleBill) {
  CloudCacheBackend::Config cfg;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  EXPECT_EQ(cold.nodes(), 1);
  const double one_node_hour = cold.idle_cost(3600.0);
  EXPECT_DOUBLE_EQ(one_node_hour,
                   PricingCatalog::aws().cache_nodes_cost(1, 3600.0));
  // Two node-capacities of data: the fleet must grow to three nodes.
  const auto node = PricingCatalog::aws().cache_node_capacity;
  cold.put("a", Blob(8), node, 0.0);
  cold.put("b", Blob(8), node, 0.0);
  EXPECT_GE(cold.nodes(), 2);
  EXPECT_GT(cold.idle_cost(3600.0), one_node_hour);
  EXPECT_EQ(cold.evictions(), 0U);
}

TEST(CloudCacheBackendTest, FixedFleetEvictsLruAndLosesData) {
  CloudCacheBackend::Config cfg;
  cfg.auto_scale = false;
  cfg.nodes = 1;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  const auto half = PricingCatalog::aws().cache_node_capacity / 2;
  cold.put("old", Blob(8), half, 0.0);
  cold.put("mid", Blob(8), half, 1.0);
  cold.get("old", 2.0);  // touch: "mid" becomes the LRU victim
  cold.put("new", Blob(8), half, 3.0);
  EXPECT_EQ(cold.evictions(), 1U);
  EXPECT_TRUE(cold.contains("old"));
  EXPECT_FALSE(cold.contains("mid"));  // durability hazard of a lone cache
  EXPECT_TRUE(cold.contains("new"));
  // An object that can never fit is rejected outright.
  const auto rejected =
      cold.put("huge", Blob(8), 2 * PricingCatalog::aws().cache_node_capacity,
               4.0);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(cold.stats().rejected_puts, 1U);
}

TEST(CloudCacheBackendTest, RejectedOverwritePreservesTheStoredVersion) {
  CloudCacheBackend::Config cfg;
  cfg.auto_scale = false;
  cfg.nodes = 1;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob{1, 2, 3}, 4 * units::MB, 0.0);
  // Overwriting with an object that can never fit must fail *without*
  // destroying what is already stored.
  const auto rejected = cold.put(
      "k", Blob(8), 2 * PricingCatalog::aws().cache_node_capacity, 1.0);
  EXPECT_FALSE(rejected.accepted);
  const auto got = cold.get("k", 2.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, (Blob{1, 2, 3}));
  EXPECT_EQ(got.logical_bytes, 4 * units::MB);
}

// --- LocalSsdBackend ------------------------------------------------------

TEST(LocalSsdBackendTest, MicrosecondLatencyProvisionedBilling) {
  LocalSsdBackend::Config cfg;
  cfg.link = sim::local_ssd_link();
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob(8), 161 * units::MB, 0.0);
  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, 0.0);
  // A model checkpoint in well under a second (vs ~20 s from the store).
  EXPECT_LT(get.latency_s, 0.2);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0),
                   PricingCatalog::aws().ssd_devices_cost(1, 3600.0));
  // The device bills provisioned capacity whether or not it holds data.
  LocalSsdBackend empty(cfg, PricingCatalog::aws());
  EXPECT_DOUBLE_EQ(empty.idle_cost(3600.0), cold.idle_cost(3600.0));
}

TEST(LocalSsdBackendTest, FixedFleetRejectsOverCapacity) {
  LocalSsdBackend::Config cfg;
  cfg.auto_scale = false;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  const auto device = PricingCatalog::aws().ssd_device_capacity;
  EXPECT_TRUE(cold.put("a", Blob(8), device, 0.0).accepted);
  const auto rejected = cold.put("b", Blob(8), 1 * units::MB, 1.0);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(cold.contains("b"));
  EXPECT_EQ(cold.stats().rejected_puts, 1U);
  EXPECT_EQ(cold.capacity_bytes(), device);
}

TEST(LocalSsdBackendTest, AutoScaleProvisionsAnotherDevice) {
  LocalSsdBackend::Config cfg;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  const auto device = PricingCatalog::aws().ssd_device_capacity;
  EXPECT_TRUE(cold.put("a", Blob(8), device, 0.0).accepted);
  EXPECT_TRUE(cold.put("b", Blob(8), 1 * units::MB, 1.0).accepted);
  EXPECT_EQ(cold.devices(), 2);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0),
                   PricingCatalog::aws().ssd_devices_cost(2, 3600.0));
}

TEST(LocalSsdBackendTest, BatchedPutAdmitsOnceAndChargesTheWait) {
  LocalSsdBackend::Config cfg;
  cfg.throttle = Throttle::Config{/*ops_per_s=*/10.0, /*burst_ops=*/1.0};
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  std::vector<PutRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(PutRequest{std::to_string(i), Blob(8), 1 * units::MB});
  }
  (void)cold.put("warmup", Blob(8), 1 * units::MB, 0.0);  // drain the bucket
  const auto res = cold.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, 4U);
  // One admission for the whole batch — its wait lands on the batch
  // latency instead of vanishing.
  EXPECT_EQ(cold.stats().throttled_ops, 1U);
  EXPECT_GE(res.latency_s, cold.stats().throttle_wait_s);
}

// --- batch-put latency contract (every leaf backend) ----------------------
// PutResult documents that a refused write still pays its transfer latency:
// the bytes travelled before the rejection. put_batch must honour the same
// contract — the batched stream covers every *attempted* byte, not just the
// accepted ones (regression: both bounded backends used to charge accepted
// bytes only, making a full backend look instantaneous to write to).

struct BatchContractCase {
  const char* label;
  /// Builds a backend; bounded kinds reject `huge_bytes()` outright.
  std::unique_ptr<StorageBackend> (*make)();
  Link link;
  bool rejects;  ///< whether the huge item is refused (object store scales)
};

units::Bytes huge_bytes() {
  return 4 * PricingCatalog::aws().cache_node_capacity;
}

const BatchContractCase kBatchContractCases[] = {
    {"cloud-cache",
     +[]() -> std::unique_ptr<StorageBackend> {
       CloudCacheBackend::Config cfg;
       cfg.auto_scale = false;
       cfg.nodes = 1;
       cfg.link = sim::cloudcache_link();
       return std::make_unique<CloudCacheBackend>(cfg, PricingCatalog::aws());
     },
     sim::cloudcache_link(), true},
    {"local-ssd",
     +[]() -> std::unique_ptr<StorageBackend> {
       LocalSsdBackend::Config cfg;
       cfg.auto_scale = false;
       cfg.link = sim::local_ssd_link();
       auto cold = std::make_unique<LocalSsdBackend>(cfg,
                                                     PricingCatalog::aws());
       // Fill the single device so further puts are refused.
       cold->put("filler", Blob{1},
                 PricingCatalog::aws().ssd_device_capacity, 0.0);
       return cold;
     },
     sim::local_ssd_link(), true},
    {"object-store",
     +[]() -> std::unique_ptr<StorageBackend> {
       return std::make_unique<ObjectStoreBackend>(sim::objstore_link(),
                                                   PricingCatalog::aws());
     },
     sim::objstore_link(), false},
};

class BatchRejectionLatency
    : public ::testing::TestWithParam<BatchContractCase> {};

TEST_P(BatchRejectionLatency, RefusedItemsStillPayTheirTransfer) {
  const auto& param = GetParam();
  auto cold = param.make();
  std::vector<PutRequest> batch;
  batch.push_back(PutRequest{"accepted-or-not", Blob{1}, 1 * units::MB});
  batch.push_back(PutRequest{"huge", Blob{2}, huge_bytes()});
  const auto res = cold->put_batch(std::move(batch), 0.0);
  if (param.rejects) {
    EXPECT_LT(res.stored, 2U) << param.label;
    EXPECT_GT(cold->stats().rejected_puts, 0U) << param.label;
  } else {
    EXPECT_EQ(res.stored, 2U) << param.label;
  }
  // The stream time covers all attempted bytes either way.
  EXPECT_NEAR(res.latency_s,
              param.link.transfer_time(1 * units::MB + huge_bytes()), 1e-9)
      << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchRejectionLatency,
    ::testing::ValuesIn(kBatchContractCases),
    [](const ::testing::TestParamInfo<BatchContractCase>& info) {
      std::string name = info.param.label;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LocalSsdBackendTest, RemoveReleasesBytes) {
  LocalSsdBackend::Config cfg;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob(8), 5 * units::MB, 0.0);
  EXPECT_EQ(cold.stored_logical_bytes(), 5 * units::MB);
  EXPECT_TRUE(cold.remove("k", 1.0));
  EXPECT_FALSE(cold.remove("k", 1.0));
  EXPECT_EQ(cold.stored_logical_bytes(), 0U);
  EXPECT_FALSE(cold.contains("k"));
}

}  // namespace
}  // namespace flstore::backend
