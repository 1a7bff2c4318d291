// FLStore's cold-tier backup: every ingested round is in the cold tier when
// ingest_round returns, in put_batch slices of 64 objects with the fees on
// the infrastructure meter; the batched contents are byte-identical to
// putting each object on its own; and a bounded cold tier that refuses the
// backup surfaces as NotFound on the miss path.
#include <gtest/gtest.h>

#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "common/error.hpp"
#include "core/flstore.hpp"
#include "fed/codec.hpp"
#include "fed/fl_job.hpp"
#include "sim/calibration.hpp"

namespace flstore::core {
namespace {

fed::FLJobConfig job_config(std::int32_t participants) {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 60;
  cfg.clients_per_round = participants;
  cfg.rounds = 20;
  cfg.seed = 17;
  return cfg;
}

struct BackupWriterTest : ::testing::Test {
  BackupWriterTest() : cold(sim::objstore_link(), PricingCatalog::aws()) {}
  backend::ObjectStoreBackend cold;
};

TEST_F(BackupWriterTest, HoldsObjectsUntilFlush) {
  fed::FLJob job(job_config(6));
  const auto record = job.make_round(0);
  const auto objects = fed::encode_round(record);

  FLStore primary(FLStoreConfig{}, job, cold);
  primary.ingest_round(record, 0.0);
  for (const auto& obj : objects) {
    EXPECT_TRUE(cold.contains(obj.key.object_name())) << obj.key.object_name();
  }
  EXPECT_EQ(cold.stats().puts, objects.size());

  // A shard that does not back up leaves the cold tier untouched.
  backend::ObjectStoreBackend untouched(sim::objstore_link(),
                                        PricingCatalog::aws());
  FLStoreConfig secondary_cfg;
  secondary_cfg.backup_to_cold = false;
  FLStore secondary(secondary_cfg, job, untouched);
  secondary.ingest_round(record, 0.0);
  for (const auto& obj : objects) {
    EXPECT_FALSE(untouched.contains(obj.key.object_name()));
  }
  EXPECT_EQ(untouched.stats().puts, 0U);
}

TEST_F(BackupWriterTest, AutoFlushesAtMaxBatch) {
  fed::FLJob job(job_config(40));
  const auto record = job.make_round(0);
  ASSERT_EQ(fed::encode_round(record).size(), 82U);

  FLStore store(FLStoreConfig{}, job, cold);
  store.ingest_round(record, 0.0);
  // 82 objects arrive as one slice of 64 and one of 18.
  EXPECT_EQ(cold.stats().batches, 2U);
  EXPECT_EQ(cold.stats().puts, 82U);
}

TEST_F(BackupWriterTest, FeesLandOnTheMeter) {
  fed::FLJob job(job_config(40));
  const auto record = job.make_round(0);
  const auto objects = fed::encode_round(record).size();

  FLStore store(FLStoreConfig{}, job, cold);
  store.ingest_round(record, 0.0);
  // Batched or not, S3 bills every PUT; the sum differs from the product
  // only in rounding.
  const double expected =
      static_cast<double>(objects) * PricingCatalog::aws().s3_usd_per_put;
  EXPECT_NEAR(store.infra_meter().get(CostCategory::kStorageService),
              expected, 1e-12 * expected);
}

// --- the byte-identical regression ---------------------------------------

TEST(BackupWriterRegression, BatchedBackupMatchesInlinePathByteForByte) {
  fed::FLJob job(job_config(6));

  // Reference: every object of encode_round put on its own, in order.
  backend::ObjectStoreBackend inline_cold(sim::objstore_link(),
                                          PricingCatalog::aws());
  double inline_fees = 0.0;

  backend::ObjectStoreBackend batched_cold(sim::objstore_link(),
                                           PricingCatalog::aws());
  FLStore batched_fl(FLStoreConfig{}, job, batched_cold);

  for (RoundId r = 0; r < 3; ++r) {
    const auto record = job.make_round(r);
    const double now = 10.0 * r;
    const auto objects = fed::encode_round(record);
    for (const auto& obj : objects) {
      inline_fees += inline_cold
                         .put(obj.key.object_name(), obj.blob,
                              obj.logical_bytes, now)
                         .request_fee_usd;
    }
    batched_fl.ingest_round(record, now);

    for (const auto& obj : objects) {
      const auto name = obj.key.object_name();
      auto inline_got = inline_cold.get(name, now);
      auto batched_got = batched_cold.get(name, now);
      ASSERT_TRUE(inline_got.found) << name;
      ASSERT_TRUE(batched_got.found) << name;
      EXPECT_EQ(*inline_got.blob, *batched_got.blob) << name;
      EXPECT_EQ(inline_got.logical_bytes, batched_got.logical_bytes) << name;
    }
  }

  // Same objects, same bytes, same fees: the cold stores are
  // indistinguishable.
  EXPECT_EQ(inline_cold.stored_logical_bytes(),
            batched_cold.stored_logical_bytes());
  EXPECT_EQ(inline_cold.stats().puts, batched_cold.stats().puts);
  // Same fee total up to summation order (42 per-object adds vs 3 batches).
  EXPECT_NEAR(inline_fees, batched_fl.infra_meter().total(), 1e-12);
  // The backup went out as one batch per round, not object by object.
  EXPECT_EQ(batched_cold.stats().batches, 3U);
  EXPECT_EQ(inline_cold.stats().batches, 0U);
}

// A fixed-fleet tier with 10 MB left accepts the KB-scale metadata but
// refuses every model-sized object. With no cache to fall back on, the
// first request that needs a refused object throws NotFound and leaves no
// request in flight.
TEST(FLStoreBackup, BoundedColdTierRefusalSurfacesAsNotFound) {
  fed::FLJob job(job_config(6));
  backend::LocalSsdBackend::Config ssd_cfg;
  ssd_cfg.auto_scale = false;
  ssd_cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend cold(ssd_cfg, PricingCatalog::aws());
  ASSERT_TRUE(cold.put("filler", Blob(1),
                       cold.capacity_bytes() - 10 * units::MB, 0.0)
                  .accepted);

  FLStoreConfig cfg;
  cfg.cache_capacity = 1;
  FLStore store(cfg, job, cold);
  store.ingest_round(job.make_round(0), 0.0);
  EXPECT_GT(cold.stats().rejected_puts, 0U);
  EXPECT_FALSE(cold.contains(MetadataKey::aggregate(0).object_name()));

  fed::NonTrainingRequest req;
  req.id = 9;
  req.type = fed::WorkloadType::kDebugging;
  req.round = 0;
  EXPECT_THROW((void)store.serve(req, 10.0), NotFound);
  EXPECT_EQ(store.tracker().in_flight(), 0U);
  EXPECT_FALSE(store.tracker().contains(9));
}

}  // namespace
}  // namespace flstore::core
