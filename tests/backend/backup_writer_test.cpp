// BackupWriter: batching schedule, fee accounting, and the regression that
// matters most — batched backup produces byte-identical cold-store contents
// (and identical fees) to the old inline per-object path.
#include "backend/backup_writer.hpp"

#include <gtest/gtest.h>

#include "backend/object_store_backend.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

struct BackupWriterTest : ::testing::Test {
  BackupWriterTest()
      : store(sim::objstore_link(), PricingCatalog::aws()), cold(store) {}
  ObjectStore store;
  ObjectStoreBackend cold;
  CostMeter meter;
};

TEST_F(BackupWriterTest, HoldsObjectsUntilFlush) {
  BackupWriter writer(cold, meter, BackupWriter::Config{/*max_batch=*/0});
  writer.enqueue("a", Blob{1}, 1 * units::MB, 0.0);
  writer.enqueue("b", Blob{2}, 2 * units::MB, 0.0);
  EXPECT_EQ(writer.pending(), 2U);
  EXPECT_EQ(store.put_count(), 0U);

  EXPECT_EQ(writer.flush(1.0), 2U);
  EXPECT_EQ(writer.pending(), 0U);
  EXPECT_EQ(store.put_count(), 2U);
  EXPECT_TRUE(store.contains("a"));
  EXPECT_TRUE(store.contains("b"));
  const auto stats = writer.stats();
  EXPECT_EQ(stats.enqueued, 2U);
  EXPECT_EQ(stats.flushes, 1U);
  EXPECT_EQ(stats.objects_written, 2U);
  EXPECT_EQ(writer.flush(2.0), 0U);  // nothing pending: no empty flush
  EXPECT_EQ(writer.stats().flushes, 1U);
}

TEST_F(BackupWriterTest, AutoFlushesAtMaxBatch) {
  BackupWriter writer(cold, meter, BackupWriter::Config{/*max_batch=*/2});
  writer.enqueue("a", Blob{1}, 1 * units::MB, 0.0);
  EXPECT_EQ(store.put_count(), 0U);
  writer.enqueue("b", Blob{2}, 1 * units::MB, 0.0);
  EXPECT_EQ(store.put_count(), 2U);  // hit the threshold: drained
  EXPECT_EQ(writer.pending(), 0U);
}

TEST_F(BackupWriterTest, FeesLandOnTheMeter) {
  BackupWriter writer(cold, meter, BackupWriter::Config{/*max_batch=*/0});
  for (int i = 0; i < 5; ++i) {
    writer.enqueue(std::to_string(i), Blob{1}, 1 * units::MB, 0.0);
  }
  writer.flush(0.0);
  // Batched or not, S3 bills every PUT.
  EXPECT_DOUBLE_EQ(meter.get(CostCategory::kStorageService),
                   5 * PricingCatalog::aws().s3_usd_per_put);
  EXPECT_DOUBLE_EQ(writer.stats().fees_usd,
                   5 * PricingCatalog::aws().s3_usd_per_put);
}

// --- the byte-identical regression ---------------------------------------

fed::FLJobConfig small_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 30;
  cfg.clients_per_round = 6;
  cfg.rounds = 20;
  cfg.seed = 17;
  return cfg;
}

std::vector<std::string> round_object_names(const fed::RoundRecord& record) {
  std::vector<std::string> names;
  for (const auto& u : record.updates) {
    names.push_back(MetadataKey::update(u.client, record.round).object_name());
    names.push_back(
        MetadataKey::metrics(u.client, record.round).object_name());
  }
  names.push_back(MetadataKey::aggregate(record.round).object_name());
  names.push_back(MetadataKey::metadata(record.round).object_name());
  return names;
}

TEST(BackupWriterRegression, BatchedBackupMatchesInlinePathByteForByte) {
  fed::FLJob job(small_job());

  // Inline-equivalent path: batch size 1 degenerates to one put per object
  // in enqueue order — exactly the old per-object loop.
  ObjectStoreBackend inline_cold(sim::objstore_link(), PricingCatalog::aws());
  ObjectStore& inline_store = inline_cold.store();
  core::FLStoreConfig inline_cfg;
  inline_cfg.backup_batch = 1;
  core::FLStore inline_fl(inline_cfg, job, inline_cold);

  // Batched path: whole rounds drain through one multi-put.
  ObjectStoreBackend batched_cold(sim::objstore_link(), PricingCatalog::aws());
  ObjectStore& batched_store = batched_cold.store();
  core::FLStoreConfig batched_cfg;
  batched_cfg.backup_batch = 64;
  core::FLStore batched_fl(batched_cfg, job, batched_cold);

  for (RoundId r = 0; r < 3; ++r) {
    const auto record = job.make_round(r);
    inline_fl.ingest_round(record, 10.0 * r);
    batched_fl.ingest_round(record, 10.0 * r);

    for (const auto& name : round_object_names(record)) {
      auto inline_got = inline_store.get(name);
      auto batched_got = batched_store.get(name);
      ASSERT_TRUE(inline_got.found) << name;
      ASSERT_TRUE(batched_got.found) << name;
      EXPECT_EQ(*inline_got.blob, *batched_got.blob) << name;
      EXPECT_EQ(inline_got.logical_bytes, batched_got.logical_bytes) << name;
    }
  }

  // Same objects, same bytes, same fees: the cold stores are
  // indistinguishable, and so are the infrastructure meters.
  EXPECT_EQ(inline_store.object_count(), batched_store.object_count());
  EXPECT_EQ(inline_store.stored_logical_bytes(),
            batched_store.stored_logical_bytes());
  EXPECT_EQ(inline_store.put_count(), batched_store.put_count());
  // Same fee total up to summation order (42 per-object adds vs 3 batched).
  EXPECT_NEAR(inline_fl.infra_meter().total(),
              batched_fl.infra_meter().total(), 1e-12);
  // The batched writer did its job in whole-round batches, not dribbles.
  EXPECT_GT(batched_fl.backup_writer().stats().objects_written, 0U);
  EXPECT_LT(batched_fl.backup_writer().stats().flushes,
            inline_fl.backup_writer().stats().flushes);
}

}  // namespace
}  // namespace flstore::backend
