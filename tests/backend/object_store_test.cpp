// ObjectStoreBackend as a bucket: contents, logical sizes, per-op latency
// and fees, and the GB-month idle bill.
#include "backend/object_store_backend.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"

namespace flstore {
namespace {

using backend::ObjectStoreBackend;
using units::MB;

ObjectStoreBackend make_store() {
  return ObjectStoreBackend(Link{0.08, 100.0 * 1e6}, PricingCatalog::aws());
}

TEST(ObjectStore, PutGetRoundTrip) {
  auto store = make_store();
  Rng rng(1);
  const auto t = ops::random_normal(64, rng);
  store.put("a", serialize_tensor(t), 100 * MB, 0.0);

  const auto got = store.get("a", 0.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(deserialize_tensor(*got.blob), t);
  EXPECT_EQ(got.logical_bytes, 100 * MB);
  // Latency reflects the *logical* size: 80ms + 100MB / 100MB/s = 1.08s.
  EXPECT_NEAR(got.latency_s, 1.08, 1e-9);
}

TEST(ObjectStore, MissPaysControlPlaneLatencyOnly) {
  auto store = make_store();
  const auto got = store.get("nope", 0.0);
  EXPECT_FALSE(got.found);
  EXPECT_EQ(got.blob, nullptr);
  EXPECT_NEAR(got.latency_s, 0.08, 1e-12);
  EXPECT_GT(got.request_fee_usd, 0.0);
}

TEST(ObjectStore, LogicalBytesDefaultToBlobSize) {
  auto store = make_store();
  store.put("k", Blob(1000, 7), 0, 0.0);
  EXPECT_EQ(store.get("k", 0.0).logical_bytes, 1000U);
}

TEST(ObjectStore, OverwriteReplacesAndAdjustsStoredBytes) {
  auto store = make_store();
  store.put("k", Blob{1}, 10 * MB, 0.0);
  EXPECT_EQ(store.stored_logical_bytes(), 10 * MB);
  store.put("k", Blob{2}, 4 * MB, 0.0);
  // One object left: its size alone is what the bucket holds.
  EXPECT_EQ(store.stored_logical_bytes(), 4 * MB);
  EXPECT_TRUE(store.contains("k"));
  EXPECT_EQ((*store.get("k", 0.0).blob)[0], 2);
}

TEST(ObjectStore, RemoveFreesBytes) {
  auto store = make_store();
  store.put("a", Blob{1}, 5 * MB, 0.0);
  store.put("b", Blob{2}, 7 * MB, 0.0);
  EXPECT_TRUE(store.remove("a", 0.0));
  EXPECT_FALSE(store.remove("a", 0.0));
  EXPECT_EQ(store.stored_logical_bytes(), 7 * MB);
  EXPECT_FALSE(store.contains("a"));
  EXPECT_FALSE(store.get("a", 0.0).found);
}

TEST(ObjectStore, CountsOperations) {
  auto store = make_store();
  store.put("a", Blob{1}, 0, 0.0);
  (void)store.get("a", 0.0);
  (void)store.get("missing", 0.0);
  EXPECT_EQ(store.stats().puts, 1U);
  EXPECT_EQ(store.stats().gets, 2U);
}

TEST(ObjectStore, StorageCostScalesWithContents) {
  auto store = make_store();
  EXPECT_DOUBLE_EQ(store.idle_cost(3600.0), 0.0);
  store.put("a", Blob{1}, units::Bytes{1000} * MB, 0.0);  // 1 GB
  const double month = 30.0 * 86400.0;
  EXPECT_NEAR(store.idle_cost(month), 0.023, 1e-9);
}

TEST(ObjectStore, PutLatencyUsesLogicalSize) {
  auto store = make_store();
  const auto res = store.put("a", Blob{1}, 200 * MB, 0.0);
  EXPECT_NEAR(res.latency_s, 0.08 + 2.0, 1e-9);
}

TEST(ObjectStore, SharedBlobSurvivesOverwrite) {
  // A reader holding the blob pointer must not be invalidated by a PUT.
  auto store = make_store();
  store.put("k", Blob{1, 2, 3}, 0, 0.0);
  const auto first = store.get("k", 0.0).blob;
  store.put("k", Blob{9}, 0, 0.0);
  EXPECT_EQ(first->size(), 3U);
  EXPECT_EQ(store.get("k", 0.0).blob->size(), 1U);
}

}  // namespace
}  // namespace flstore
