// InstrumentedBackend: the decorator must be invisible to the data plane
// (identical results, forwarded identity/stats) while booking op counts,
// latency histograms, fees, throttle-wait attribution, and backend spans.
#include "obs/instrumented_backend.hpp"

#include <gtest/gtest.h>

#include <string>

#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/calibration.hpp"

namespace flstore::obs {
namespace {

struct InstrumentedBackendTest : ::testing::Test {
  InstrumentedBackendTest()
      : inner(sim::objstore_link(), PricingCatalog::aws(), throttled()),
        wrapped(inner, options()) {}

  static backend::ObjectStoreBackend::Config throttled() {
    backend::ObjectStoreBackend::Config cfg;
    cfg.throttle.ops_per_s = 10.0;
    cfg.throttle.burst_ops = 1.0;
    return cfg;
  }
  InstrumentedBackend::Options options() {
    InstrumentedBackend::Options opts;
    opts.metrics = &metrics;
    opts.tracer = &tracer;
    opts.region = "us-east";
    return opts;
  }

  MetricsRegistry metrics;
  Tracer tracer;
  backend::ObjectStoreBackend inner;
  InstrumentedBackend wrapped;
};

TEST_F(InstrumentedBackendTest, ForwardsIdentityAndStats) {
  EXPECT_EQ(wrapped.kind(), inner.kind());
  EXPECT_EQ(wrapped.name(), inner.name());
  (void)wrapped.put("k", Blob(8), 1 * units::MB, 0.0);
  EXPECT_EQ(wrapped.stats().puts, inner.stats().puts);
  EXPECT_TRUE(wrapped.contains("k"));
  EXPECT_EQ(wrapped.stored_logical_bytes(), inner.stored_logical_bytes());
  EXPECT_DOUBLE_EQ(wrapped.idle_cost(3600.0), inner.idle_cost(3600.0));
}

TEST_F(InstrumentedBackendTest, ResultsAreBitIdenticalToRaw) {
  // A second, unwrapped backend with the same config sees the same ops at
  // the same times: every modelled quantity must match exactly.
  backend::ObjectStoreBackend raw(sim::objstore_link(), PricingCatalog::aws(),
                                  throttled());
  const auto raw_put = raw.put("k", Blob(64), 4 * units::MB, 0.0);
  const auto put = wrapped.put("k", Blob(64), 4 * units::MB, 0.0);
  EXPECT_EQ(put.accepted, raw_put.accepted);
  EXPECT_DOUBLE_EQ(put.latency_s, raw_put.latency_s);
  EXPECT_DOUBLE_EQ(put.request_fee_usd, raw_put.request_fee_usd);
  // Back-to-back at the same instant: the throttle wait must match too.
  const auto raw_get = raw.get("k", 0.0);
  const auto get = wrapped.get("k", 0.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.latency_s, raw_get.latency_s);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, raw_get.request_fee_usd);
}

TEST_F(InstrumentedBackendTest, BooksOpCountsLatenciesAndFees) {
  (void)wrapped.put("k", Blob(8), 1 * units::MB, 0.0);
  (void)wrapped.get("k", 100.0);
  (void)wrapped.get("k", 200.0);
  (void)wrapped.get("missing", 300.0);
  const Labels base{{kLabelBackend, "object-store"},
                    {kLabelRegion, "us-east"}};
  Labels get_labels = base;
  get_labels.emplace_back(kLabelOp, "get");
  Labels put_labels = base;
  put_labels.emplace_back(kLabelOp, "put");
  EXPECT_DOUBLE_EQ(metrics.counter("backend_ops_total", get_labels).value(),
                   3.0);
  EXPECT_DOUBLE_EQ(metrics.counter("backend_ops_total", put_labels).value(),
                   1.0);
  EXPECT_EQ(metrics.histogram("backend_op_latency_s", get_labels).count(),
            3U);
  EXPECT_DOUBLE_EQ(metrics.counter("backend_fees_usd_total", base).value(),
                   inner.stats().fees_usd);
  // Bytes read only count found objects (one logical MB per hit).
  EXPECT_DOUBLE_EQ(
      metrics.counter("backend_bytes_read_total", base).value(),
      static_cast<double>(2 * units::MB));
}

TEST_F(InstrumentedBackendTest, AttributesThrottleWaitToTheWaitingOp) {
  // burst 1 at 10 ops/s: the second op at t=0 waits 100 ms on the bucket.
  (void)wrapped.get("a", 0.0);
  (void)wrapped.get("b", 0.0);
  const Labels base{{kLabelBackend, "object-store"},
                    {kLabelRegion, "us-east"}};
  EXPECT_NEAR(
      metrics.counter("backend_throttle_wait_s_total", base).value(), 0.1,
      1e-9);
  EXPECT_DOUBLE_EQ(
      metrics.counter("backend_throttled_ops_total", base).value(), 1.0);
  // And the trace shows it: a throttle.wait child inside the op span.
  bool found_wait_child = false;
  const auto spans = tracer.spans();
  for (const auto& span : spans) {
    if (span.name != "throttle.wait") continue;
    for (const auto& parent : spans) {
      if (parent.id == span.parent) {
        EXPECT_EQ(parent.name, "backend.get");
        found_wait_child = true;
      }
    }
  }
  EXPECT_TRUE(found_wait_child);
}

TEST_F(InstrumentedBackendTest, SpansCarryObjectAndRegionAnnotations) {
  (void)wrapped.put("t0/model/1", Blob(8), 1 * units::MB, 0.0);
  const auto spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  bool found = false;
  for (const auto& span : spans) {
    if (span.name != "backend.put") continue;
    found = true;
    bool has_object = false, has_region = false;
    for (const auto& [k, v] : span.args) {
      if (k == "object" && v == "t0/model/1") has_object = true;
      if (k == "region" && v == "us-east") has_region = true;
    }
    EXPECT_TRUE(has_object);
    EXPECT_TRUE(has_region);
  }
  EXPECT_TRUE(found);
}

TEST(InstrumentedBackendBytesWritten, BooksOnlyAcceptedWrites) {
  // A fixed one-device SSD filled to the last byte refuses every new
  // object; an overwrite fits only into the bytes its old version frees.
  // The series must book what the SSD's own ledger books.
  backend::LocalSsdBackend::Config cfg;
  cfg.auto_scale = false;
  cfg.link = sim::local_ssd_link();
  backend::LocalSsdBackend ssd(cfg, PricingCatalog::aws());
  MetricsRegistry metrics;
  InstrumentedBackend::Options opts;
  opts.metrics = &metrics;
  InstrumentedBackend wrapped(ssd, std::move(opts));
  const auto written = [&] {
    return metrics
        .counter("backend_bytes_written_total",
                 Labels{{kLabelBackend, "local-ssd"}})
        .value();
  };
  const auto capacity = PricingCatalog::aws().ssd_device_capacity;
  ASSERT_TRUE(
      wrapped.put("filler", Blob(8), capacity - 2 * units::MB, 0.0).accepted);
  ASSERT_TRUE(wrapped.put("old", Blob(8), 2 * units::MB, 0.0).accepted);
  ASSERT_EQ(ssd.stored_logical_bytes(), capacity);
  const double full = written();
  EXPECT_DOUBLE_EQ(full, static_cast<double>(capacity));

  // A refused 1 MB put adds nothing.
  EXPECT_FALSE(wrapped.put("new", Blob(8), 1 * units::MB, 1.0).accepted);
  EXPECT_DOUBLE_EQ(written(), full);

  // "old" shrinks to 1 MB and "a" takes the freed MB; "b" finds no room.
  std::vector<backend::PutRequest> batch;
  batch.push_back(backend::PutRequest{"old", Blob(8), 1 * units::MB});
  batch.push_back(backend::PutRequest{"a", Blob(8), 1 * units::MB});
  batch.push_back(backend::PutRequest{"b", Blob(8), 1 * units::MB});
  const auto res = wrapped.put_batch(std::move(batch), 2.0);
  ASSERT_EQ(res.stored, 2U);
  EXPECT_DOUBLE_EQ(written(), full + static_cast<double>(2 * units::MB));

  // A mixed sequence: an accepted overwrite, a refusal, a remove that
  // frees room, then a put into it.
  EXPECT_TRUE(wrapped.put("a", Blob(8), 1 * units::MB, 3.0).accepted);
  EXPECT_FALSE(wrapped.put("c", Blob(8), 1 * units::MB, 4.0).accepted);
  EXPECT_TRUE(wrapped.remove("a", 5.0));
  EXPECT_TRUE(wrapped.put("c", Blob(8), 1 * units::MB, 6.0).accepted);
  EXPECT_DOUBLE_EQ(written(), static_cast<double>(ssd.stats().bytes_written));
  EXPECT_DOUBLE_EQ(
      metrics
          .counter("backend_rejected_puts_total",
                   Labels{{kLabelBackend, "local-ssd"}})
          .value(),
      static_cast<double>(ssd.stats().rejected_puts));
}

TEST(InstrumentedBackendNoTelemetry, WorksWithNullSinks) {
  // Metrics-only, tracer-only, and fully-off configurations all forward.
  backend::ObjectStoreBackend inner(sim::objstore_link(),
                                    PricingCatalog::aws());
  InstrumentedBackend off(inner, InstrumentedBackend::Options{});
  EXPECT_TRUE(off.put("k", Blob(8), 1 * units::MB, 0.0).accepted);
  EXPECT_TRUE(off.get("k", 1.0).found);
  EXPECT_EQ(off.stats().gets, 1U);
}

TEST(InstrumentedBackendOwning, OwnsTheInnerBackend) {
  MetricsRegistry metrics;
  InstrumentedBackend::Options opts;
  opts.metrics = &metrics;
  InstrumentedBackend wrapped(std::make_unique<backend::ObjectStoreBackend>(
                                  sim::objstore_link(), PricingCatalog::aws()),
                              std::move(opts));
  EXPECT_TRUE(wrapped.put("k", Blob(8), 1 * units::MB, 0.0).accepted);
  EXPECT_DOUBLE_EQ(
      metrics
          .counter("backend_ops_total",
                   {{kLabelBackend, "object-store"}, {kLabelOp, "put"}})
          .value(),
      1.0);
}

}  // namespace
}  // namespace flstore::obs
