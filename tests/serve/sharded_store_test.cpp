// ShardedStore: routing, multi-tenant replay determinism under the worker
// pool, queued serving (throughput mode), admission control, windowed
// serving.
#include "serve/sharded_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "backend/object_store_backend.hpp"
#include "sim/calibration.hpp"

namespace flstore::serve {
namespace {

fed::FLJobConfig small_job(std::uint64_t seed) {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 80;
  cfg.seed = seed;
  return cfg;
}

struct Plane {
  explicit Plane(ShardedStoreConfig cfg, int tenants = 2, int shards_each = 1)
      : cold(sim::objstore_link(), PricingCatalog::aws()) {
    for (int i = 0; i < tenants; ++i) {
      jobs.push_back(
          std::make_unique<fed::FLJob>(small_job(100 + std::uint64_t(i))));
    }
    store = std::make_unique<ShardedStore>(cold, cfg);
    for (auto& job : jobs) {
      (void)store->add_tenant(*job, {}, shards_each);
    }
  }

  [[nodiscard]] std::vector<TenantMix> mix() const {
    std::vector<TenantMix> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.push_back(TenantMix{static_cast<JobId>(i), jobs[i].get(), 1.0, {}, 3});
    }
    return out;
  }

  backend::ObjectStoreBackend cold;
  std::vector<std::unique_ptr<fed::FLJob>> jobs;
  std::unique_ptr<ShardedStore> store;
};

StreamConfig open_loop(double qps, double duration) {
  StreamConfig cfg;
  cfg.rate.base_qps = qps;
  cfg.duration_s = duration;
  cfg.round_interval_s = 30.0;
  cfg.seed = 7;
  return cfg;
}

ShardedStoreConfig plane_config(int threads) {
  ShardedStoreConfig cfg;
  cfg.worker_threads = threads;
  return cfg;
}

/// Queued open-loop serving of a whole materialized trace: one window from
/// 0 through the last arrival. Windows are half-open, so the window ends one
/// ulp past the last arrival — the smallest window that holds every request.
ServiceReport serve_queued(ShardedStore& store,
                           const std::vector<ServiceRequest>& trace) {
  double last = 0.0;
  for (const auto& r : trace) last = std::max(last, r.request.arrival_s);
  return store.serve_open_loop_window(
      trace, 30.0, 0.0,
      std::nextafter(last, std::numeric_limits<double>::infinity()));
}

void expect_identical(const ServiceReport& a, const ServiceReport& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    ASSERT_EQ(ra.request.id, rb.request.id);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.shard, rb.shard);
    EXPECT_EQ(ra.rejected, rb.rejected);
    EXPECT_EQ(ra.hits, rb.hits);
    EXPECT_EQ(ra.misses, rb.misses);
    EXPECT_DOUBLE_EQ(ra.start_s, rb.start_s);
    EXPECT_DOUBLE_EQ(ra.queue_s, rb.queue_s);
    EXPECT_DOUBLE_EQ(ra.comm_s, rb.comm_s);
    EXPECT_DOUBLE_EQ(ra.comp_s, rb.comp_s);
    EXPECT_DOUBLE_EQ(ra.cost_usd, rb.cost_usd);
  }
}

// Acceptance criterion: a multi-tenant replay on 4 worker threads is
// bit-identical to a single-threaded replay of the same trace.
TEST(ShardedStore, ReplayDeterministicAcrossPoolSizes) {
  Plane reference(plane_config(/*threads=*/0), /*tenants=*/3);
  Plane pooled(plane_config(/*threads=*/4), /*tenants=*/3);
  const auto trace = open_loop_trace(open_loop(0.4, 600.0), reference.mix());
  ASSERT_GT(trace.size(), 100U);

  const auto a = reference.store->replay(trace, 30.0);
  const auto b = pooled.store->replay(trace, 30.0);
  ASSERT_EQ(a.records.size(), trace.size());
  expect_identical(a, b);
}

// The queued modes are deterministic too: scheduling decisions depend only
// on simulated time, never on pool interleaving.
TEST(ShardedStore, QueuedServingDeterministicAcrossPoolSizes) {
  Plane reference(plane_config(0), /*tenants=*/2, /*shards_each=*/2);
  Plane pooled(plane_config(4), /*tenants=*/2, /*shards_each=*/2);
  const auto trace = open_loop_trace(open_loop(0.5, 400.0), reference.mix());
  const auto a = serve_queued(*reference.store, trace);
  const auto b = serve_queued(*pooled.store, trace);
  expect_identical(a, b);
}

// The streaming entry point is a pure re-plumbing of the materialized one:
// for the constant-rate, no-population config, streaming the arrivals and
// serving the materialized trace as one window must give bit-identical
// reports, record for record.
TEST(ShardedStore, StreamedServingMatchesMaterializedOpenLoop) {
  Plane materialized(plane_config(0), /*tenants=*/2, /*shards_each=*/2);
  Plane streamed(plane_config(0), /*tenants=*/2, /*shards_each=*/2);

  const auto cfg = open_loop(0.5, 400.0);
  const auto trace = open_loop_trace(cfg, materialized.mix());
  ASSERT_GT(trace.size(), 100U);
  const auto a = serve_queued(*materialized.store, trace);
  const auto b = streamed.store->serve_open_loop_stream(cfg, streamed.mix());

  ASSERT_EQ(a.records.size(), trace.size());
  expect_identical(a, b);
}

// The same equivalence for a shaped stream: thinning under a 4x surge and a
// diurnal swing, with arrivals drawn from a client population.
TEST(ShardedStore, StreamedServingMatchesMaterializedSurge) {
  Plane materialized(plane_config(0), /*tenants=*/2, /*shards_each=*/2);
  Plane streamed(plane_config(0), /*tenants=*/2, /*shards_each=*/2);

  auto cfg = open_loop(0.4, 600.0);
  cfg.rate.diurnal_amplitude = 0.5;
  cfg.rate.diurnal_period_s = 300.0;
  cfg.rate.surges.push_back(RateProfile::Surge{200.0, 320.0, 4.0});
  cfg.population.clients = 5000;
  const auto trace = open_loop_trace(cfg, materialized.mix());
  ASSERT_GT(trace.size(), 100U);
  const auto a = serve_queued(*materialized.store, trace);
  const auto b = streamed.store->serve_open_loop_stream(cfg, streamed.mix());

  ASSERT_EQ(a.records.size(), trace.size());
  expect_identical(a, b);
}

TEST(ShardedStore, StreamedServingDeterministicAcrossPoolSizes) {
  Plane reference(plane_config(0), /*tenants=*/3, /*shards_each=*/2);
  Plane pooled(plane_config(4), /*tenants=*/3, /*shards_each=*/2);
  StreamConfig cfg;
  cfg.rate.base_qps = 0.8;
  cfg.rate.diurnal_amplitude = 0.4;
  cfg.rate.diurnal_period_s = 600.0;
  cfg.rate.surges.push_back(RateProfile::Surge{100.0, 200.0, 3.0});
  cfg.duration_s = 900.0;
  cfg.round_interval_s = 30.0;
  cfg.seed = 31;
  cfg.population.clients = 50000;
  const auto a = reference.store->serve_open_loop_stream(cfg, reference.mix());
  const auto b = pooled.store->serve_open_loop_stream(cfg, pooled.mix());
  ASSERT_GT(a.records.size(), 100U);
  expect_identical(a, b);
}

TEST(ShardedStore, StreamedServingRejectsUnknownOrDuplicateTenants) {
  Plane plane(plane_config(0), /*tenants=*/2);
  StreamConfig cfg;
  cfg.rate.base_qps = 0.5;
  cfg.duration_s = 60.0;

  auto unknown = plane.mix();
  unknown[1].tenant = 99;
  EXPECT_THROW((void)plane.store->serve_open_loop_stream(cfg, unknown),
               InvalidArgument);

  auto duplicate = plane.mix();
  duplicate[1].tenant = duplicate[0].tenant;
  EXPECT_THROW((void)plane.store->serve_open_loop_stream(cfg, duplicate),
               InvalidArgument);
}

// Every stream numbers its requests from 1 and the trackers keep finished
// ids for an hour of sim time, so a second stream on one plane is a caller
// error, refused before it serves anything. A fresh plane serves it.
TEST(ShardedStore, SecondStreamOnOnePlaneIsRejected) {
  Plane plane(plane_config(0), /*tenants=*/1);
  const auto cfg = open_loop(0.5, 600.0);
  const auto first = plane.store->serve_open_loop_stream(cfg, plane.mix());
  ASSERT_GT(first.records.size(), 100U);
  const auto tracked = plane.store->shard(0).tracker().total_tracked();
  ASSERT_GT(tracked, 0U);

  EXPECT_THROW((void)plane.store->serve_open_loop_stream(cfg, plane.mix()),
               InvalidArgument);
  EXPECT_EQ(plane.store->shard(0).tracker().total_tracked(), tracked);

  Plane fresh(plane_config(0), /*tenants=*/1);
  expect_identical(first,
                   fresh.store->serve_open_loop_stream(cfg, fresh.mix()));
}

// A single-shard single-tenant replay matches driving the facade directly —
// the serving plane adds no hidden cost or latency.
TEST(ShardedStore, SingleShardReplayMatchesDirectFacade) {
  auto cfg = plane_config(2);
  // The bare-facade reference below has no interceptor, so run the plane
  // with the direct cold path too.
  cfg.coalesce_cold_fetches = false;
  Plane plane(cfg, /*tenants=*/1);
  const auto trace = open_loop_trace(open_loop(0.3, 400.0), plane.mix());
  const auto report = plane.store->replay(trace, 30.0);

  // Reference: a bare FLStore over a fresh cold store, same namespace,
  // same interleaving of ingests and serves.
  backend::ObjectStoreBackend cold2(sim::objstore_link(),
                                    PricingCatalog::aws());
  fed::FLJob job2(small_job(100));
  core::FLStoreConfig store_cfg;
  store_cfg.cold_namespace = "t0/";
  core::FLStore direct(store_cfg, job2, cold2);
  std::size_t next = 0;
  const auto max_round = static_cast<RoundId>(400.0 / 30.0);
  ASSERT_EQ(report.records.size(), trace.size());
  const auto serve_and_compare = [&](double upto) {
    while (next < trace.size() && trace[next].request.arrival_s < upto) {
      const auto& req = trace[next].request;
      const auto res = direct.serve(req, req.arrival_s);
      const auto& rec = report.records[next];
      EXPECT_EQ(rec.hits, res.hits);
      EXPECT_EQ(rec.misses, res.misses);
      EXPECT_DOUBLE_EQ(rec.comm_s, res.comm_s);
      EXPECT_DOUBLE_EQ(rec.comp_s, res.comp_s);
      EXPECT_DOUBLE_EQ(rec.cost_usd, res.cost_usd);
      ++next;
    }
  };
  for (RoundId r = 0; r <= max_round; ++r) {
    const double t = 30.0 * r;
    serve_and_compare(t);
    if (r <= job2.latest_round()) direct.ingest_round(job2.make_round(r), t);
  }
  serve_and_compare(401.0);  // requests after the final ingest
  EXPECT_EQ(next, trace.size());
}

TEST(ShardedStore, RoutingPoliciesSpreadOrPinTraffic) {
  ShardedStoreConfig cfg;
  cfg.routing = Routing::kClassAffinity;
  Plane plane(cfg, /*tenants=*/1, /*shards_each=*/4);
  fed::NonTrainingRequest p1;
  p1.type = fed::WorkloadType::kInference;
  fed::NonTrainingRequest p2;
  p2.type = fed::WorkloadType::kClustering;
  const auto s1 = plane.store->shard_for({0, p1});
  const auto s2 = plane.store->shard_for({0, p2});
  EXPECT_NE(s1, s2);  // different classes, different shards
  p2.id = 999;        // class affinity ignores the id
  EXPECT_EQ(plane.store->shard_for({0, p2}), s2);
}

TEST(ShardedStore, QueueingKicksInWhenOfferedLoadExceedsCapacity) {
  // One shard, heavy P2 analytics at 1 QPS: service times of seconds per
  // request mean the queue must grow and latency must include waiting.
  ShardedStoreConfig cfg;
  cfg.worker_threads = 2;
  Plane plane(cfg, /*tenants=*/1);
  const auto trace = open_loop_trace(open_loop(1.0, 300.0), plane.mix());
  const auto report = serve_queued(*plane.store, trace);
  EXPECT_GT(report.queue_waits().percentile(95.0), 0.0);
  // Sharding the same tenant 4 ways at the same offered load cuts the tail.
  ShardedStoreConfig cfg4;
  cfg4.worker_threads = 2;
  cfg4.routing = Routing::kClassAffinity;
  Plane plane4(cfg4, /*tenants=*/1, /*shards_each=*/4);
  const auto report4 = serve_queued(*plane4.store, trace);
  EXPECT_LT(report4.latencies().percentile(95.0),
            report.latencies().percentile(95.0));
  EXPECT_GE(report4.throughput_qps(), report.throughput_qps());
}

TEST(ShardedStore, AdmissionControlShedsLoad) {
  ShardedStoreConfig cfg;
  cfg.scheduler.class_queue_limit = 2;
  Plane plane(cfg, /*tenants=*/1);
  const auto trace = open_loop_trace(open_loop(2.0, 200.0), plane.mix());
  const auto report = serve_queued(*plane.store, trace);
  EXPECT_GT(report.rejected(), 0U);
  EXPECT_EQ(report.rejected() + report.completed(), trace.size());
}

TEST(ShardedStore, CoalescerStatsArePerRunAndWindowsDontLeak) {
  ShardedStoreConfig cfg;
  cfg.routing = Routing::kHash;
  backend::ObjectStoreBackend cold(sim::objstore_link(),
                                   PricingCatalog::aws());
  fed::FLJob job(small_job(100));
  ShardedStore store(cold, cfg);
  core::FLStoreConfig store_cfg;
  store_cfg.policy.mode = core::PolicyMode::kLru;
  (void)store.add_tenant(job, store_cfg, 4);
  const std::vector<TenantMix> mix = {TenantMix{0, &job, 1.0, {}, 3}};
  const auto trace = open_loop_trace(open_loop(0.5, 300.0), mix);
  const auto first = store.replay(trace, 30.0);
  EXPECT_GT(first.coalescer.leads, 0U);
  // The second run restarts virtual time near 0; stale windows from the
  // first run must not be joinable, and its report must cover it alone.
  // (Request ids must stay unique per FLStore lifetime — the tracker
  // enforces it — so the rerun offsets them.)
  auto trace2 = trace;
  for (auto& r : trace2) r.request.id += 1'000'000;
  const auto second = store.replay(trace2, 30.0);
  const auto cumulative = store.coalescer_stats();
  EXPECT_EQ(cumulative.leads, first.coalescer.leads + second.coalescer.leads);
  EXPECT_EQ(cumulative.joins, first.coalescer.joins + second.coalescer.joins);
}

TEST(ShardedStore, UnknownTenantThrows) {
  Plane plane(plane_config(0), 1);
  fed::NonTrainingRequest req;
  req.type = fed::WorkloadType::kInference;
  EXPECT_THROW((void)plane.store->serve({5, req}, 0.0), InvalidArgument);
}

// Per-class cache budgets plumb through add_tenant to every shard, bound
// each partition's resident bytes, and show up in the tenant-level ledger.
TEST(ShardedStore, ClassPartitionsPlumbThroughAndStayBounded) {
  backend::ObjectStoreBackend cold(sim::objstore_link(),
                                   PricingCatalog::aws());
  fed::FLJob job(small_job(100));
  ShardedStore store(cold, plane_config(0));
  core::FLStoreConfig store_cfg;
  const auto p2 = fed::class_index(fed::PolicyClass::kP2);
  // Two updates' worth for P2: round ingests (6 updates each) must evict
  // within the P2 partition from the first round on.
  store_cfg.class_capacity[p2] = 2 * job.model().object_bytes;
  const auto tenant = store.add_tenant(job, store_cfg, /*cache_shards=*/2);

  std::vector<ServiceRequest> trace;
  const auto mixes = std::vector<TenantMix>{{tenant, &job, 0.6, {}, 3}};
  trace = open_loop_trace(open_loop(0.3, 300.0), mixes);
  (void)store.replay(trace, 30.0);

  const auto stats = store.tenant_class_stats(tenant);
  // Each of the 2 shards is bounded separately.
  EXPECT_LE(stats[p2].bytes, 2 * store_cfg.class_capacity[p2]);
  EXPECT_EQ(stats[p2].budget, store_cfg.class_capacity[p2]);
  EXPECT_GT(stats[p2].hits + stats[p2].misses, 0U);

  // Rebalancing from the observed ledger: budgets sum to the target, every
  // class keeps its floor, and the shards adopt them.
  const auto total = 4 * job.model().object_bytes;
  const auto floor = job.model().object_bytes / 4;
  std::array<core::ClassDemand, fed::kPolicyClassCount> demand{};
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    demand[c] = {stats[c].hits, stats[c].misses, stats[c].bytes};
  }
  const auto budgets =
      core::PolicyEngine::rebalance_class_budgets(demand, total, floor);
  store.set_tenant_class_budgets(tenant, budgets);
  units::Bytes sum = 0;
  for (const auto b : budgets) {
    EXPECT_GE(b, floor);
    sum += b;
  }
  EXPECT_EQ(sum, total);
  const auto after = store.tenant_class_stats(tenant);
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    EXPECT_EQ(after[c].budget, budgets[c]);
    EXPECT_LE(after[c].bytes, 2 * budgets[c]);
  }
}

// The telemetry plane is pure bookkeeping: with the tracer, metrics, and
// SLO monitor all live, per-request results stay bit-identical to the
// uninstrumented plane — across pool sizes, like every other mode.
TEST(ShardedStore, TelemetryIsPureBookkeeping) {
  Plane plain(plane_config(0), /*tenants=*/2, /*shards_each=*/2);
  obs::Telemetry telemetry;
  auto cfg = plane_config(4);
  cfg.telemetry = &telemetry;
  Plane traced(cfg, /*tenants=*/2, /*shards_each=*/2);
  const auto trace = open_loop_trace(open_loop(0.5, 400.0), plain.mix());
  const auto a = serve_queued(*plain.store, trace);
  const auto b = serve_queued(*traced.store, trace);
  expect_identical(a, b);

  // And the books balance: request counters sum to the completed count,
  // the per-class latency histograms hold every completed request, and the
  // run published its SLO/burn-rate gauges.
  std::uint64_t histogrammed = 0;
  for (const auto c : {fed::PolicyClass::kP1, fed::PolicyClass::kP2,
                       fed::PolicyClass::kP3, fed::PolicyClass::kP4}) {
    histogrammed += telemetry.metrics
                        .histogram("serve_request_latency_s",
                                   {{obs::kLabelClass, fed::to_string(c)}})
                        .count();
  }
  EXPECT_EQ(histogrammed, b.completed());
  EXPECT_GT(telemetry.metrics.cardinality("slo_burn_rate"), 0U);
  // Every sampled request opened a root span.
  std::size_t roots = 0;
  for (const auto& span : telemetry.tracer.spans()) {
    if (span.name == "request") ++roots;
  }
  EXPECT_EQ(roots, b.completed());
}

// Regression for two races the thread-safety annotation pass surfaced:
// dirty_window_stats() and infrastructure_cost() used to read shard state
// without taking the shard mutex, so polling them while a run was in
// flight on the pool raced with mid-ingest FlushScheduler/FunctionRuntime
// updates. Both now lock each shard; under TSan this test fails on the old
// code and is clean on the fixed one. (The concurrent values themselves are
// mid-run samples — only their data-race-freedom is asserted.)
TEST(ShardedStore, StatsPollingDuringRunIsDataRaceFree) {
  auto cfg = plane_config(/*threads=*/4);
  backend::FlushPolicy flush;
  flush.max_dirty_bytes = units::MB;  // keep the flush ledger busy mid-run
  cfg.cold_flush = flush;
  Plane plane(cfg, /*tenants=*/3);
  const auto trace = open_loop_trace(open_loop(0.5, 400.0), plane.mix());

  std::atomic<bool> done{false};
  ServiceReport report;
  std::thread runner([&] {
    report = plane.store->replay(trace, 30.0);
    done.store(true, std::memory_order_release);
  });
  double sink = 0.0;
  std::uint64_t flushes = 0;
  while (!done.load(std::memory_order_acquire)) {
    sink += plane.store->infrastructure_cost(3600.0);
    flushes += plane.store->dirty_window_stats(400.0).flushes;
    std::this_thread::yield();
  }
  runner.join();

  EXPECT_EQ(report.records.size(), trace.size());
  // Quiescent-plane reads still work after the run and see real state.
  EXPECT_GT(plane.store->infrastructure_cost(3600.0), 0.0);
  (void)sink;
  (void)flushes;
}

// --- Control-plane seams ---------------------------------------------------

// Per-class scheduler ledgers: admissions + rejections partition the trace,
// and the queued run exports them on the report (replay leaves them zero).
TEST(ShardedStore, SchedulerClassLedgersPartitionTheTrace) {
  ShardedStoreConfig cfg;
  cfg.scheduler.class_queue_limit = 2;
  Plane plane(cfg, /*tenants=*/2);
  const auto trace = open_loop_trace(open_loop(2.0, 200.0), plane.mix());
  const auto report = serve_queued(*plane.store, trace);
  ASSERT_GT(report.rejected(), 0U);
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::size_t peak = 0;
  for (const auto& cls : report.scheduler) {
    admitted += cls.admitted;
    rejected += cls.rejected;
    peak = std::max(peak, cls.peak_queued);
  }
  EXPECT_EQ(admitted + rejected, trace.size());
  EXPECT_EQ(rejected, report.rejected());
  EXPECT_GT(peak, 0U);
  EXPECT_LE(peak, cfg.scheduler.class_queue_limit);

  // Replay bypasses the schedulers entirely: a fresh plane's ledger stays
  // untouched by a zero-queueing run.
  Plane fresh(cfg, /*tenants=*/2);
  const auto replayed = fresh.store->replay(trace, 30.0);
  for (const auto& cls : replayed.scheduler) {
    EXPECT_EQ(cls.admitted + cls.rejected + cls.peak_queued, 0U);
  }
}

// The satellite gauges: queue-depth peak and admission rejects per class
// land in the metrics registry after a queued run.
TEST(ShardedStore, SchedulerGaugesReachTheRegistry) {
  obs::Telemetry telemetry;
  ShardedStoreConfig cfg;
  cfg.scheduler.class_queue_limit = 2;
  cfg.telemetry = &telemetry;
  Plane plane(cfg, /*tenants=*/1);
  const auto trace = open_loop_trace(open_loop(2.0, 200.0), plane.mix());
  const auto report = serve_queued(*plane.store, trace);
  double gauge_rejects = 0.0;
  double gauge_peak = 0.0;
  for (const auto c : {fed::PolicyClass::kP1, fed::PolicyClass::kP2,
                       fed::PolicyClass::kP3, fed::PolicyClass::kP4}) {
    gauge_rejects += telemetry.metrics
                         .gauge("sched_admission_rejects",
                                {{obs::kLabelClass, fed::to_string(c)}})
                         .value();
    gauge_peak = std::max(
        gauge_peak, telemetry.metrics
                        .gauge("sched_queue_depth_peak",
                               {{obs::kLabelClass, fed::to_string(c)}})
                        .value());
  }
  EXPECT_DOUBLE_EQ(gauge_rejects, static_cast<double>(report.rejected()));
  EXPECT_GT(gauge_peak, 0.0);
}

// Live scale-out: newcomers are warmed from the primary's resident set,
// keep-alive cost grows with the fleet, and the tenant's routing spreads
// over the new width on the next run.
TEST(ShardedStore, ScaleOutWarmsNewShardsAndBillsThem) {
  ShardedStoreConfig cfg;
  cfg.routing = Routing::kHash;
  Plane plane(cfg, /*tenants=*/1, /*shards_each=*/1);
  const auto trace = open_loop_trace(open_loop(0.5, 200.0), plane.mix());
  (void)serve_queued(*plane.store, trace);
  const auto cost1 = plane.store->infrastructure_cost(3600.0);
  ASSERT_EQ(plane.store->tenant_shard_count(0), 1);

  EXPECT_EQ(plane.store->set_tenant_shards(0, 3, 200.0), 3);
  EXPECT_EQ(plane.store->tenant_shard_count(0), 3);
  EXPECT_EQ(plane.store->active_shard_count(), 3);
  EXPECT_GT(plane.store->infrastructure_cost(3600.0), cost1);
  // Newcomers hold warm copies of the primary's residents.
  const auto& primary = plane.store->shard(0);
  ASSERT_GT(primary.engine().object_count(), 0U);
  for (int s = 1; s < 3; ++s) {
    EXPECT_GT(plane.store->shard(s).engine().object_count(), 0U);
  }
}

// Live scale-in: victims' residents re-home onto survivors, the retired
// slot stops billing, and scale-out after scale-in reuses the slot instead
// of growing the global shard table.
TEST(ShardedStore, ScaleInRehomesAndRetiredSlotsAreReused) {
  ShardedStoreConfig cfg;
  cfg.routing = Routing::kHash;
  Plane plane(cfg, /*tenants=*/1, /*shards_each=*/3);
  const auto trace = open_loop_trace(open_loop(0.5, 200.0), plane.mix());
  (void)serve_queued(*plane.store, trace);
  const auto cost3 = plane.store->infrastructure_cost(3600.0);

  ASSERT_GT(plane.store->shard(0).engine().object_count(), 0U);

  EXPECT_EQ(plane.store->set_tenant_shards(0, 1, 200.0), 1);
  EXPECT_EQ(plane.store->active_shard_count(), 1);
  EXPECT_LT(plane.store->infrastructure_cost(3600.0), cost3);
  // The survivor still holds the warm set; the retired shards hold nothing.
  EXPECT_GT(plane.store->shard(0).engine().object_count(), 0U);
  EXPECT_EQ(plane.store->shard(1).engine().object_count(), 0U);
  EXPECT_EQ(plane.store->shard(2).engine().object_count(), 0U);

  // Growing again reuses the retired slots: the global table stays at 3,
  // and the reactivated slot (the most recently retired: shard 1) serves
  // again, warmed from the primary.
  EXPECT_EQ(plane.store->set_tenant_shards(0, 2, 210.0), 2);
  EXPECT_EQ(plane.store->shard_count(), 3);
  EXPECT_EQ(plane.store->active_shard_count(), 2);
  EXPECT_GT(plane.store->shard(1).engine().object_count(), 0U);
}

// The plane keeps serving correctly across a scale cycle: every request
// still completes or is shed, and the second window's results are sane.
TEST(ShardedStore, ServingContinuesAcrossScaleCycle) {
  ShardedStoreConfig cfg;
  cfg.routing = Routing::kHash;
  Plane plane(cfg, /*tenants=*/1, /*shards_each=*/1);
  const auto trace = open_loop_trace(open_loop(0.5, 400.0), plane.mix());
  std::vector<ServiceRequest> first_half;
  std::vector<ServiceRequest> second_half;
  for (const auto& r : trace) {
    (r.request.arrival_s < 200.0 ? first_half : second_half).push_back(r);
  }
  const auto a =
      plane.store->serve_open_loop_window(first_half, 30.0, 0.0, 200.0);
  EXPECT_EQ(a.completed() + a.rejected(), first_half.size());
  (void)plane.store->set_tenant_shards(0, 3, 200.0);
  const auto b =
      plane.store->serve_open_loop_window(second_half, 30.0, 200.0, 400.0);
  EXPECT_EQ(b.completed() + b.rejected(), second_half.size());
  std::size_t shards_used = 0;
  std::array<bool, 8> seen{};
  for (const auto& r : b.records) {
    if (!seen[static_cast<std::size_t>(r.shard)]) {
      seen[static_cast<std::size_t>(r.shard)] = true;
      ++shards_used;
    }
  }
  EXPECT_GT(shards_used, 1U);  // hash routing spread over the new width
}

// Windowed serving composes: the four windows serve the whole trace exactly
// once, and — the first_round contract — no window re-ingests a round the
// previous horizon already delivered, so the cold tier sees the same backup
// stream as the unwindowed run.
TEST(ShardedStore, WindowedServingNeverReingestsRounds) {
  Plane whole(plane_config(0), /*tenants=*/2);
  Plane windowed(plane_config(0), /*tenants=*/2);
  const auto trace = open_loop_trace(open_loop(0.2, 400.0), whole.mix());
  (void)serve_queued(*whole.store, trace);
  const auto whole_puts = whole.cold.stats().puts;
  ASSERT_GT(whole_puts, 0U);

  std::size_t served = 0;
  for (int k = 0; k < 4; ++k) {
    const double start = 100.0 * k;
    const double end = 100.0 * (k + 1);
    std::vector<ServiceRequest> window;
    for (const auto& r : trace) {
      if (r.request.arrival_s >= start && r.request.arrival_s < end) {
        window.push_back(r);
      }
    }
    const auto part =
        windowed.store->serve_open_loop_window(window, 30.0, start, end);
    served += part.records.size();
    EXPECT_EQ(part.completed() + part.rejected(), window.size());
  }
  EXPECT_EQ(served, trace.size());
  // Round ingest (and its cold backup) happened exactly once per round.
  // The windowed horizon reaches 400 s while the unwindowed horizon stops
  // at the last arrival, so the windowed run may ingest at most the last
  // partial round extra — never fewer, never duplicates.
  EXPECT_GE(windowed.cold.stats().puts, whole_puts);
  EXPECT_LE(windowed.cold.stats().puts,
            whole_puts + whole_puts / 4);  // slack for the final round
}

// A window serves only its own arrivals. One before window_start_s would be
// served "in the past", on shards whose ingests have moved beyond it; one
// at or after window_end_s belongs to the next window, after rounds that
// window will ingest. Either is refused before anything is served or
// ingested.
TEST(ShardedStore, WindowedServingRejectsArrivalsOutsideTheWindow) {
  Plane plane(plane_config(0), /*tenants=*/1);
  const auto trace = open_loop_trace(open_loop(0.5, 200.0), plane.mix());
  std::vector<ServiceRequest> first_half;
  for (const auto& r : trace) {
    if (r.request.arrival_s < 100.0) first_half.push_back(r);
  }
  ASSERT_FALSE(first_half.empty());
  ASSERT_LT(first_half.size(), trace.size());

  // Earlier arrivals than the window start.
  EXPECT_THROW(
      (void)plane.store->serve_open_loop_window(trace, 30.0, 100.0, 200.0),
      InvalidArgument);
  // Later arrivals than the window end.
  EXPECT_THROW(
      (void)plane.store->serve_open_loop_window(trace, 30.0, 0.0, 100.0),
      InvalidArgument);
  // The end is exclusive.
  auto at_end = first_half;
  at_end.back().request.arrival_s = 100.0;
  EXPECT_THROW(
      (void)plane.store->serve_open_loop_window(at_end, 30.0, 0.0, 100.0),
      InvalidArgument);
  EXPECT_EQ(plane.cold.stats().puts, 0U);  // nothing ingested

  // The in-window slice serves.
  const auto report =
      plane.store->serve_open_loop_window(first_half, 30.0, 0.0, 100.0);
  EXPECT_EQ(report.completed() + report.rejected(), first_half.size());
}

}  // namespace
}  // namespace flstore::serve
