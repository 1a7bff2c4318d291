// Execute-ahead in the serving plane: helper threads compute the workload
// outputs of the arrivals a tenant's timeline will reach next, from the
// encoded blobs of rounds it has already ingested, and FLStore::serve takes
// such an output only when every need resolved to the very blob the task
// decoded. Records alone cannot show a wrong output (latency and cost see
// only its work footprint and result size), so every case here compares
// each served output's digest with an inline run's as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

#include "backend/object_store_backend.hpp"
#include "fed/codec.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"

namespace flstore::serve {
namespace {

constexpr double kRoundInterval = 30.0;

fed::FLJobConfig job_config(std::uint64_t seed) {
  fed::FLJobConfig cfg;
  cfg.model = "mobilenet_v3_small";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 60;
  cfg.seed = seed;
  return cfg;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

struct Plane {
  Plane(int worker_threads, int tenants, int shards_each,
        core::FLStoreConfig store_config = {},
        SchedulerConfig scheduler = {})
      : cold(sim::objstore_link(), PricingCatalog::aws()) {
    ShardedStoreConfig cfg;
    cfg.worker_threads = worker_threads;
    cfg.routing = Routing::kHash;
    cfg.scheduler = scheduler;
    store = std::make_unique<ShardedStore>(cold, cfg);
    for (int i = 0; i < tenants; ++i) {
      jobs.push_back(std::make_unique<fed::FLJob>(
          job_config(500 + static_cast<std::uint64_t>(i))));
      (void)store->add_tenant(*jobs.back(), store_config, shards_each);
    }
  }

  /// Every tenant on the paper's ten workloads.
  [[nodiscard]] std::vector<TenantMix> mix() const {
    std::vector<TenantMix> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.push_back(TenantMix{static_cast<JobId>(i), jobs[i].get(),
                              1.0 + static_cast<double>(i), {}, 3});
    }
    return out;
  }

  /// Outputs serve() took from an execute-ahead task, over every shard.
  [[nodiscard]] std::uint64_t outputs_taken() const {
    std::uint64_t n = 0;
    for (int s = 0; s < store->shard_count(); ++s) {
      n += store->shard(s).outputs_taken();
    }
    return n;
  }

  backend::ObjectStoreBackend cold;
  std::vector<std::unique_ptr<fed::FLJob>> jobs;
  std::unique_ptr<ShardedStore> store;
};

StreamConfig stream(int tenants, double qps_each = 0.5) {
  StreamConfig cfg;
  cfg.rate.base_qps = qps_each * tenants;
  cfg.duration_s = 20.0 * kRoundInterval;
  cfg.round_interval_s = kRoundInterval;
  cfg.seed = 23;
  return cfg;
}

/// Timelines for a threaded run of `tenants`: all of them at once, but
/// leaving a hardware thread to the helpers wherever there is one to leave.
int threaded(int tenants) {
  return std::max(1, std::min(tenants, hardware_threads() - 1));
}

/// Whether a run with `timelines` running timelines has a helper thread.
bool has_helpers(int timelines) { return hardware_threads() > timelines; }

void expect_same_records(const ServiceReport& a, const ServiceReport& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i];
    const auto& rb = b.records[i];
    SCOPED_TRACE("record " + std::to_string(i));
    ASSERT_EQ(ra.request.id, rb.request.id);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.shard, rb.shard);
    EXPECT_EQ(ra.rejected, rb.rejected);
    EXPECT_EQ(ra.hits, rb.hits);
    EXPECT_EQ(ra.misses, rb.misses);
    EXPECT_EQ(ra.start_s, rb.start_s);
    EXPECT_EQ(ra.queue_s, rb.queue_s);
    EXPECT_EQ(ra.comm_s, rb.comm_s);
    EXPECT_EQ(ra.comp_s, rb.comp_s);
    EXPECT_EQ(ra.cost_usd, rb.cost_usd);
    EXPECT_EQ(ra.output_digest, rb.output_digest)
        << fed::to_string(ra.request.type) << " round " << ra.request.round;
    if (!ra.rejected) {
      EXPECT_NE(ra.output_digest, 0U);
    }
  }
}

/// The inline run (worker_threads = 0) never posts a task; a threaded run
/// takes outputs from tasks whenever it has a helper thread.
void expect_taken(const Plane& inline_plane, const Plane& threaded_plane,
                  int timelines) {
  EXPECT_EQ(inline_plane.outputs_taken(), 0U);
  if (has_helpers(timelines)) {
    EXPECT_GT(threaded_plane.outputs_taken(), 0U);
  } else {
    EXPECT_EQ(threaded_plane.outputs_taken(), 0U);
  }
}

TEST(ExecuteAhead, StreamAgreesWithInlineRun) {
  const int timelines = threaded(3);
  Plane inline_plane(0, 3, 2);
  Plane plane(timelines, 3, 2);
  const auto cfg = stream(3);
  const auto a =
      inline_plane.store->serve_open_loop_stream(cfg, inline_plane.mix());
  const auto b = plane.store->serve_open_loop_stream(cfg, plane.mix());
  ASSERT_GT(a.records.size(), 500U);
  expect_same_records(a, b);
  expect_taken(inline_plane, plane, timelines);
}

TEST(ExecuteAhead, MaterializedWindowsAgreeWithInlineRun) {
  const int timelines = threaded(3);
  Plane inline_plane(0, 3, 2);
  Plane plane(timelines, 3, 2);
  const auto trace = open_loop_trace(stream(3), inline_plane.mix());
  ASSERT_GT(trace.size(), 500U);
  // Two consecutive windows over one timeline: the second starts with an
  // empty archive and rebuilds it from its own ingests.
  const double split = 9.5 * kRoundInterval;
  const double end = std::nextafter(trace.back().request.arrival_s,
                                    std::numeric_limits<double>::infinity());
  std::vector<ServiceRequest> first;
  std::vector<ServiceRequest> second;
  for (const auto& r : trace) {
    (r.request.arrival_s < split ? first : second).push_back(r);
  }
  std::uint64_t taken = 0;
  for (const auto& [part, lo, hi] :
       {std::tuple{&first, 0.0, split}, std::tuple{&second, split, end}}) {
    SCOPED_TRACE("window from " + std::to_string(lo));
    const auto a = inline_plane.store->serve_open_loop_window(
        *part, kRoundInterval, lo, hi);
    const auto b =
        plane.store->serve_open_loop_window(*part, kRoundInterval, lo, hi);
    expect_same_records(a, b);
    if (has_helpers(timelines)) {
      EXPECT_GT(plane.outputs_taken(), taken) << "the window took none";
    }
    taken = plane.outputs_taken();
  }
  expect_taken(inline_plane, plane, timelines);
}

TEST(ExecuteAhead, ColdFetchedCopyIsServedInline) {
  // A cache that holds about one round cannot keep the newest two: requests
  // miss and resolve those needs to copies fetched from the cold store,
  // whose addresses no task holds, so they decode and execute inline.
  Plane probe(0, 1, 1);
  units::Bytes round_bytes = 0;
  for (const auto& obj : fed::encode_round(probe.jobs.front()->make_round(1))) {
    round_bytes += obj.logical_bytes;
  }
  core::FLStoreConfig capped;
  capped.cache_capacity = round_bytes;
  const int timelines = threaded(3);
  Plane inline_plane(0, 3, 1, capped);
  Plane plane(timelines, 3, 1, capped);
  const auto cfg = stream(3);
  const auto a =
      inline_plane.store->serve_open_loop_stream(cfg, inline_plane.mix());
  const auto b = plane.store->serve_open_loop_stream(cfg, plane.mix());
  expect_same_records(a, b);
  expect_taken(inline_plane, plane, timelines);

  std::uint64_t all_hits = 0;
  std::uint64_t missed = 0;
  for (const auto& rec : b.records) {
    if (rec.rejected) continue;
    (rec.misses == 0 ? all_hits : missed) += 1;
  }
  EXPECT_GT(missed, 0U) << "the capped cache never missed";
  // A cold-fetched need fails the address check, so only requests that hit
  // on every need can have taken a task's output.
  EXPECT_LE(plane.outputs_taken(), all_hits);
}

TEST(ExecuteAhead, RejectedRequestsAgreeWithInlineRun) {
  // One queued request per class and shard: most of a fast stream is shed,
  // and a shed request drops the task posted for it.
  SchedulerConfig shedding;
  shedding.class_queue_limit = 1;
  const int timelines = threaded(3);
  Plane inline_plane(0, 3, 1, {}, shedding);
  Plane plane(timelines, 3, 1, {}, shedding);
  const auto cfg = stream(3, 4.0);
  const auto a =
      inline_plane.store->serve_open_loop_stream(cfg, inline_plane.mix());
  const auto b = plane.store->serve_open_loop_stream(cfg, plane.mix());
  ASSERT_GT(a.rejected(), 0U);
  expect_same_records(a, b);
  expect_taken(inline_plane, plane, timelines);
}

/// A window whose hyperparam_tracking request for round 0 has one round of
/// history: its execute throws InvalidArgument.
std::vector<ServiceRequest> failing_window() {
  std::vector<ServiceRequest> trace;
  const auto add = [&](RequestId id, fed::WorkloadType type, double at) {
    ServiceRequest r;
    r.request.id = id;
    r.request.type = type;
    r.request.round = 0;
    r.request.arrival_s = at;
    trace.push_back(r);
  };
  add(1, fed::WorkloadType::kInference, 2.0);
  add(2, fed::WorkloadType::kSchedulingPerf, 3.0);
  add(3, fed::WorkloadType::kHyperparamTracking, 5.0);
  add(4, fed::WorkloadType::kInference, 7.0);
  return trace;
}

std::string run_error(Plane& plane) {
  try {
    (void)plane.store->serve_open_loop_window(failing_window(), kRoundInterval,
                                              0.0, kRoundInterval);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "no InvalidArgument";
}

TEST(ExecuteAhead, TaskErrorSurfacesAsInline) {
  // With one timeline every other hardware thread is a helper, so the
  // failing request's task is posted at round 0's ingest; its exception
  // must leave the run as the inline execute's does.
  Plane inline_plane(0, 1, 1);
  Plane plane(1, 1, 1);
  const auto expected = run_error(inline_plane);
  EXPECT_NE(expected.find("hyperparam_tracking"), std::string::npos)
      << expected;
  EXPECT_EQ(run_error(plane), expected);
}

TEST(ExecuteAhead, FewerTimelinesThanTenantsComplete) {
  // With fewer pool threads than tenants, a timeline that finishes must go
  // back to the pool for the next tenant rather than lend itself to the
  // helpers, or the queued tenant would never start.
  Plane inline_plane(0, 3, 2);
  const auto cfg = stream(3);
  const auto a =
      inline_plane.store->serve_open_loop_stream(cfg, inline_plane.mix());
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("worker_threads " + std::to_string(workers));
    Plane plane(workers, 3, 2);
    const auto b = plane.store->serve_open_loop_stream(cfg, plane.mix());
    expect_same_records(a, b);
    expect_taken(inline_plane, plane, workers);
  }
}

}  // namespace
}  // namespace flstore::serve
