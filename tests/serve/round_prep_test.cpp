// Round preparation in the serving plane: each tenant's next round is made,
// encoded once for all its shards and its probe batches drawn ahead of its
// ingest, on a spare hardware thread when there is one and by the timeline
// itself otherwise. Whichever thread prepares a round, the results must be
// those of an inline run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>

#include "backend/object_store_backend.hpp"
#include "common/rng.hpp"
#include "fed/codec.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"
#include "tensor/ops.hpp"
#include "workloads/workload.hpp"

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

/// Inference and debugging draw probe batches; the rest make the rounds'
/// cache traffic realistic.
std::vector<fed::WorkloadType> probe_mix() {
  return {fed::WorkloadType::kInference, fed::WorkloadType::kDebugging,
          fed::WorkloadType::kMaliciousFilter,
          fed::WorkloadType::kSchedulingPerf, fed::WorkloadType::kReputation};
}

struct Plane {
  Plane(int worker_threads, int tenants, int shards_each)
      : cold(sim::objstore_link(), PricingCatalog::aws()) {
    ShardedStoreConfig cfg;
    cfg.worker_threads = worker_threads;
    cfg.routing = Routing::kHash;
    store = std::make_unique<ShardedStore>(cold, cfg);
    for (int i = 0; i < tenants; ++i) {
      jobs.push_back(std::make_unique<fed::FLJob>(
          job_config(300 + static_cast<std::uint64_t>(i))));
      (void)store->add_tenant(*jobs.back(), {}, shards_each);
    }
  }

  [[nodiscard]] std::vector<TenantMix> mix(
      const std::vector<fed::WorkloadType>& workloads) const {
    std::vector<TenantMix> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.push_back(TenantMix{static_cast<JobId>(i), jobs[i].get(),
                              1.0 + static_cast<double>(i), workloads, 3});
    }
    return out;
  }

  backend::ObjectStoreBackend cold;
  std::vector<std::unique_ptr<fed::FLJob>> jobs;
  std::unique_ptr<ShardedStore> store;
};

StreamConfig stream(int tenants) {
  StreamConfig cfg;
  cfg.rate.base_qps = 0.5 * tenants;
  cfg.duration_s = 20.0 * kRoundInterval;
  cfg.round_interval_s = kRoundInterval;
  cfg.seed = 11;
  return cfg;
}

void expect_same_reports(const ServiceReport& a, const ServiceReport& b) {
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
    EXPECT_EQ(ra.comm_s, rb.comm_s);
    EXPECT_EQ(ra.comp_s, rb.comp_s);
    EXPECT_EQ(ra.cost_usd, rb.cost_usd);
  }
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    EXPECT_EQ(a.scheduler[c].admitted, b.scheduler[c].admitted);
    EXPECT_EQ(a.scheduler[c].rejected, b.scheduler[c].rejected);
    EXPECT_EQ(a.scheduler[c].peak_queued, b.scheduler[c].peak_queued);
  }
}

void expect_same_shards(const ShardedStore& a, const ShardedStore& b) {
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (int s = 0; s < a.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(a.shard(s).engine().hits(), b.shard(s).engine().hits());
    EXPECT_EQ(a.shard(s).engine().misses(), b.shard(s).engine().misses());
    EXPECT_EQ(a.shard(s).engine().cached_bytes(),
              b.shard(s).engine().cached_bytes());
  }
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// The two ways a plane prepares rounds ahead, each against the inline run
/// of the same tenants: one timeline (worker_threads = 1) leaves every other
/// hardware thread to prep, and as many timelines as hardware threads leave
/// none, so each timeline claims every round it needs.
struct Threading {
  const char* name;
  int tenants;
  int worker_threads;
};

std::vector<Threading> threadings() {
  const int hw = hardware_threads();
  return {{"SpareThread", 1, 1},
          {"ClaimOrRun", std::max(2, hw), std::max(2, hw)}};
}

TEST(RoundPrep, StreamMatchesInlineRun) {
  for (const auto& t : threadings()) {
    SCOPED_TRACE(t.name);
    Plane inline_plane(0, t.tenants, 2);
    Plane prepped(t.worker_threads, t.tenants, 2);
    const auto cfg = stream(t.tenants);
    const auto a = inline_plane.store->serve_open_loop_stream(
        cfg, inline_plane.mix(probe_mix()));
    const auto b =
        prepped.store->serve_open_loop_stream(cfg, prepped.mix(probe_mix()));
    ASSERT_GT(a.records.size(), 100U);
    expect_same_reports(a, b);
    expect_same_shards(*inline_plane.store, *prepped.store);
  }
}

TEST(RoundPrep, MaterializedWindowsMatchInlineRun) {
  for (const auto& t : threadings()) {
    SCOPED_TRACE(t.name);
    Plane inline_plane(0, t.tenants, 2);
    Plane prepped(t.worker_threads, t.tenants, 2);
    const auto trace =
        open_loop_trace(stream(t.tenants), inline_plane.mix(probe_mix()));
    ASSERT_GT(trace.size(), 100U);
    // Two windows over one timeline: the second starts mid-trace, so its
    // first round is made afresh and the rest are prepared ahead again.
    const double split = 9.5 * kRoundInterval;
    const double end = std::nextafter(trace.back().request.arrival_s,
                                      std::numeric_limits<double>::infinity());
    std::vector<ServiceRequest> first;
    std::vector<ServiceRequest> second;
    for (const auto& r : trace) {
      (r.request.arrival_s < split ? first : second).push_back(r);
    }
    for (const auto& [part, lo, hi] :
         {std::tuple{&first, 0.0, split}, std::tuple{&second, split, end}}) {
      const auto a = inline_plane.store->serve_open_loop_window(
          *part, kRoundInterval, lo, hi);
      const auto b = prepped.store->serve_open_loop_window(
          *part, kRoundInterval, lo, hi);
      expect_same_reports(a, b);
    }
    expect_same_shards(*inline_plane.store, *prepped.store);
  }
}

TEST(RoundPrep, PrimedProbesAreTheRoundsOwn) {
  // An inline timeline primes the calling thread's probe memo at each
  // ingest. Records cannot show a wrong batch (latency and cost do not
  // depend on its values), so read the memo: the batches of the last two
  // rounds the run ingested must be the fresh draws their specs name.
  Plane plane(0, 1, 2);
  const auto report =
      plane.store->serve_open_loop_stream(stream(1), plane.mix(probe_mix()));
  RoundId last = 0;
  for (const auto& rec : report.records) {
    last = std::max(last, rec.request.round);
  }
  ASSERT_GT(last, 1);
  const auto dim = plane.jobs.front()->model().materialized_dim();
  const fed::WorkloadType types[] = {fed::WorkloadType::kInference,
                                     fed::WorkloadType::kDebugging};
  for (const RoundId r : {last - 1, last}) {
    for (const auto type : types) {
      const auto spec = *workloads::workload_for(type).round_probes(r, dim);
      Rng rng(spec.seed);
      std::vector<Tensor> fresh;
      for (int i = 0; i < spec.count; ++i) {
        fresh.push_back(ops::random_normal(spec.dim, rng));
      }
      EXPECT_EQ(*workloads::probe_batch(spec), fresh)
          << fed::to_string(type) << " round " << r;
    }
  }
}

TEST(RoundPrep, EveryShardCachesTheOneEncodedBlob) {
  Plane plane(0, 1, 3);
  const auto& job = *plane.jobs.front();
  const auto record = job.make_round(4);
  plane.store->ingest_round(0, record, 4 * kRoundInterval);

  const auto objects = fed::encode_round(record);
  int shared = 0;
  for (const auto& obj : objects) {
    const auto first = plane.store->shard(0).engine().read_only_lookup(
        obj.key, 4 * kRoundInterval);
    if (first.blob == nullptr) continue;  // the ingest plan did not cache it
    ++shared;
    EXPECT_EQ(*first.blob, *obj.blob) << obj.key.object_name();
    for (int s = 1; s < plane.store->shard_count(); ++s) {
      const auto other = plane.store->shard(s).engine().read_only_lookup(
          obj.key, 4 * kRoundInterval);
      EXPECT_EQ(other.blob.get(), first.blob.get())
          << obj.key.object_name() << " on shard " << s;
    }
  }
  EXPECT_GT(shared, 0);
}

TEST(RoundPrep, TimelineErrorReachesTheCaller) {
  // hyperparam_tracking has no history at round 0 and throws inside the
  // timeline while the tenant's next round is pending on a prep thread: the
  // run rethrows it, and the pending round is dropped, not left running.
  Plane plane(1, 1, 2);
  const std::vector<fed::WorkloadType> mix = {
      fed::WorkloadType::kInference, fed::WorkloadType::kHyperparamTracking};
  EXPECT_THROW((void)plane.store->serve_open_loop_stream(stream(2),
                                                         plane.mix(mix)),
               InvalidArgument);
}

}  // namespace
}  // namespace flstore::serve
