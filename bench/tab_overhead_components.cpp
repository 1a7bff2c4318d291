// §5.5: overhead of FLStore's control-plane components, measured with
// google-benchmark on the real data structures.
//
// Paper numbers: Request Tracker < 0.19 MB and Cache Engine 0.6 MB at 1000
// concurrent requests; 20.3 MB / 63.2 MB at 100000; retrieve/use/remove all
// under one millisecond.
//
// Also times the serving plane's per-request compute: each paper workload's
// kernel, the update-blob decode that feeds it, the frame checksum and
// k-means.
#include <benchmark/benchmark.h>

#include <string>

#include "cloud/pricing.hpp"
#include "common/rng.hpp"
#include "core/cache_engine.hpp"
#include "core/request_tracker.hpp"
#include "fed/codec.hpp"
#include "fed/fl_job.hpp"
#include "tensor/kmeans.hpp"
#include "tensor/serialize.hpp"
#include "workloads/workload.hpp"

namespace flstore::core {
namespace {

void BM_RequestTrackerLifecycle(benchmark::State& state) {
  const auto concurrent = static_cast<std::size_t>(state.range(0));
  RequestTracker tracker;
  for (std::size_t i = 0; i < concurrent; ++i) {
    tracker.begin(static_cast<RequestId>(i + 1), 0.0);
    tracker.add_function(static_cast<RequestId>(i + 1),
                         static_cast<FunctionId>(i % 8));
  }
  // §5.5's footprint: the dictionary at `concurrent` in-flight requests.
  state.counters["resident_MB"] =
      static_cast<double>(tracker.bookkeeping_bytes()) / 1e6;

  RequestId next = concurrent + 1;
  std::size_t since_gc = 0;
  for (auto _ : state) {
    tracker.begin(next, 1.0);
    tracker.add_function(next, 3);
    tracker.finish(next, 2.0);
    benchmark::DoNotOptimize(tracker.is_done(next));
    ++next;
    if (++since_gc == 8192) {  // keep the table at its steady-state size
      state.PauseTiming();
      (void)tracker.garbage_collect(/*now=*/1e12, /*horizon_s=*/0.0);
      since_gc = 0;
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_RequestTrackerLifecycle)->Arg(1000)->Arg(100000);

// One request's tracker work as FLStore::serve does it: begin, route,
// finish, then garbage-collect with the one-hour horizon, all timed. Time
// advances 3600/N seconds per request, so one entry expires per iteration
// and the table holds ~N finished entries inside the horizon.
void BM_RequestTrackerServeCycle(benchmark::State& state) {
  constexpr double kHorizonS = 3600.0;
  const auto n = static_cast<std::int64_t>(state.range(0));
  const double step_s = kHorizonS / static_cast<double>(n);
  RequestTracker tracker;
  RequestId next = 1;
  const auto at = [&](RequestId id) { return static_cast<double>(id) * step_s; };
  for (; next <= static_cast<RequestId>(n); ++next) {
    tracker.begin(next, at(next));
    tracker.finish(next, at(next));
  }
  for (auto _ : state) {
    const double now = at(next);
    tracker.begin(next, now);
    tracker.add_function(next, static_cast<FunctionId>(next % 8));
    tracker.finish(next, now);
    benchmark::DoNotOptimize(tracker.garbage_collect(now, kHorizonS));
    ++next;
  }
  state.counters["tracked"] = static_cast<double>(tracker.total_tracked());
}
BENCHMARK(BM_RequestTrackerServeCycle)->Arg(4096)->Arg(100000);

void BM_RequestTrackerLookup(benchmark::State& state) {
  RequestTracker tracker;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    tracker.begin(static_cast<RequestId>(i + 1), 0.0);
  }
  RequestId probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.get(probe));
    probe = probe % n + 1;
  }
}
BENCHMARK(BM_RequestTrackerLookup)->Arg(1000)->Arg(100000);

struct EngineHarness {
  EngineHarness()
      : runtime(FunctionRuntime::Config{}, PricingCatalog::aws()),
        pool(ServerlessCachePool::Config{10 * units::GB, 1, 0}, runtime),
        engine(CacheEngine::Config{}, pool) {}
  FunctionRuntime runtime;
  ServerlessCachePool pool;
  CacheEngine engine;
};

void BM_CacheEngineLookup(benchmark::State& state) {
  EngineHarness h;
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto blob = std::make_shared<const Blob>(Blob{1});
  for (std::int32_t i = 0; i < n; ++i) {
    h.engine.cache_object(MetadataKey::metrics(i % 250, i / 250), blob,
                          2 * units::KB, 0.0);
  }
  std::int32_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        h.engine.lookup(MetadataKey::metrics(probe % 250, probe / 250), 1.0));
    probe = (probe + 1) % n;
  }
  state.counters["resident_MB"] =
      static_cast<double>(h.engine.bookkeeping_bytes()) / 1e6;
}
BENCHMARK(BM_CacheEngineLookup)->Arg(1000)->Arg(100000);

void BM_CacheEngineInsertEvict(benchmark::State& state) {
  EngineHarness h;
  const auto blob = std::make_shared<const Blob>(Blob{1});
  std::int32_t i = 0;
  for (auto _ : state) {
    const auto key = MetadataKey::metrics(i % 250, i);
    h.engine.cache_object(key, blob, 2 * units::KB, 0.0);
    benchmark::DoNotOptimize(h.engine.evict(key));
    ++i;
  }
}
BENCHMARK(BM_CacheEngineInsertEvict);

// --- Workload compute at the multi-tenant scenario's three models ----------
// (sim::TrafficShape::kMultiTenantContention). One iteration is one request's
// kernel on an already-decoded input; as in serving, repeated requests for a
// round reuse that round's memoized probe batch.

constexpr const char* kTenantModels[] = {"efficientnet_v2_s", "resnet18",
                                         "mobilenet_v3_small"};
constexpr RoundId kBenchRound = 15;

fed::FLJob tenant_job(const char* model) {
  fed::FLJobConfig cfg;
  cfg.model = model;
  cfg.pool_size = 100;
  cfg.clients_per_round = 10;
  cfg.rounds = 40;
  cfg.malicious_fraction = 0.1;
  cfg.seed = 24;
  return fed::FLJob(cfg);
}

void BM_WorkloadExecute(benchmark::State& state, fed::WorkloadType type,
                        const char* model) {
  const auto job = tenant_job(model);
  fed::NonTrainingRequest req;
  req.id = 1;
  req.type = type;
  req.round = kBenchRound;
  if (fed::policy_class_for(type) == fed::PolicyClass::kP3) {
    req.client = job.participants(kBenchRound).front();
  }
  const auto in = workloads::input_from_job(job, req);
  const auto& w = workloads::workload_for(type);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.execute(req, in));
  }
  state.counters["dim"] = static_cast<double>(job.model().materialized_dim());
}

void BM_DecodeUpdate(benchmark::State& state, const char* model) {
  const auto job = tenant_job(model);
  const auto blob =
      fed::encode_update(job.make_round(kBenchRound).updates.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fed::decode_update(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(blob.size()));
}

// A frame's checksum, at the sizes serving decodes: a metrics frame (77 B)
// and an efficientnet_v2_s update frame (3173 B).
void BM_Checksum(benchmark::State& state) {
  Blob bytes(static_cast<std::size_t>(state.range(0)));
  Rng rng(77);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(77)->Arg(3173);

// k-means as the P2 clustering workloads run it: one round's 10 update
// deltas, k = 3.
void BM_KMeans(benchmark::State& state, const char* model) {
  const auto job = tenant_job(model);
  std::vector<Tensor> points;
  for (const auto& u : job.make_round(kBenchRound).updates) {
    points.push_back(u.delta);
  }
  for (auto _ : state) {
    Rng rng(0xC105ULL + kBenchRound);
    benchmark::DoNotOptimize(kmeans(points, 3, rng));
  }
  state.counters["dim"] = static_cast<double>(job.model().materialized_dim());
}

[[maybe_unused]] const bool kWorkloadBenchesRegistered = [] {
  for (const auto* model : kTenantModels) {
    for (const auto type : fed::paper_workloads()) {
      benchmark::RegisterBenchmark(("BM_WorkloadExecute/" +
                                    std::string(fed::to_string(type)) + "/" +
                                    model)
                                       .c_str(),
                                   BM_WorkloadExecute, type, model);
    }
    benchmark::RegisterBenchmark(
        ("BM_DecodeUpdate/" + std::string(model)).c_str(), BM_DecodeUpdate,
        model);
    benchmark::RegisterBenchmark(("BM_KMeans/" + std::string(model)).c_str(),
                                 BM_KMeans, model);
  }
  return true;
}();

}  // namespace
}  // namespace flstore::core

BENCHMARK_MAIN();
