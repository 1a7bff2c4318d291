// §5.5: overhead of FLStore's control-plane components, measured with
// google-benchmark on the real data structures.
//
// Paper numbers: Request Tracker < 0.19 MB and Cache Engine 0.6 MB at 1000
// concurrent requests; 20.3 MB / 63.2 MB at 100000; retrieve/use/remove all
// under one millisecond.
//
// Also times the serving plane's per-request compute: each paper workload's
// kernel, the update-blob decode that feeds it, the frame checksum and
// k-means; the random draws every simulation makes, and the training round
// every system regenerates.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "cloud/pricing.hpp"
#include "common/rng.hpp"
#include "core/cache_engine.hpp"
#include "core/policy.hpp"
#include "core/request_tracker.hpp"
#include "fed/codec.hpp"
#include "fed/fl_job.hpp"
#include "tensor/kmeans.hpp"
#include "tensor/ops.hpp"
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
  explicit EngineHarness(CacheEngine::Config config = {})
      : runtime(FunctionRuntime::Config{}, PricingCatalog::aws()),
        pool(ServerlessCachePool::Config{10 * units::GB, 1, 0}, runtime),
        engine(config, pool) {}
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

// A put at capacity, as flbench's hot_write pays on every put of a key
// that is not resident: FLStore's tailored engine (round-aware victims)
// capped at 256 objects of 256 KiB, so each timed insert chooses a victim
// and evicts it from the index, the victim set and the pool before it
// places the new object. Keys never repeat: once a cycling stream wraps,
// round-aware eviction keeps the newest rounds resident and the next pass
// over them refreshes instead of evicting.
void BM_CacheEngineInsertAtCapacity(benchmark::State& state) {
  constexpr std::int32_t kSlots = 256;
  constexpr units::Bytes kObjectBytes = 256 * units::KiB;
  EngineHarness h(CacheEngine::Config{kSlots * kObjectBytes, PolicyMode::kLru,
                                      /*round_aware_eviction=*/true});
  const auto blob = std::make_shared<const Blob>(Blob{1});
  const auto key = [](std::int32_t i) {
    return MetadataKey::update(i % 64, i / 64);
  };
  std::int32_t i = 0;
  for (; i < kSlots; ++i) {
    h.engine.cache_object(key(i), blob, kObjectBytes, 0.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        h.engine.cache_object(key(i), blob, kObjectBytes, 0.0));
    ++i;
  }
  state.counters["evictions_per_insert"] =
      static_cast<double>(h.engine.forced_evictions()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_CacheEngineInsertAtCapacity);

// --- Workload compute at the multi-tenant scenario's three models ----------
// (sim::TrafficShape::kMultiTenantContention). One iteration is one request's
// kernel on an already-decoded input; as in serving, repeated requests for a
// round reuse that round's memoized probe batch.

constexpr const char* kTenantModels[] = {"efficientnet_v2_s", "resnet18",
                                         "mobilenet_v3_small"};
constexpr RoundId kBenchRound = 15;

fed::FLJobConfig tenant_config(const char* model) {
  fed::FLJobConfig cfg;
  cfg.model = model;
  cfg.pool_size = 100;
  cfg.clients_per_round = 10;
  cfg.rounds = 40;
  cfg.malicious_fraction = 0.1;
  cfg.seed = 24;
  return cfg;
}

fed::FLJob tenant_job(const char* model) {
  return fed::FLJob(tenant_config(model));
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

// One training round as every serving system regenerates it: participants,
// each client's local update, FedAvg. A fresh job per pass of the rounds, so
// a block's first round pays for its descent direction as serving does.
void BM_MakeRound(benchmark::State& state, const char* model) {
  const auto config = tenant_config(model);
  auto job = std::make_unique<fed::FLJob>(config);
  RoundId r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(job->make_round(r));
    if (++r == config.rounds) {
      state.PauseTiming();
      job = std::make_unique<fed::FLJob>(config);
      r = 0;
      state.ResumeTiming();
    }
  }
  state.counters["dim"] = static_cast<double>(job->model().materialized_dim());
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

// --- Random draws ------------------------------------------------------------
// Every simulation draws through Rng: uniforms for arrivals and sampling,
// N(0, 1) tensors at a model's materialized dimension for every client
// update and probe, and FLStore::serve builds one PolicyEngine, with its
// own Rng, per request.

void BM_RngUniform(benchmark::State& state) {
  Rng rng(0xD1CEULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RandomNormal(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(0x5EEDULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::random_normal(dim, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RandomNormal)->Arg(256)->Arg(1024);

// Construction only, with a fresh seed per request as FLStore::serve derives
// it; outside kTailoredRandom the engine never draws.
void BM_PolicyEngineConstruct(benchmark::State& state) {
  PolicyConfig config;
  std::uint64_t request = 0;
  for (auto _ : state) {
    config.random_seed = 7 ^ (++request * 0x9E3779B97F4A7C15ULL);
    PolicyEngine policy(config);
    benchmark::DoNotOptimize(policy);
  }
}
BENCHMARK(BM_PolicyEngineConstruct);

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
    benchmark::RegisterBenchmark(
        ("BM_MakeRound/" + std::string(model)).c_str(), BM_MakeRound, model);
  }
  return true;
}();

}  // namespace
}  // namespace flstore::core

BENCHMARK_MAIN();
