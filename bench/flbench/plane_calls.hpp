// plane_calls.hpp — every call flbench makes into the FLStore library.
//
// flbench.cpp orchestrates the workloads, the timing and the statistics but
// names no library function: whatever it needs from src/ goes through this
// file, so a refactor that renames or folds a library entry point changes
// this file and nothing else in the benchmark, and numbers stay comparable
// across the change. Only src/ headers are included (not
// bench/bench_common.hpp), and only entry points the ROADMAP keeps are
// used: there are no ObjectStore& convenience constructors, no
// HotPathConfig::mode, no replay / serve_open_loop / serve_open_loop_window,
// no sim::run_trace and no MultiTenantFLStore.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "clock.hpp"
#include "common/rng.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "obs/telemetry.hpp"
#include "serve/load_generator.hpp"
#include "serve/sharded_store.hpp"
#include "serve/thread_pool.hpp"
#include "sim/calibration.hpp"
#include "sim/scenario.hpp"
#include "timed_backend.hpp"
#include "workloads/workload.hpp"

namespace flbench {

namespace fl = flstore;

inline constexpr std::size_t kClasses = fl::fed::kPolicyClassCount;

/// Hardware threads; every thread count in the benchmark is capped by it.
inline int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Run `fn(worker)` on `threads` barrier-started OS threads and join them.
inline void run_threads(int threads, const std::function<void(int)>& fn) {
  fl::serve::ThreadPool::run_replicated(threads, fn);
}

/// FNV-1a accumulator for the run digests.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Engine and tracker state summed over every shard of a plane.
struct EngineTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t forced_evictions = 0;
  std::uint64_t tracked = 0;  ///< RequestTracker entries still held
  fl::units::Bytes cached_bytes = 0;
};

inline EngineTotals engine_totals(const fl::serve::ShardedStore& plane) {
  EngineTotals t;
  for (int s = 0; s < plane.shard_count(); ++s) {
    const auto& store = plane.shard(s);
    t.hits += store.engine().hits();
    t.misses += store.engine().misses();
    t.forced_evictions += store.engine().forced_evictions();
    t.cached_bytes += store.engine().cached_bytes();
    t.tracked += store.tracker().total_tracked();
  }
  return t;
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct IngestCost {
  double make_round_ns = 0.0;
  double primary_ns = 0.0;
  double secondary_ns = 0.0;
};

/// Median wall nanoseconds of one isolated FLJob::make_round and of one
/// FLStore::ingest_round on a primary shard (backs the round up to the cold
/// tier) and on a secondary shard (does not), over rounds [0, rounds).
/// Ingest times are self times: the cold-tier calls they make are timed
/// separately (TimedBackend) and subtracted, because in the serving run
/// those calls are booked to the backend layer.
inline IngestCost time_ingest(const fl::fed::FLJob& job,
                              const fl::core::FLStoreConfig& config,
                              int rounds, double round_interval_s) {
  fl::backend::ObjectStoreBackend cold(fl::sim::objstore_link(),
                                       fl::PricingCatalog::aws());
  TimedBackend timed(cold);
  auto secondary_config = config;
  secondary_config.backup_to_cold = false;
  fl::core::FLStore primary(config, job, timed);
  fl::core::FLStore secondary(secondary_config, job, timed);
  std::vector<double> make, prim, sec;
  for (fl::RoundId r = 0; r < rounds && r <= job.latest_round(); ++r) {
    const double now = static_cast<double>(r) * round_interval_s;
    const auto t0 = now_ns();
    const auto record = job.make_round(r);
    const auto t1 = now_ns();
    const auto b1 = timed.total_ns();
    primary.ingest_round(record, now);
    const auto t2 = now_ns();
    const auto b2 = timed.total_ns();
    secondary.ingest_round(record, now);
    const auto t3 = now_ns();
    const auto b3 = timed.total_ns();
    make.push_back(static_cast<double>(t1 - t0));
    prim.push_back(static_cast<double>(t2 - t1) - static_cast<double>(b2 - b1));
    sec.push_back(static_cast<double>(t3 - t2) - static_cast<double>(b3 - b2));
  }
  return {median_of(make), median_of(prim), median_of(sec)};
}

// =========================================================================
// Serving-plane workloads (simulated time, driven open loop)
// =========================================================================

/// paper_mix: multi_tenant_contention stretched to this many sim-hours.
inline constexpr double kPaperMixHours = 4.0;
/// metadata_crowd: flash_crowd at rate scale 6 per eight shards, on
/// kCrowdShards shards, for kCrowdHours sim-hours (the preset's surge covers
/// 1.5 h to 2 h; the last half hour drains it). Fewer shards at a
/// proportionally lower rate give every shard exactly the preset's per-shard
/// load — the same queues, tracker sizes and GC scans — in fewer requests,
/// so a run fits more repetitions.
inline constexpr double kCrowdRateScalePer8Shards = 6.0;
inline constexpr int kCrowdShards = 4;
inline constexpr double kCrowdHours = 2.5;
inline constexpr std::uint64_t kCrowdTraceSampleEvery = 64;

/// Tenant timelines run on a pool of one thread per tenant (capped at the
/// hardware); a single tenant runs inline on the calling thread.
inline int sim_worker_threads(const fl::sim::ShapedScenario& scenario) {
  const auto tenants = static_cast<int>(scenario.tenants.size());
  return tenants > 1 ? std::min(tenants, hardware_threads()) : 0;
}

/// One serving-plane workload, fully parameterised. `scale` multiplies the
/// offered rate (1 = full size; --smoke passes 0.05).
struct SimSpec {
  fl::sim::ShapedScenario scenario;
  /// Request mix of every tenant; empty = the paper's ten workloads.
  /// hyperparam_tracking is never in a mix: a request for round 0 throws
  /// InvalidArgument inside a tenant timeline, and run_all_tenants then
  /// aborts the whole run (see README.md).
  std::vector<fl::fed::WorkloadType> workloads;
  int worker_threads = 1;
  /// Telemetry on with tracer sampling 1/N; 0 = telemetry off.
  std::uint64_t trace_sample_every = 0;
  fl::serve::SchedulerConfig scheduler;
};

inline SimSpec paper_mix_spec(std::uint64_t seed, double scale) {
  SimSpec s;
  s.scenario = fl::sim::traffic_shape_preset(
      fl::sim::TrafficShape::kMultiTenantContention, scale);
  s.scenario.stream.duration_s = kPaperMixHours * 3600.0;
  s.scenario.stream.seed = seed;
  s.worker_threads = sim_worker_threads(s.scenario);
  return s;
}

inline SimSpec metadata_crowd_spec(std::uint64_t seed, double scale) {
  SimSpec s;
  s.scenario = fl::sim::traffic_shape_preset(
      fl::sim::TrafficShape::kFlashCrowd,
      kCrowdRateScalePer8Shards * kCrowdShards / 8.0 * scale);
  s.scenario.shards_per_tenant = kCrowdShards;
  s.scenario.stream.duration_s = kCrowdHours * 3600.0;
  s.scenario.stream.seed = seed;
  s.workloads = {fl::fed::WorkloadType::kSchedulingPerf,
                 fl::fed::WorkloadType::kReputation,
                 fl::fed::WorkloadType::kProvenance};
  s.worker_threads = sim_worker_threads(s.scenario);
  s.trace_sample_every = kCrowdTraceSampleEvery;
  // Unbounded admission: the surge builds queues instead of shedding, so no
  // request of the workload fails.
  s.scheduler.class_queue_limit = 0;
  return s;
}

/// What one serving run produced, reduced to the benchmark's numbers.
struct SimOutcome {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  /// FNV-1a over every record's (id, shard, start, latency, cost).
  std::uint64_t digest = 0;
  std::array<std::uint64_t, kClasses> completed_by_class{};
  /// Mean modelled service latency (comm + comp) of completed requests.
  double service_mean_s = 0.0;
  /// Mean scheduler queue wait of completed requests.
  double queue_mean_s = 0.0;
  /// Percentiles of the full latency (queue + comm + comp).
  double p50_s = 0.0;
  double p99_s = 0.0;
  double usd_per_1k = 0.0;
  double slo_attainment = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t sched_rejected = 0;
  std::uint64_t peak_queued = 0;
  std::uint64_t leads = 0;
  std::uint64_t joins = 0;
};

/// Offered requests of one isolated ArrivalStream drain and its wall time.
struct Drain {
  std::uint64_t offered = 0;
  double last_arrival_s = 0.0;
  std::int64_t ns = 0;
};

/// Cold-tier ledger of a plane: call counts and wall time from the
/// TimedBackend (instrumented planes only), bytes and fees from OpStats.
struct BackendLedger {
  std::uint64_t get_calls = 0;
  std::uint64_t put_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t ns = 0;
  fl::units::Bytes bytes_written = 0;
  double fees_usd = 0.0;
};

/// Costs from an isolated replay of a sample of a run's completed requests.
struct ReplayCost {
  std::array<std::uint64_t, kClasses> sampled{};
  std::array<double, kClasses> decode_ns{};   ///< summed over the sample
  std::array<double, kClasses> execute_ns{};  ///< summed over the sample
  std::vector<std::uint32_t> get_ns;          ///< CacheEngine::lookup
  std::vector<std::uint32_t> put_ns;          ///< CacheEngine::cache_object
  std::vector<std::uint32_t> evict_ns;        ///< CacheEngine::evict
};

inline std::uint32_t clamp_ns(std::int64_t ns) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(ns, 0, std::int64_t{UINT32_MAX}));
}

/// One built serving plane: jobs, cold tier (object store, optionally
/// behind a TimedBackend), optional telemetry, and the ShardedStore with
/// every tenant registered. Constructing one is the workload's set-up.
class SimPlane {
 public:
  SimPlane(const SimSpec& spec, bool timed)
      : spec_(spec),
        cold_(fl::sim::objstore_link(), fl::PricingCatalog::aws()) {
    const auto& tenants = spec_.scenario.tenants;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      jobs_.push_back(std::make_unique<fl::fed::FLJob>(tenants[i].job));
      mix_.push_back(fl::serve::TenantMix{static_cast<fl::JobId>(i),
                                          jobs_.back().get(),
                                          tenants[i].weight, spec_.workloads,
                                          tenants[i].tracked_clients});
    }
    if (timed) timed_ = std::make_unique<TimedBackend>(cold_);
    if (spec_.trace_sample_every > 0) {
      fl::obs::Telemetry::Config tcfg;
      tcfg.trace.sample_every = spec_.trace_sample_every;
      telemetry_ = std::make_unique<fl::obs::Telemetry>(tcfg);
    }
    fl::serve::ShardedStoreConfig cfg;
    cfg.worker_threads = spec_.worker_threads;
    cfg.routing = fl::serve::Routing::kHash;
    cfg.scheduler = spec_.scheduler;
    cfg.telemetry = telemetry_.get();
    fl::backend::StorageBackend& cold =
        timed_ != nullptr ? static_cast<fl::backend::StorageBackend&>(*timed_)
                          : cold_;
    plane_ = std::make_unique<fl::serve::ShardedStore>(cold, cfg);
    for (const auto& job : jobs_) {
      (void)plane_->add_tenant(*job, {}, spec_.scenario.shards_per_tenant);
    }
  }
  SimPlane(const SimPlane&) = delete;
  SimPlane& operator=(const SimPlane&) = delete;

  /// The timed operation: serve the whole streamed scenario.
  fl::serve::ServiceReport serve() {
    return plane_->serve_open_loop_stream(spec_.scenario.stream, mix_);
  }

  [[nodiscard]] SimOutcome summarize(
      const fl::serve::ServiceReport& report) const {
    SimOutcome o;
    Fnv fnv;
    std::uint64_t within = 0;
    double service = 0.0;
    double queue = 0.0;
    for (const auto& rec : report.records) {
      fnv.mix(static_cast<std::uint64_t>(rec.request.id));
      fnv.mix(static_cast<std::uint64_t>(rec.shard));
      fnv.mix(rec.start_s);
      fnv.mix(rec.latency_s());
      fnv.mix(rec.cost_usd);
      if (rec.rejected) continue;
      const auto cls = fl::fed::class_index(rec.policy_class());
      ++o.completed_by_class[cls];
      service += rec.comm_s + rec.comp_s;
      queue += rec.queue_s;
      if (rec.latency_s() <= spec_.scenario.slo_latency_s[cls]) ++within;
    }
    o.digest = fnv.h;
    o.offered = report.records.size();
    o.completed = report.completed();
    o.rejected = report.rejected();
    if (o.completed > 0) {
      o.service_mean_s = service / static_cast<double>(o.completed);
      o.queue_mean_s = queue / static_cast<double>(o.completed);
    }
    o.p50_s = report.latency_percentile_s(50.0);
    o.p99_s = report.latency_percentile_s(99.0);
    const double duration = spec_.scenario.stream.duration_s;
    const double usd = report.total_cost_usd() +
                       plane_->infrastructure_cost(duration) +
                       plane_->cold().idle_cost(duration);
    o.usd_per_1k = o.completed == 0
                       ? 0.0
                       : 1000.0 * usd / static_cast<double>(o.completed);
    o.slo_attainment =
        o.offered == 0
            ? 0.0
            : static_cast<double>(within) / static_cast<double>(o.offered);
    for (const auto& c : report.scheduler) {
      o.admitted += c.admitted;
      o.sched_rejected += c.rejected;
      o.peak_queued = std::max<std::uint64_t>(o.peak_queued, c.peak_queued);
    }
    o.leads = report.coalescer.leads;
    o.joins = report.coalescer.joins;
    return o;
  }

  /// Drain one fresh replica of the run's ArrivalStream, untouched by the
  /// plane: the offered count the run must account for, and the wall cost
  /// of generating it once.
  [[nodiscard]] Drain drain_arrivals() const {
    Drain d;
    const auto t0 = now_ns();
    fl::serve::ArrivalStream stream(spec_.scenario.stream, mix_);
    while (stream.next()) {
    }
    d.ns = now_ns() - t0;
    d.offered = stream.emitted();
    d.last_arrival_s = stream.last_arrival_s();
    return d;
  }

  /// Drain the hot path's deferred stripes so engine ledgers are exact.
  void sync() { plane_->hot_sync(); }
  [[nodiscard]] EngineTotals totals() const { return engine_totals(*plane_); }

  [[nodiscard]] BackendLedger backend_ledger() const {
    BackendLedger l;
    const auto stats = cold_.stats();
    l.bytes_written = stats.bytes_written;
    l.fees_usd = stats.fees_usd;
    if (timed_ != nullptr) {
      l.get_calls = timed_->get_calls();
      l.put_calls = timed_->put_calls();
      l.batch_calls = timed_->batch_calls();
      l.ns = timed_->total_ns();
    }
    return l;
  }

  [[nodiscard]] std::uint64_t spans() const {
    return telemetry_ == nullptr ? 0 : telemetry_->tracer.span_count();
  }
  [[nodiscard]] std::uint64_t spans_dropped() const {
    return telemetry_ == nullptr ? 0 : telemetry_->tracer.dropped();
  }

  [[nodiscard]] std::size_t tenants() const { return jobs_.size(); }
  [[nodiscard]] int shards_per_tenant() const {
    return spec_.scenario.shards_per_tenant;
  }

  /// Training rounds tenant `t`'s timeline ingested in a run whose last
  /// arrival was at `last_arrival_s`: rounds past the stream's end are
  /// dropped, as ShardedStore's streamed timelines do.
  [[nodiscard]] std::uint64_t ingested_rounds(std::size_t t,
                                              double last_arrival_s) const {
    const auto& stream = spec_.scenario.stream;
    const double horizon = std::min(stream.duration_s, last_arrival_s);
    const auto last = std::min<double>(
        jobs_[t]->latest_round(),
        std::floor(horizon / stream.round_interval_s));
    return static_cast<std::uint64_t>(last) + 1;
  }

  [[nodiscard]] IngestCost time_tenant_ingest(std::size_t t,
                                              int rounds) const {
    return time_ingest(*jobs_[t], tenant_config(t), rounds,
                       spec_.scenario.stream.round_interval_s);
  }

  /// Isolated replay of every `every`-th completed request (by request id):
  /// data_needs, blobs read back from this plane's cold tier, then a timed
  /// put and get of each key on a private engine of the tenant's
  /// configuration, timed absorb_blob (decode) and timed execute. Finally
  /// every inserted key is evicted, timed. Reads the cold tier, so take
  /// backend_ledger() first.
  [[nodiscard]] ReplayCost replay_requests(
      const fl::serve::ServiceReport& report, std::uint64_t every) {
    ReplayCost cost;
    fl::backend::ObjectStoreBackend scratch(fl::sim::objstore_link(),
                                            fl::PricingCatalog::aws());
    std::vector<std::unique_ptr<fl::core::FLStore>> stores;
    for (std::size_t t = 0; t < jobs_.size(); ++t) {
      stores.push_back(std::make_unique<fl::core::FLStore>(
          tenant_config(t), *jobs_[t], scratch));
    }
    std::vector<std::pair<std::size_t, fl::MetadataKey>> inserted;
    for (const auto& rec : report.records) {
      if (rec.rejected || rec.request.id % every != 0) continue;
      const auto t = static_cast<std::size_t>(rec.tenant);
      const auto& job = *jobs_[t];
      const auto cls = rec.policy_class();
      const auto c = fl::fed::class_index(cls);
      const auto& workload = fl::workloads::workload_for(rec.request.type);
      const auto& ns = tenant_config(t).cold_namespace;
      auto& engine = stores[t]->engine();
      fl::workloads::WorkloadInput input;
      input.model = &job.model();
      std::int64_t decode = 0;
      for (const auto& key : workload.data_needs(rec.request, job)) {
        const auto got = cold_.get(ns + key.object_name(), rec.start_s);
        if (!got.found) {
          throw std::runtime_error("replay: cold tier lacks " + ns +
                                   key.object_name());
        }
        const auto t_put = now_ns();
        (void)engine.cache_object(key, got.blob, got.logical_bytes,
                                  rec.start_s, rec.start_s, false, false, cls);
        const auto t_get = now_ns();
        (void)engine.lookup(key, rec.start_s, cls);
        const auto t_decode = now_ns();
        fl::workloads::absorb_blob(input, key, *got.blob);
        const auto t_done = now_ns();
        cost.put_ns.push_back(clamp_ns(t_get - t_put));
        cost.get_ns.push_back(clamp_ns(t_decode - t_get));
        decode += t_done - t_decode;
        inserted.emplace_back(t, key);
      }
      const auto t_execute = now_ns();
      (void)workload.execute(rec.request, input);
      const auto t_done = now_ns();
      ++cost.sampled[c];
      cost.decode_ns[c] += static_cast<double>(decode);
      cost.execute_ns[c] += static_cast<double>(t_done - t_execute);
    }
    for (const auto& [t, key] : inserted) {
      const auto t_evict = now_ns();
      const bool evicted = stores[t]->engine().evict(key);
      const auto t_done = now_ns();
      if (evicted) cost.evict_ns.push_back(clamp_ns(t_done - t_evict));
    }
    return cost;
  }

 private:
  /// Tenant `t`'s resolved shard configuration (namespace applied).
  [[nodiscard]] const fl::core::FLStoreConfig& tenant_config(
      std::size_t t) const {
    return plane_
        ->shard(plane_->tenant_primary_shard(static_cast<fl::JobId>(t)))
        .config();
  }

  SimSpec spec_;
  std::vector<std::unique_ptr<fl::fed::FLJob>> jobs_;
  std::vector<fl::serve::TenantMix> mix_;
  fl::backend::ObjectStoreBackend cold_;
  std::unique_ptr<TimedBackend> timed_;
  std::unique_ptr<fl::obs::Telemetry> telemetry_;
  std::unique_ptr<fl::serve::ShardedStore> plane_;
};

// =========================================================================
// Hot-path workloads (real threads, wall clock, closed loop)
// =========================================================================

/// One hot-path workload. `scale` multiplies the per-thread stream length.
struct HotSpec {
  int keys = 2048;
  int shards = 4;
  double zipf_exponent = 0.9;
  double put_share = 0.04;
  double evict_share = 0.01;
  fl::units::Bytes object_bytes = 256 * 1024;
  /// Per-shard cache capacity; 0 = unbounded.
  fl::units::Bytes shard_capacity = 0;
  /// Short streams, many repetitions: four threads on a contended lock
  /// swing between lock convoys and free running from one repetition to
  /// the next, and a median over many short repetitions is steadier than
  /// one over a few long ones.
  int ops_per_thread = 250'000;
  int threads = 1;
};

inline HotSpec hot_read_spec(double scale) {
  HotSpec s;
  s.ops_per_thread = std::max(1000, static_cast<int>(250'000 * scale));
  s.threads = hardware_threads();
  return s;
}

inline HotSpec hot_write_spec(double scale) {
  auto s = hot_read_spec(scale);
  s.put_share = 0.25;
  s.evict_share = 0.05;
  // Half the keyspace fits across the four shards, so puts evict and gets
  // miss.
  s.shard_capacity =
      static_cast<fl::units::Bytes>(s.keys / 2 / s.shards) * s.object_bytes;
  return s;
}

enum class OpKind : std::uint8_t { kGet, kPut, kEvict };

struct Op {
  fl::MetadataKey key;
  OpKind kind = OpKind::kGet;
};

inline fl::MetadataKey nth_key(std::int32_t rank) {
  // Spread ranks over (client, round) so hashes are well distributed.
  return fl::MetadataKey::update(rank % 64, rank / 64);
}

/// One pre-built op stream per thread, drawn in parallel. Thread w's
/// stream depends only on (spec, seed, w).
inline std::vector<std::vector<Op>> build_streams(const HotSpec& spec,
                                                  std::uint64_t seed) {
  const fl::ZipfDistribution zipf(spec.keys, spec.zipf_exponent);
  std::vector<std::vector<Op>> streams(static_cast<std::size_t>(spec.threads));
  run_threads(spec.threads, [&](int w) {
    fl::Rng rng(seed ^ (static_cast<std::uint64_t>(w + 1) *
                        0x9E3779B97F4A7C15ULL));
    auto& stream = streams[static_cast<std::size_t>(w)];
    stream.reserve(static_cast<std::size_t>(spec.ops_per_thread));
    for (int i = 0; i < spec.ops_per_thread; ++i) {
      const auto key = nth_key(zipf(rng));
      const double r = rng.uniform();
      const auto kind = r < spec.put_share ? OpKind::kPut
                        : r < spec.put_share + spec.evict_share
                            ? OpKind::kEvict
                            : OpKind::kGet;
      stream.push_back({key, kind});
    }
  });
  return streams;
}

inline std::uint64_t digest_streams(
    const std::vector<std::vector<Op>>& streams) {
  Fnv fnv;
  for (const auto& stream : streams) {
    for (const auto& op : stream) {
      fnv.mix(static_cast<std::uint64_t>(op.key.kind) |
              (static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(op.key.client))
               << 8) |
              (static_cast<std::uint64_t>(op.kind) << 40));
      fnv.mix(static_cast<std::uint64_t>(op.key.round));
    }
  }
  return fnv.h;
}

/// A ShardedStore with one tenant, prefilled with every key, driven
/// through the default HotPathConfig. Constructing one is part of the
/// workload's set-up.
class HotPlane {
 public:
  explicit HotPlane(const HotSpec& spec)
      : spec_(spec),
        job_(job_config()),
        cold_(fl::sim::objstore_link(), fl::PricingCatalog::aws()),
        plane_(cold_, plane_config()) {
    fl::core::FLStoreConfig cfg;
    cfg.cache_capacity = spec_.shard_capacity;
    (void)plane_.add_tenant(job_, cfg, spec_.shards);
    for (int k = 0; k < spec_.keys; ++k) {
      (void)plane_.hot_put(0, nth_key(k), spec_.object_bytes, 0.0, 0);
    }
  }
  HotPlane(const HotPlane&) = delete;
  HotPlane& operator=(const HotPlane&) = delete;

  /// One hot call; false only when a put was refused.
  bool apply(const Op& op, int worker) {
    switch (op.kind) {
      case OpKind::kGet:
        (void)plane_.hot_get(0, op.key, 0.0, worker);
        return true;
      case OpKind::kPut:
        return plane_.hot_put(0, op.key, spec_.object_bytes, 0.0, worker);
      case OpKind::kEvict:
        (void)plane_.hot_evict(0, op.key, worker);
        return true;
    }
    return true;
  }

  void sync() { plane_.hot_sync(); }
  [[nodiscard]] EngineTotals totals() const { return engine_totals(plane_); }

  /// Shard keep-alive plus cold-tier idle cost for `seconds` of serving.
  [[nodiscard]] double usd(double seconds) const {
    return plane_.infrastructure_cost(seconds) + cold_.idle_cost(seconds);
  }

  [[nodiscard]] IngestCost time_tenant_ingest(int rounds) const {
    return time_ingest(job_, plane_.shard(0).config(), rounds,
                       fl::sim::kRoundIntervalS);
  }

 private:
  static fl::fed::FLJobConfig job_config() {
    fl::fed::FLJobConfig cfg;
    cfg.model = "resnet18";
    cfg.pool_size = 60;
    cfg.clients_per_round = 8;
    cfg.rounds = 4;
    cfg.seed = 20;
    return cfg;
  }
  static fl::serve::ShardedStoreConfig plane_config() {
    fl::serve::ShardedStoreConfig cfg;
    cfg.worker_threads = 0;  // the benchmark's own threads make the calls
    return cfg;
  }

  HotSpec spec_;
  fl::fed::FLJob job_;
  fl::backend::ObjectStoreBackend cold_;
  fl::serve::ShardedStore plane_;
};

}  // namespace flbench
