// FLStore facade — the public API of the paper's system.
//
// Wires the Request Tracker, Cache Engine and Serverless Cache pool over a
// persistent cold tier (Fig 5). The cold tier is any backend::StorageBackend
// — cloud object store, provisioned cloud cache, local SSD, or a tiered
// stack of them — so the paper's FLStore-vs-ObjStore-vs-CloudCache sweeps
// run through this one code path. Training rounds stream in through
// ingest_round (client updates + a batched backup to the cold tier through
// StorageBackend::put_batch); non-training requests are served with
// locality-aware execution on the functions that cache the data, with
// policy-driven prefetch/evict around each request.
//
// Quickstart:
//   fed::FLJob job(cfg);
//   backend::ObjectStoreBackend cold(link, PricingCatalog::aws());
//   core::FLStore store(core::FLStoreConfig{}, job, cold);
//   store.ingest_round(job.make_round(0), /*now=*/0.0);
//   auto res = store.serve(request, /*now=*/1.0);
//   // res.latency_s, res.cost_usd, res.output.summary
#pragma once

#include <array>
#include <memory>
#include <string>
#include <unordered_map>

#include "backend/flush_scheduler.hpp"
#include "backend/storage_backend.hpp"
#include "cloud/cost_meter.hpp"
#include "core/cache_engine.hpp"
#include "core/cold_fetch.hpp"
#include "core/policy.hpp"
#include "core/request_tracker.hpp"
#include "core/serverless_cache.hpp"
#include "core/serving_system.hpp"
#include "fed/fl_job.hpp"
#include "obs/telemetry.hpp"

namespace flstore::core {

/// Request routing + tracker/engine lookups. §5.5 measures this path as
/// sub-millisecond, so it must stay below 1 ms (regression-tested in
/// tests/core/flstore_test.cpp).
inline constexpr double kRoutingOverheadS = 0.0005;

struct FLStoreConfig {
  PolicyConfig policy;
  ServerlessCachePool::Config pool;
  /// Cache capacity cap in bytes; 0 = grow on demand. FLStore-limited runs
  /// with this set to half the tailored working set.
  units::Bytes cache_capacity = 0;
  /// Optional per-class cache budgets (bytes, indexed by fed::class_index).
  /// All-zero = one shared pool (the paper's default). With budgets set,
  /// each P1–P4 class evicts within its own partition, so one class's burst
  /// cannot wash out another's working set; the serving plane uses this for
  /// tailored-vs-LRU sweeps with bounded per-class memory.
  std::array<units::Bytes, fed::kPolicyClassCount> class_capacity{};
  /// How long a P3 client track stays active after its last request.
  /// While active, ingest pins the tracked client's new data (Fig 6,
  /// step ② — the Cache Engine consults incoming-request info).
  double track_ttl_s = 2.0 * 3600.0;
  /// Prefix applied to every cold-store object name. The serving plane sets
  /// one per tenant ("t0/", "t1/", ...) so tenants sharing a persistent
  /// store cannot collide on (round, kind, client) names.
  std::string cold_namespace;
  /// Stream ingested rounds to the cold store (the paper's async backup).
  /// Secondary cache shards of one tenant disable this: the primary shard
  /// backs the round up once, and duplicate puts would double the fees.
  bool backup_to_cold = true;
  /// Flush policy for the cold tier's write-back dirty window. The default
  /// (flush at every round boundary, no thresholds) keeps the legacy
  /// explicit-flush cadence — same contents, counts, and fees, with the
  /// drain order now oldest-first; scheduled deployments turn the
  /// round-boundary drain off and set age/byte thresholds instead — the
  /// FlushScheduler then drains from the ingest cadence (every backup
  /// put_batch and every round boundary are observation points) and keeps the
  /// crash-consistency ledger. Irrelevant for synchronously durable
  /// backends (they are never dirty).
  backend::FlushPolicy cold_flush;
};

class FLStore final : public ServingSystem {
 public:
  /// `job` is the training job (round directory + model); `cold` is the
  /// persistent data plane — any backend (object store, cloud cache, local
  /// SSD, tiered). Both must outlive the facade.
  FLStore(FLStoreConfig config, const fed::FLJob& job,
          backend::StorageBackend& cold);

  /// Stream a finished training round in: backup of every object to the
  /// cold store (put_batch slices of 64, fees to infra_meter(); the cold
  /// tier's stats().rejected_puts counts objects a bounded tier refused)
  /// plus policy-driven write-allocation into the cache.
  void ingest_round(const fed::RoundRecord& record, double now) override;

  /// Serve one non-training request.
  ServeResult serve(const fed::NonTrainingRequest& req, double now) override;

  /// Reclaim the rank-th function instance (Zipf fault injection).
  /// Returns true if a whole replica group died with it.
  bool inject_fault(std::int32_t function_rank) override;

  /// Keep-alive fees of the warm functions for an interval of `seconds`.
  [[nodiscard]] double infrastructure_cost(double seconds) const override;

  /// The policy mode's name ("FLStore" for the tailored policies).
  [[nodiscard]] std::string name() const override {
    return to_string(config_.policy.mode);
  }

  /// Re-budget the engine's class partitions (policy-layer rebalancing from
  /// observed hit rates; see PolicyEngine::rebalance_class_budgets).
  /// Partitions over their new budget evict down immediately.
  void set_class_capacity(
      const std::array<units::Bytes, fed::kPolicyClassCount>& budgets);

  /// Route cold-store miss fetches through `interceptor` (non-owning;
  /// nullptr restores the direct path). The serving plane injects its
  /// single-flight Coalescer here.
  void set_cold_fetch_interceptor(ColdFetchInterceptor* interceptor) noexcept {
    cold_interceptor_ = interceptor;
  }

  /// Attach the unified telemetry plane (non-owning; nullptr turns
  /// observability off). serve() then emits its span chain — flstore.serve,
  /// cache.hit/cache.miss/replica.failover instants, cold.fetch, and
  /// workload.exec, plus detached result.writeback / prefetch.fetch spans
  /// for work that outlives the request — and books per-class cache
  /// hit/miss counters. Counter handles are resolved here, once, so the
  /// serve hot path pays only pointer tests and atomic adds.
  void set_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] const CacheEngine& engine() const noexcept { return *engine_; }
  /// Mutable engine access for the serving plane's real-thread hot path
  /// (ShardedStore::hot_get and friends, which guard it with the shard
  /// lock). The sim-time serve()/ingest paths never need it.
  [[nodiscard]] CacheEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const RequestTracker& tracker() const noexcept {
    return tracker_;
  }
  [[nodiscard]] const ServerlessCachePool& pool() const noexcept {
    return *pool_;
  }
  [[nodiscard]] const FunctionRuntime& runtime() const noexcept {
    return runtime_;
  }
  [[nodiscard]] const CostMeter& infra_meter() const noexcept {
    return infra_meter_;
  }
  [[nodiscard]] backend::StorageBackend& cold_backend() noexcept {
    return *cold_;
  }
  /// The cold tier's ingest-driven drainer + crash-consistency ledger
  /// (non-const: tests and fault scenarios inject crash()es through it).
  [[nodiscard]] backend::FlushScheduler& flush_scheduler() noexcept {
    return flush_sched_;
  }
  [[nodiscard]] const backend::FlushScheduler& flush_scheduler()
      const noexcept {
    return flush_sched_;
  }
  [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }
  [[nodiscard]] std::uint64_t refetches() const noexcept { return refetches_; }
  [[nodiscard]] const FLStoreConfig& config() const noexcept { return config_; }

 private:
  /// serve() between the tracker's begin and finish.
  ServeResult serve_tracked(const fed::NonTrainingRequest& req, double now);
  /// Synchronous cold-store fetch (miss path) at simulated time `now`;
  /// charges fees to `meter` and throws NotFound when the object is
  /// missing. Goes through the interceptor when one is set.
  backend::GetResult fetch_cold(const MetadataKey& key, CostMeter& meter,
                                double now);
  /// Namespaced cold-store name for `key` (tenant prefix applied).
  [[nodiscard]] std::string cold_name(const MetadataKey& key) const {
    return config_.cold_namespace + key.object_name();
  }

  FLStoreConfig config_;
  const fed::FLJob* job_;
  obs::Telemetry* telemetry_ = nullptr;
  /// Per-class cache hit/miss counter handles (fed::class_index order),
  /// resolved by set_telemetry. Null when telemetry is off.
  std::array<obs::Counter*, fed::kPolicyClassCount> hit_counters_{};
  std::array<obs::Counter*, fed::kPolicyClassCount> miss_counters_{};
  backend::StorageBackend* cold_;
  ColdFetchInterceptor* cold_interceptor_ = nullptr;
  FunctionRuntime runtime_;
  std::unique_ptr<ServerlessCachePool> pool_;
  std::unique_ptr<CacheEngine> engine_;
  RequestTracker tracker_;
  CostMeter infra_meter_;  ///< fees not attributable to one request
  /// Ingest-driven write-back drainer over `cold_`.
  backend::FlushScheduler flush_sched_;
  /// Active P3 client tracks: client -> last request time. Ingest pins new
  /// rounds of tracked clients so across-round workloads keep hitting at
  /// the training frontier.
  std::unordered_map<ClientId, double> p3_tracks_;
  std::uint64_t repairs_ = 0;
  std::uint64_t refetches_ = 0;
};

/// Function runtime profile for a model's §5.1 sizing class.
[[nodiscard]] FunctionRuntime::Config function_runtime_config(
    const ModelSpec& model);

}  // namespace flstore::core
