// ShardedStore — the concurrent serving plane in front of core::FLStore.
//
// Owns N FLStore cache shards grouped by tenant over one shared persistent
// store, a worker-thread pool, per-shard request schedulers, and a
// single-flight Coalescer on the cold miss path. It turns the per-request
// simulator into a throughput-oriented system: offered load, queueing,
// admission control, tail latency.
//
// Concurrency model (and why results are deterministic):
//  * Each tenant's shards + scheduler form one discrete-event task driven
//    purely by simulated time (arrivals, ingests, completions). Tasks run
//    in parallel on the pool — tenants share nothing mutable except the
//    internally-synchronized cold backend. Each tenant gets its own
//    Coalescer (cold-store keys are tenant-namespaced, so there is nothing
//    to share, and a shared one would let tenant A's pruning clock evict
//    tenant B's still-in-flight windows).
//  * Within a tenant the task is sequential, so scheduler decisions and
//    coalescing windows depend only on virtual time. Per-request results
//    are bit-identical for any worker_threads value (regression-tested).
//  * FLStore itself stays single-threaded per shard; each shard is guarded
//    by its own mutex for the direct serve()/ingest_round() entry points.
//  * The real-thread hot path (hot_get/hot_put/hot_evict) is the one place
//    OS threads share a shard. Puts, evicts of resident keys and stripe
//    drains take the shard mutex (a Mutex spins briefly before it sleeps,
//    see common/mutex.hpp). Gets and evicts of absent keys take no shard
//    lock: they probe the engine's residency table with acquire loads (no
//    fences; see core/residency_table.hpp). Gets defer their bookkeeping
//    to per-worker stripes. A full stripe drains in place, under its own
//    stripe lock, only when try_lock() on the shard mutex succeeds; the
//    reader blocks on the shard mutex only once the stripe's backlog hits
//    a fixed cap.
//  * Lock order: stripe, then shard. hot_get is the only path that holds
//    both. hot_sync and scale-in swap a stripe out under its lock, release
//    it, and only then take the shard lock; nothing takes a stripe lock
//    while holding a shard lock.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "backend/flush_scheduler.hpp"
#include "backend/storage_backend.hpp"
#include "common/mutex.hpp"
#include "core/flstore.hpp"
#include "obs/hot_counters.hpp"
#include "obs/telemetry.hpp"
#include "serve/coalescer.hpp"
#include "serve/load_generator.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_metrics.hpp"
#include "serve/thread_pool.hpp"

namespace flstore::serve {

/// How a tenant's traffic spreads over its cache shards.
enum class Routing : std::uint8_t {
  kClassAffinity,  ///< by P1–P4 class: preserves each policy's access
                   ///< pattern (prefetch chains stay on one shard)
  kHash,           ///< by request id: stateless load balancing; shards see
                   ///< overlapping working sets (the coalescer's case)
};

[[nodiscard]] constexpr const char* to_string(Routing r) noexcept {
  switch (r) {
    case Routing::kClassAffinity: return "class-affinity";
    case Routing::kHash: return "hash";
  }
  return "?";
}

struct ShardedStoreConfig {
  int worker_threads = 4;  ///< 0 = run tenant tasks inline
  Routing routing = Routing::kClassAffinity;
  /// Route cold miss fetches through the shared single-flight Coalescer.
  bool coalesce_cold_fetches = true;
  /// Per-shard scheduler (queued runs only; replay() bypasses queueing).
  SchedulerConfig scheduler;
  /// Plane-wide write-back flush policy: when set, it overrides every
  /// tenant's FLStoreConfig::cold_flush, so each primary shard's
  /// FlushScheduler drains the shared cold tier on that tenant's own
  /// ingest cadence. Drains go through the durable tier's batched put (one
  /// Throttle admission per slice) and FlushPolicy::max_drain_objects caps
  /// the slice, so scheduled flush traffic respects the backend's token
  /// bucket instead of starving concurrent reads.
  std::optional<backend::FlushPolicy> cold_flush;
  /// Unified telemetry plane (non-owning; nullptr = observability off, the
  /// default — zero overhead). When set, every tenant timeline emits the
  /// request span chain (request → sched.queue → flstore.serve →
  /// cache/cold/backend spans), per-class latency/queue histograms and
  /// request counters, feeds the SLO burn-rate monitor per record, and each
  /// run publishes the burn-rate and dirty-window gauges at its horizon.
  /// Pure bookkeeping: per-request results are bit-identical either way
  /// (regression-tested).
  obs::Telemetry* telemetry = nullptr;
  /// Optional padded-relaxed-atomic op counters for the real-thread hot
  /// path (obs/hot_counters.hpp) — the only telemetry allowed on its data
  /// path. Non-owning; nullptr = off.
  obs::HotCounters* hot_counters = nullptr;
};

class ShardedStore {
 public:
  /// `cold` is the shared persistent tier — any storage backend (object
  /// store, cloud cache, local SSD, tiered); must outlive the plane. With
  /// a shared *write-back* TieredColdStore, any tenant's ingest-end flush
  /// drains every tenant's pending objects and books the drain fees (the
  /// shared-daemon approximation; see FLStore::ingest_round) — prefer
  /// write-through for shared stacks when per-tenant fees matter.
  explicit ShardedStore(backend::StorageBackend& cold,
                        ShardedStoreConfig config = {});

  /// Register a tenant backed by `cache_shards` FLStore instances. The
  /// tenant's cold objects live under "t<id>/" unless the config names a
  /// namespace; only the first shard backs ingested rounds up to the cold
  /// store (the others would duplicate the puts and the fees).
  JobId add_tenant(const fed::FLJob& job,
                   core::FLStoreConfig store_config = {},
                   int cache_shards = 1);

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }
  /// Unlocked peek at a shard's FLStore for tests and reports. Only valid
  /// while no run is in flight (the plane is quiescent between run_all
  /// calls), which the analysis cannot see — hence the annotation opt-out.
  [[nodiscard]] const core::FLStore& shard(int index) const
      NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[static_cast<std::size_t>(index)]->store;
  }
  /// Global shard index `req` routes to under the configured policy.
  [[nodiscard]] int shard_for(const ServiceRequest& req) const;
  /// Global index of `tenant`'s primary shard (the one that backs up to
  /// cold and owns the FlushScheduler the control plane reads).
  [[nodiscard]] int tenant_primary_shard(JobId tenant) const {
    return this->tenant(tenant).shards.front();
  }
  /// The shared cold tier behind every shard.
  [[nodiscard]] const backend::StorageBackend& cold() const noexcept {
    return *cold_;
  }

  /// Ingest a finished round into every shard of `tenant`.
  void ingest_round(JobId tenant, const fed::RoundRecord& record, double now);

  /// One-off direct serve (locks the routed shard).
  core::ServeResult serve(const ServiceRequest& req, double now);

  /// Open-loop replay without queueing: every request is served at its
  /// arrival time on its routed shard (the paper's per-request semantics,
  /// sharded). Deterministic for any pool size.
  ServiceReport replay(const std::vector<ServiceRequest>& trace,
                       double round_interval_s);

  /// Queued open-loop serving — the throughput/tail-latency mode: each
  /// shard is a single server fed by its RequestScheduler, and arrivals
  /// beyond capacity queue (or are shed by admission control). Arrivals
  /// come from an ArrivalStream, so trace memory is O(1) regardless of
  /// duration, rate, or population size (1M+-client, multi-hour
  /// scenarios). Each tenant timeline replays its own replica of the
  /// (deterministic) stream and keeps only its own arrivals — at most one
  /// pending arrival event per tenant at any instant — which partitions the
  /// shared sequence exactly as an up-front split of the materialized trace
  /// would: the report is bit-identical to serve_open_loop_window over
  /// open_loop_trace(config, mix) as one window (regression-tested).
  ServiceReport serve_open_loop_stream(const StreamConfig& config,
                                       const std::vector<TenantMix>& mix);

  /// Queued open-loop serving of a materialized `trace` as one window of
  /// one continuous timeline: serves the arrivals (each must fall in
  /// [window_start_s, window_end_s), else InvalidArgument) and ingests only
  /// the training rounds landing inside the window, so consecutive windows
  /// compose over the same warm shards — the control loop runs the plane
  /// window by window and actuates between windows. Scheduler queues and
  /// shard busy time do not carry across the boundary (the tick-boundary
  /// approximation; ticks sit on round boundaries where queues drain).
  ServiceReport serve_open_loop_window(const std::vector<ServiceRequest>& trace,
                                       double round_interval_s,
                                       double window_start_s,
                                       double window_end_s);

  // --- Control-plane actuators -------------------------------------------
  // Called by control::Controller between run windows, when the plane is
  // quiescent (no run in flight). Each takes effect on the next window.

  /// Replace the per-shard scheduler configuration used by subsequent
  /// queued runs (admission limits). The controller's admission-tightening
  /// knob.
  void set_scheduler_config(const SchedulerConfig& config) {
    config_.scheduler = config;
  }
  [[nodiscard]] const SchedulerConfig& scheduler_config() const noexcept {
    return config_.scheduler;
  }

  /// Swap the write-back flush policy on every tenant's primary
  /// FlushScheduler at simulated time `now` (two-phase: deadlines the old
  /// policy already owed fire retroactively first — see
  /// FlushScheduler::set_policy), and make it the plane-wide default for
  /// future tenants. Returns the aggregate drain the swap triggered.
  backend::StorageBackend::FlushResult set_flush_policy(
      double now, const backend::FlushPolicy& policy);

  /// Retune the shared cold tier's token bucket at `now` (carry-over
  /// semantics in Throttle::set_config). Returns false when the backend
  /// exposes no throttle.
  bool set_cold_throttle(const backend::Throttle::Config& config, double now) {
    return cold_->set_throttle(config, now);
  }

  /// Apply explicit per-class cache budgets to every live shard of
  /// `tenant` — the controller's bandit-suggested split, or a
  /// PolicyEngine::rebalance_class_budgets over tenant_class_stats.
  void set_tenant_class_budgets(
      JobId tenant,
      const std::array<units::Bytes, fed::kPolicyClassCount>& budgets);

  /// Cache shards currently serving `tenant`.
  [[nodiscard]] int tenant_shard_count(JobId tenant) const {
    return static_cast<int>(this->tenant(tenant).shards.size());
  }
  /// Shards across all tenants that are live (not retired by scale-in).
  [[nodiscard]] int active_shard_count() const noexcept;

  /// Live scale-out/in of `tenant`'s serving fleet to `target` shards
  /// (>= 1; the primary shard never retires). Scale-out reactivates the
  /// tenant's retired slots first, then appends fresh shards; either way
  /// newcomers are warmed by copying the primary's resident set
  /// (ingest_round replicates rounds to every shard, so the primary holds
  /// the tenant's canonical warm set; copies are opportunistic — they fill
  /// the newcomer without evicting). Scale-in re-homes each victim's
  /// residents onto the survivors by key hash before retiring the slot.
  /// Global indices of other shards never shift, and retired slots stop
  /// billing keep-alive (infrastructure_cost skips them) — the idle-cost
  /// win the controller's scale-in chases. Returns the resulting count.
  int set_tenant_shards(JobId tenant, int target, double now);

  // --- Real-thread hot path ----------------------------------------------
  // Wall-clock concurrent entry points over the shards' CacheEngines, as
  // distinct from the sim-time timelines above: many OS threads call these
  // simultaneously and throughput is bounded by real lock contention, not
  // simulated service times. Keys route to one of the tenant's shards by
  // MetadataKeyHash. `worker` is the calling thread's index — it selects
  // the deferred-access stripe (and the HotCounters stripe), so concurrent
  // callers should pass distinct values. `now` is still simulated time; the
  // hot path never reads the wall clock.

  /// Demand read on the routed shard: a lock-free probe of the engine's
  /// residency table plus a stripe append; bookkeeping reaches the engine
  /// in batches (hit/miss totals exact, recency batch-granular — see
  /// CacheEngine::apply_deferred), drained when the shard mutex is free.
  /// `now` is unused: membership carries no timing. Returns whether the
  /// key was served from cache.
  bool hot_get(JobId tenant, const MetadataKey& key, double now, int worker);

  /// Demand insert of `bytes` logical bytes on the routed shard, under the
  /// shard mutex; the blob is allocated before the lock is taken. Returns
  /// false when the engine rejected the placement.
  bool hot_put(JobId tenant, const MetadataKey& key, units::Bytes bytes,
               double now, int worker);

  /// Drop a key on the routed shard. Returns true when it was resident. A
  /// key the residency table does not hold returns false with no lock.
  bool hot_evict(JobId tenant, const MetadataKey& key, int worker);

  /// Drain every stripe's pending deferred accesses into its shard's
  /// engine. Call at a quiescent point (workers joined) before reading
  /// engine statistics; hit/miss totals are exact afterwards.
  void hot_sync();

  /// Global shard index `key` routes to on the hot path.
  [[nodiscard]] int hot_shard_for(JobId tenant, const MetadataKey& key) const;

  /// Aggregate per-class cache statistics across every shard of `tenant`
  /// (hits/misses/resident bytes per P1–P4 partition; the last array slot
  /// is the shared partition of classless entries).
  [[nodiscard]] std::array<core::CacheEngine::ClassStats,
                           core::CacheEngine::kPartitions>
  tenant_class_stats(JobId tenant) const;

  /// Aggregate crash-consistency ledger across every tenant's primary-shard
  /// FlushScheduler at simulated time `now`. All schedulers watch the one
  /// shared cold backend, so "current"/peak window fields take the max
  /// (they are redundant samples of the same global window) while drain
  /// and loss counters sum (each scheduler only books drains it fired).
  [[nodiscard]] backend::DirtyWindowStats dirty_window_stats(double now) const;

  /// Aggregate single-flight statistics across every tenant's coalescer.
  [[nodiscard]] Coalescer::Stats coalescer_stats() const;
  /// Combined keep-alive cost of every shard's warm functions.
  [[nodiscard]] double infrastructure_cost(double seconds) const;

 private:
  /// One deferred-access buffer of the hot read path. Each worker
  /// appends to its own stripe (round-robin by worker index), so the tiny
  /// stripe mutex is effectively uncontended, even while its owner drains
  /// the stripe in place under it; alignas keeps neighbouring stripes off
  /// one cache line.
  struct alignas(64) Stripe {
    Mutex mu;
    std::vector<core::CacheEngine::DeferredAccess> pending GUARDED_BY(mu);
  };
  struct Shard {
    JobId tenant = 0;
    /// The pointer is set once in make_shard (before the shard is shared)
    /// and never reseated; the FLStore behind it is what `mu` guards.
    /// Sim-time entry points, hot-path writes and stripe drains hold `mu`.
    std::unique_ptr<core::FLStore> store PT_GUARDED_BY(mu);
    Mutex mu;
    /// The store's engine's residency table, set in make_shard before the
    /// shard is shared: the hot read path probes it with no lock (its
    /// writers are the engine mutations under `mu`).
    const core::ResidencyTable* residency = nullptr;
    /// Deferred-access stripes (set up in make_shard, structurally
    /// immutable afterwards; each stripe's contents are guarded by its own
    /// mutex).
    std::vector<std::unique_ptr<Stripe>> stripes;
    /// False once scale-in retired the slot: it serves no traffic, holds no
    /// residents, and bills no keep-alive, but keeps its global index so
    /// other shards' indices never shift. Flipped only between runs.
    bool active = true;
  };
  struct Tenant {
    JobId id = 0;
    const fed::FLJob* job = nullptr;
    std::vector<int> shards;  ///< global indices of live shards
    /// Resolved config from add_tenant (namespace + plane flush applied) —
    /// the template scale-out builds fresh shards from.
    core::FLStoreConfig store_config;
    std::vector<int> retired;  ///< this tenant's retired global slots
  };

  enum class Mode { kReplay, kQueued };

  /// Streaming-mode source: each tenant timeline builds its own
  /// ArrivalStream replica from this (streams are deterministic, so the
  /// replicas replay one shared sequence) and filters it to its arrivals.
  struct StreamSpec {
    const StreamConfig* config = nullptr;
    const std::vector<TenantMix>* mix = nullptr;
  };

  [[nodiscard]] const Tenant& tenant(JobId id) const;

  /// Run one tenant's discrete-event timeline (see .cpp). `arrivals` must
  /// be sorted by arrival time; streaming runs pass `stream` instead
  /// (arrivals then pull from the stream one at a time). Rounds
  /// [first_round, floor(horizon/interval)] ingest (windowed runs pass the
  /// first round not yet ingested); per-class scheduler stats accumulate
  /// into `sched_out` (queued mode only).
  void run_tenant(const Tenant& tenant, Mode mode,
                  const std::vector<ServiceRequest>& arrivals,
                  double horizon_s, double round_interval_s,
                  RoundId first_round, const StreamSpec* stream,
                  std::vector<ServiceRecord>& out,
                  decltype(ServiceReport::scheduler)& sched_out);

  ServiceReport run_all_tenants(Mode mode,
                                const std::vector<ServiceRequest>& trace,
                                double horizon_s, double round_interval_s,
                                RoundId first_round,
                                const StreamSpec* stream);

  /// Build one shard for `tenant` from its stored config (scale-out and
  /// add_tenant share this; `primary` enables cold backup on shard 0 only).
  std::unique_ptr<Shard> make_shard(const Tenant& tenant, bool primary);

  /// Book metrics/SLO telemetry for a finished run (single-threaded, off
  /// the parallel data path — see run_all_tenants).
  void book_telemetry(const ServiceReport& report);

  /// Apply `pending` deferred accesses to `shard`'s engine and clear the
  /// vector for reuse (a stripe's own buffer, or one swapped out of it).
  void drain_stripe(Shard& shard,
                    std::vector<core::CacheEngine::DeferredAccess>& pending,
                    int worker) REQUIRES(shard.mu);

  /// Drain every stripe of `shard` into its engine, one stripe at a time:
  /// swap under the stripe lock, apply under the shard lock.
  void drain_stripes(Shard& shard) EXCLUDES(shard.mu);

  ShardedStoreConfig config_;
  backend::StorageBackend* cold_;
  /// One per tenant, indexed by JobId (stable addresses: shards hold raw
  /// interceptor pointers).
  std::vector<std::unique_ptr<Coalescer>> coalescers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Tenant> tenants_;
};

}  // namespace flstore::serve
