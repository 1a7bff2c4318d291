// Scenario: one §5.1 evaluation setup — a training job, FLStore and both
// baselines, and the request trace.
//
// Benches construct a Scenario per model and hand its systems — each a
// core::ServingSystem — to sim::run_trace. Every system is its own
// deployment with its own object-store bucket, as in the paper's
// comparisons: nothing one system ingests is visible to another.
// FLStore's cold tier is a pluggable backend::StorageBackend;
// make_cold_backend() hands benches fresh, empty instances, and
// make_flstore_over() builds the policy ablations and the head-to-head
// backend sweeps over them through the one core::FLStore code path.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "backend/flush_scheduler.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/storage_backend.hpp"
#include "baselines/aggregator_baseline.hpp"
#include "core/flstore.hpp"
#include "fed/fl_job.hpp"
#include "fed/trace.hpp"
#include "obs/telemetry.hpp"
#include "serve/load_generator.hpp"
#include "sim/calibration.hpp"

namespace flstore::sim {

struct ScenarioConfig {
  std::string model = "efficientnet_v2_s";
  std::int32_t pool_size = 250;
  std::int32_t clients_per_round = 10;
  RoundId rounds = 1000;
  double duration_s = kTraceDurationS;
  std::size_t total_requests = kTraceRequests;
  double round_interval_s = kRoundIntervalS;
  std::vector<fed::WorkloadType> workloads;  ///< empty = the paper's ten
  std::uint64_t seed = 42;
  int replicas = 1;
  /// Write-back flush policy for the cold tier, applied to every FLStore
  /// the scenario builds (the main instance, variants, and backend-sweep
  /// instances). The default keeps the legacy flush-at-every-round cadence;
  /// a no-op unless the cold backend is a write-back composition.
  backend::FlushPolicy cold_flush;
  /// Unified telemetry plane (non-owning; nullptr = observability off, the
  /// default). When set, every cold backend the scenario builds is wrapped
  /// in an owning obs::InstrumentedBackend (op counters, latency
  /// histograms, throttle-wait attribution) and every FLStore it builds
  /// gets the bundle via set_telemetry. Latencies, fees, and contents are
  /// bit-identical either way — the decorator is pure bookkeeping.
  obs::Telemetry* telemetry = nullptr;
};

/// Named adversarial traffic shapes for the streaming scenario engine —
/// the load patterns a production FL cache sees that the paper's fixed
/// §5.2 trace cannot express (FL IoT/edge survey, arXiv:2402.13029).
enum class TrafficShape : std::uint8_t {
  kDiurnal,               ///< 24 h sinusoidal rate over a mobile population
  kFlashCrowd,            ///< step surge on a model release
  kHeterogeneousEdge,     ///< 1M+ edge devices, duty-cycled availability
  kMultiTenantContention, ///< skewed tenant mix over one cache plane
};

[[nodiscard]] constexpr const char* to_string(TrafficShape s) noexcept {
  switch (s) {
    case TrafficShape::kDiurnal: return "diurnal";
    case TrafficShape::kFlashCrowd: return "flash_crowd";
    case TrafficShape::kHeterogeneousEdge: return "heterogeneous_edge";
    case TrafficShape::kMultiTenantContention:
      return "multi_tenant_contention";
  }
  return "?";
}

[[nodiscard]] std::vector<TrafficShape> all_traffic_shapes();

/// One tenant of a shaped scenario: the training job behind its traffic
/// plus its slice of the offered load (benches build the fed::FLJob from
/// `job` and bind it into a serve::TenantMix with `weight`).
struct ShapedTenant {
  fed::FLJobConfig job;
  double weight = 1.0;
  std::size_t tracked_clients = 5;
};

/// A fully parameterized streamed scenario: everything a bench needs to
/// build the serving plane and drive ShardedStore::serve_open_loop_stream.
struct ShapedScenario {
  TrafficShape shape = TrafficShape::kDiurnal;
  std::string name;
  serve::StreamConfig stream;         ///< rate profile + population + seed
  std::vector<ShapedTenant> tenants;  ///< at least one
  int shards_per_tenant = 1;
  /// Per-class latency objectives scoring SLO attainment (P1..P4) — the
  /// lenient serving-plane calibration bench_flash_crowd established (a
  /// cold fetch counts as good; minutes of crowd queueing does not),
  /// restated here so the bench verdicts don't drift if that bench moves.
  std::array<double, fed::kPolicyClassCount> slo_latency_s{30.0, 120.0, 60.0,
                                                           30.0};
};

/// Construct a named traffic-shape preset (the SNIPPETS parameterized-
/// workload-constructor idiom: one function, one shape, every knob derived
/// from `scale`). `scale` multiplies the offered rate, so CI can run the
/// same multi-hour scenarios cheaply; durations, populations, and windows
/// are fixed per shape — heterogeneous_edge always synthesizes a
/// 1.5M-client population over 12 simulated hours.
[[nodiscard]] ShapedScenario traffic_shape_preset(TrafficShape shape,
                                                  double scale = 1.0);

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  [[nodiscard]] const ScenarioConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] fed::FLJob& job() noexcept { return *job_; }
  [[nodiscard]] backend::StorageBackend& cold_backend() noexcept {
    return *backend_;
  }
  [[nodiscard]] core::FLStore& flstore() noexcept { return *flstore_; }
  [[nodiscard]] baselines::ObjStoreAggregator& objstore_agg() noexcept {
    return *objstore_agg_;
  }
  [[nodiscard]] baselines::CacheAggregator& cache_agg() noexcept {
    return *cache_agg_;
  }

  /// The §5.2 mixed trace for this scenario (deterministic).
  [[nodiscard]] std::vector<fed::NonTrainingRequest> trace() const;

  /// A fresh, empty cold backend of `kind` for this scenario. The caller
  /// owns it and any FLStore built over it must not outlive it.
  [[nodiscard]] std::unique_ptr<backend::StorageBackend> make_cold_backend(
      backend::BackendKind kind) const;

  /// An FLStore variant over an explicit cold backend (the policy
  /// ablations and the benches' backend sweeps; `cache_capacity` = 1
  /// effectively disables the serverless cache so every request runs
  /// against the backend).
  [[nodiscard]] std::unique_ptr<core::FLStore> make_flstore_over(
      backend::StorageBackend& cold, core::PolicyMode mode,
      units::Bytes cache_capacity = 0) const;

 private:
  ScenarioConfig config_;
  std::unique_ptr<fed::FLJob> job_;
  std::unique_ptr<backend::StorageBackend> backend_;
  /// Each baseline's own bucket. Not instrumented — baseline operations
  /// never book into telemetry.
  backend::ObjectStoreBackend objstore_agg_bucket_{objstore_link(),
                                                   PricingCatalog::aws()};
  backend::ObjectStoreBackend cache_agg_bucket_{objstore_link(),
                                                PricingCatalog::aws()};
  std::unique_ptr<core::FLStore> flstore_;
  std::unique_ptr<baselines::ObjStoreAggregator> objstore_agg_;
  std::unique_ptr<baselines::CacheAggregator> cache_agg_;
};

}  // namespace flstore::sim
