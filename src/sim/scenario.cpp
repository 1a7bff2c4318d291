#include "sim/scenario.hpp"

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "common/error.hpp"
#include "obs/instrumented_backend.hpp"

namespace flstore::sim {

std::vector<TrafficShape> all_traffic_shapes() {
  return {TrafficShape::kDiurnal, TrafficShape::kFlashCrowd,
          TrafficShape::kHeterogeneousEdge,
          TrafficShape::kMultiTenantContention};
}

namespace {

constexpr double kHour = 3600.0;

fed::FLJobConfig shaped_job(const std::string& model, std::int32_t pool,
                            std::uint64_t seed) {
  fed::FLJobConfig cfg;
  cfg.model = model;
  cfg.pool_size = pool;
  cfg.clients_per_round = 10;
  cfg.rounds = 1000;
  cfg.seed = seed;
  return cfg;
}

serve::DeviceClass device(const char* name, double weight,
                          units::Bytes payload, double start_s = 0.0,
                          double end_s = 0.0) {
  serve::DeviceClass cls;
  cls.name = name;
  cls.weight = weight;
  cls.payload_bytes = payload;
  cls.active_start_s = start_s;
  cls.active_end_s = end_s;
  return cls;
}

}  // namespace

ShapedScenario traffic_shape_preset(TrafficShape shape, double scale) {
  FLSTORE_CHECK(scale > 0.0);
  ShapedScenario s;
  s.shape = shape;
  s.name = to_string(shape);
  s.stream.round_interval_s = 180.0;
  s.stream.seed = 0xF10A;

  switch (shape) {
    case TrafficShape::kDiurnal: {
      // A mobile population breathing over one simulated day: offered rate
      // swings 4x between the 3 a.m. trough and the early-afternoon peak.
      s.stream.duration_s = 24.0 * kHour;
      s.stream.rate.base_qps = 0.35 * scale;
      s.stream.rate.diurnal_amplitude = 0.6;
      s.stream.rate.diurnal_period_s = 24.0 * kHour;
      // Peak at phase + period/4 = 13:00, trough twelve hours earlier.
      s.stream.rate.diurnal_phase_s = 7.0 * kHour;
      s.stream.population.clients = 1'200'000;
      s.stream.population.zipf_exponent = 0.9;
      s.stream.population.device_classes = {
          device("smartphone", 0.70, 4 * 1024),
          device("tablet", 0.20, 8 * 1024),
          device("desktop", 0.10, 16 * 1024),
      };
      s.tenants.push_back(
          ShapedTenant{shaped_job("efficientnet_v2_s", 250, 20), 1.0, 5});
      s.shards_per_tenant = 4;
      break;
    }
    case TrafficShape::kFlashCrowd: {
      // A model release mid-run: the base rate steps 6x for half an hour
      // while the population's head (Zipf) re-reads the new checkpoint.
      // Provisioned for the peak (8 shards): the open-loop plane has no
      // elastic controller, so the static shard count must carry the surge.
      s.stream.duration_s = 4.0 * kHour;
      s.stream.rate.base_qps = 0.8 * scale;
      s.stream.rate.surges.push_back(
          serve::RateProfile::Surge{1.5 * kHour, 2.0 * kHour, 6.0});
      s.stream.population.clients = 1'000'000;
      s.stream.population.zipf_exponent = 1.05;
      s.stream.population.device_classes = {
          device("smartphone", 0.85, 4 * 1024),
          device("desktop", 0.15, 16 * 1024),
      };
      s.tenants.push_back(
          ShapedTenant{shaped_job("resnet18", 250, 21), 1.0, 5});
      s.shards_per_tenant = 8;
      break;
    }
    case TrafficShape::kHeterogeneousEdge: {
      // The acceptance scenario: 1.5M distinct IoT/edge clients over half a
      // simulated day, three device classes with distinct payloads and
      // availability windows (phones report in the evening/night charging
      // window, sensors on a morning duty cycle, gateways always on) plus a
      // mild diurnal swing — all streamed in O(1) memory.
      s.stream.duration_s = 12.0 * kHour;
      s.stream.rate.base_qps = 0.6 * scale;
      s.stream.rate.diurnal_amplitude = 0.3;
      s.stream.rate.diurnal_period_s = 24.0 * kHour;
      s.stream.population.clients = 1'500'000;
      s.stream.population.zipf_exponent = 1.1;
      s.stream.population.availability_period_s = 24.0 * kHour;
      s.stream.population.device_classes = {
          // Window wraps midnight: active 18:00 -> 06:00.
          device("phone", 0.55, 4 * 1024, 18.0 * kHour, 6.0 * kHour),
          device("gateway", 0.25, 32 * 1024),
          device("sensor", 0.20, 1024, 0.0, 4.0 * kHour),
      };
      s.tenants.push_back(
          ShapedTenant{shaped_job("mobilenet_v3_small", 400, 22), 1.0, 5});
      s.shards_per_tenant = 2;
      break;
    }
    case TrafficShape::kMultiTenantContention: {
      // Three jobs of very different size share one cache plane at a
      // heavily skewed 60/30/10 split — the arbitration stress case the
      // control plane's phase-2 item needs traces for.
      s.stream.duration_s = 3.0 * kHour;
      s.stream.rate.base_qps = 1.2 * scale;
      s.stream.population.clients = 1'000'000;
      s.stream.population.zipf_exponent = 0.9;
      s.stream.population.device_classes = {
          device("smartphone", 0.80, 4 * 1024),
          device("gateway", 0.20, 32 * 1024),
      };
      s.tenants.push_back(
          ShapedTenant{shaped_job("efficientnet_v2_s", 250, 23), 0.6, 5});
      s.tenants.push_back(
          ShapedTenant{shaped_job("resnet18", 150, 24), 0.3, 5});
      s.tenants.push_back(
          ShapedTenant{shaped_job("mobilenet_v3_small", 100, 25), 0.1, 3});
      s.shards_per_tenant = 4;
      break;
    }
  }
  return s;
}

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  fed::FLJobConfig job_cfg;
  job_cfg.model = config_.model;
  job_cfg.pool_size = config_.pool_size;
  job_cfg.clients_per_round = config_.clients_per_round;
  job_cfg.rounds = config_.rounds;
  job_cfg.seed = config_.seed;
  job_ = std::make_unique<fed::FLJob>(job_cfg);

  backend_ = make_cold_backend(backend::BackendKind::kObjectStore);

  core::FLStoreConfig fl_cfg;
  fl_cfg.pool.replicas = config_.replicas;
  fl_cfg.pool.function_memory = function_sizing_for(job_->model()).memory;
  fl_cfg.cold_flush = config_.cold_flush;
  flstore_ = std::make_unique<core::FLStore>(fl_cfg, *job_, *backend_);
  flstore_->set_telemetry(config_.telemetry);

  objstore_agg_ = std::make_unique<baselines::ObjStoreAggregator>(
      vm_profile(), *job_, objstore_agg_bucket_);
  cache_agg_ = std::make_unique<baselines::CacheAggregator>(
      vm_profile(), *job_, cache_agg_bucket_,
      baselines::job_metadata_footprint(*job_), cloudcache_link());
}

Scenario::~Scenario() = default;

std::vector<fed::NonTrainingRequest> Scenario::trace() const {
  fed::TraceConfig tc;
  tc.duration_s = config_.duration_s;
  tc.total_requests = config_.total_requests;
  tc.round_interval_s = config_.round_interval_s;
  tc.workloads = config_.workloads;
  tc.seed = config_.seed ^ 0x7ACEDULL;
  return fed::generate_trace(tc, *job_);
}

std::unique_ptr<backend::StorageBackend> Scenario::make_cold_backend(
    backend::BackendKind kind) const {
  std::unique_ptr<backend::StorageBackend> raw;
  switch (kind) {
    case backend::BackendKind::kObjectStore:
      raw = std::make_unique<backend::ObjectStoreBackend>(
          objstore_link(), PricingCatalog::aws());
      break;
    case backend::BackendKind::kCloudCache: {
      backend::CloudCacheBackend::Config cfg;
      cfg.link = cloudcache_link();
      raw = std::make_unique<backend::CloudCacheBackend>(
          cfg, PricingCatalog::aws());
      break;
    }
    case backend::BackendKind::kLocalSsd: {
      backend::LocalSsdBackend::Config cfg;
      cfg.link = local_ssd_link();
      raw = std::make_unique<backend::LocalSsdBackend>(cfg,
                                                       PricingCatalog::aws());
      break;
    }
    case backend::BackendKind::kTiered:
    case backend::BackendKind::kReplicated:
      break;  // compositions, not kinds the scenario can conjure alone
  }
  if (raw == nullptr) {
    throw InvalidArgument("make_cold_backend: unsupported backend kind");
  }
  if (config_.telemetry == nullptr) return raw;
  // With telemetry on, wrap in an owning InstrumentedBackend.
  obs::InstrumentedBackend::Options opts;
  opts.metrics = &config_.telemetry->metrics;
  opts.tracer = &config_.telemetry->tracer;
  return std::make_unique<obs::InstrumentedBackend>(std::move(raw),
                                                    std::move(opts));
}

std::unique_ptr<core::FLStore> Scenario::make_flstore_over(
    backend::StorageBackend& cold, core::PolicyMode mode,
    units::Bytes cache_capacity) const {
  core::FLStoreConfig cfg;
  cfg.policy.mode = mode;
  cfg.cache_capacity = cache_capacity;
  cfg.pool.function_memory = function_sizing_for(job_->model()).memory;
  cfg.cold_flush = config_.cold_flush;
  auto store = std::make_unique<core::FLStore>(cfg, *job_, cold);
  store->set_telemetry(config_.telemetry);
  return store;
}

}  // namespace flstore::sim
