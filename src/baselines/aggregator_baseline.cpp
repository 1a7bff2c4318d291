#include "baselines/aggregator_baseline.hpp"

#include <algorithm>

#include "cloud/pricing.hpp"
#include "common/error.hpp"
#include "fed/codec.hpp"

namespace flstore::baselines {

namespace {

/// Client -> aggregator request hop.
constexpr double kRoutingOverheadS = 0.02;

backend::CloudCacheBackend::Config fixed_fleet(units::Bytes working_set,
                                               Link cache_link) {
  backend::CloudCacheBackend::Config cfg;
  cfg.nodes = std::max(1, PricingCatalog::aws().cache_nodes_for(working_set));
  cfg.auto_scale = false;
  cfg.link = cache_link;
  return cfg;
}

}  // namespace

AggregatorBaseline::AggregatorBaseline(ComputeProfile vm,
                                       const fed::FLJob& job,
                                       backend::StorageBackend& store)
    : vm_(vm), job_(&job), store_(&store) {}

void AggregatorBaseline::ingest_round(const fed::RoundRecord& record,
                                      double now) {
  for (const auto& obj : fed::encode_round(record)) {
    (void)store_->put(obj.key.object_name(), *obj.blob, obj.logical_bytes,
                      now);
  }
}

core::ServeResult AggregatorBaseline::serve(const fed::NonTrainingRequest& req,
                                            double now) {
  core::ServeResult res;
  res.comm_s = kRoutingOverheadS;
  CostMeter fees;

  const auto& workload = workloads::workload_for(req.type);
  workloads::WorkloadInput input;
  input.model = &job_->model();

  // Every object crosses the network into the VM's memory — the separated
  // data/compute planes of Fig 3.
  for (const auto& key : workload.data_needs(req, *job_)) {
    auto fetched = fetch(key, now + res.comm_s, fees);
    res.comm_s += fetched.latency_s;
    if (fetched.cache_hit) {
      ++res.hits;
    } else {
      ++res.misses;
    }
    workloads::absorb_blob(input, key, *fetched.blob);
  }

  res.output = workload.execute(req, input);
  res.comp_s = vm_.execution_time(res.output.work);

  const auto put = store_->put("results/" + std::to_string(req.id), Blob(1),
                               res.output.result_bytes, now + res.comm_s);
  fees.charge(CostCategory::kStorageService, put.request_fee_usd);
  res.comm_s += put.latency_s;

  res.latency_s = res.comm_s + res.comp_s;
  // Per-request serving cost: the VM-time this request occupied (waiting on
  // I/O bills like computing — §5.3's communication-cost dominance) + fees.
  res.cost_usd =
      PricingCatalog::aws().vm_time_cost(res.latency_s) + fees.total();
  return res;
}

double AggregatorBaseline::infrastructure_cost(double seconds) const {
  return PricingCatalog::aws().vm_time_cost(seconds) +
         store_->idle_cost(seconds);
}

AggregatorBaseline::Fetched ObjStoreAggregator::fetch(const MetadataKey& key,
                                                      double now,
                                                      CostMeter& fees) {
  auto got = store_->get(key.object_name(), now);
  fees.charge(CostCategory::kStorageService, got.request_fee_usd);
  if (!got.found) {
    throw NotFound("object store lacks " + key.object_name());
  }
  return {got.blob, got.latency_s, false};
}

CacheAggregator::CacheAggregator(ComputeProfile vm, const fed::FLJob& job,
                                 backend::StorageBackend& store,
                                 units::Bytes working_set, Link cache_link)
    : AggregatorBaseline(vm, job, store),
      cache_(fixed_fleet(working_set, cache_link), PricingCatalog::aws()) {}

void CacheAggregator::ingest_round(const fed::RoundRecord& record,
                                   double now) {
  for (const auto& obj : fed::encode_round(record)) {
    const auto name = obj.key.object_name();
    (void)store_->put(name, *obj.blob, obj.logical_bytes, now);
    // Write-through into the cache tier so reads hit memory, not the store.
    (void)cache_.put(name, *obj.blob, obj.logical_bytes, now);
  }
}

AggregatorBaseline::Fetched CacheAggregator::fetch(const MetadataKey& key,
                                                   double now,
                                                   CostMeter& fees) {
  const auto name = key.object_name();
  auto hit = cache_.get(name, now);
  if (hit.found) {
    return {hit.blob, hit.latency_s, true};
  }
  // Fall back to the store and repopulate the cache tier.
  auto got = store_->get(name, now + hit.latency_s);
  fees.charge(CostCategory::kStorageService, got.request_fee_usd);
  if (!got.found) {
    throw NotFound("data plane lacks " + name);
  }
  const double latency_s = hit.latency_s + got.latency_s;
  (void)cache_.put(name, Blob(*got.blob), got.logical_bytes, now + latency_s);
  return {got.blob, latency_s, false};
}

double CacheAggregator::infrastructure_cost(double seconds) const {
  return AggregatorBaseline::infrastructure_cost(seconds) +
         cache_.idle_cost(seconds);
}

units::Bytes job_metadata_footprint(const fed::FLJob& job) {
  const auto& cfg = job.config();
  return fed::round_logical_bytes(job.model().object_bytes,
                                  cfg.clients_per_round) *
         static_cast<units::Bytes>(cfg.rounds);
}

}  // namespace flstore::baselines
