// Conventional FL serving baselines (Fig 3): a dedicated aggregator VM
// (SageMaker ml.m5.4xlarge) fetches metadata from a *separate* data plane,
// computes, and stores results back.
//
//  * ObjStoreAggregator — data plane is the cloud object store (S3/MinIO):
//    cheap storage, slow per-object access. Baseline of Figs 7/8/15/16.
//    Runs on the backend::StorageBackend it is given — in the benches its
//    own backend::ObjectStoreBackend bucket.
//  * CacheAggregator — data plane adds an ElastiCache-style in-memory tier
//    in front of the store: faster access, expensive provisioned node-hours.
//    Baseline of Figs 9/17. The tier is a fixed-fleet
//    backend::CloudCacheBackend (auto_scale off, LRU eviction) it owns, in
//    front of the same StorageBackend.
//
// Both run the *same* workload implementations as FLStore, through the same
// core::ServingSystem contract; only the data path differs — that isolation
// is the point of the comparison.
#pragma once

#include <memory>
#include <string>

#include "backend/cloud_cache_backend.hpp"
#include "backend/storage_backend.hpp"
#include "cloud/cost_meter.hpp"
#include "common/compute_work.hpp"
#include "core/serving_system.hpp"
#include "fed/fl_job.hpp"
#include "simnet/network.hpp"

namespace flstore::baselines {

/// Shared fetch-compute-store pipeline; subclasses provide the data plane.
class AggregatorBaseline : public core::ServingSystem {
 public:
  /// `vm` is the aggregator VM's effective single-request throughput; `job`
  /// and `store` must outlive the baseline.
  AggregatorBaseline(ComputeProfile vm, const fed::FLJob& job,
                     backend::StorageBackend& store);

  /// Store a finished round into the data plane (training-side writes).
  void ingest_round(const fed::RoundRecord& record, double now) override;

  core::ServeResult serve(const fed::NonTrainingRequest& req,
                          double now) override;

  /// Always-on services for an interval: the VM bills whether or not
  /// requests arrive, plus storage (and cache nodes for CacheAggregator).
  [[nodiscard]] double infrastructure_cost(double seconds) const override;

 protected:
  struct Fetched {
    std::shared_ptr<const Blob> blob;
    double latency_s = 0.0;
    bool cache_hit = false;
  };
  /// Pull one object into VM memory at `now`; charges request fees to
  /// `fees`.
  virtual Fetched fetch(const MetadataKey& key, double now,
                        CostMeter& fees) = 0;

  ComputeProfile vm_;
  const fed::FLJob* job_;
  backend::StorageBackend* store_;
};

class ObjStoreAggregator final : public AggregatorBaseline {
 public:
  using AggregatorBaseline::AggregatorBaseline;
  [[nodiscard]] std::string name() const override { return "ObjStore-Agg"; }

 protected:
  Fetched fetch(const MetadataKey& key, double now, CostMeter& fees) override;
};

class CacheAggregator final : public AggregatorBaseline {
 public:
  /// The cache tier is provisioned to hold `working_set` bytes (the paper
  /// keeps all FL metadata in the data plane — pass the job footprint).
  CacheAggregator(ComputeProfile vm, const fed::FLJob& job,
                  backend::StorageBackend& store, units::Bytes working_set,
                  Link cache_link);

  [[nodiscard]] std::string name() const override { return "Cache-Agg"; }
  void ingest_round(const fed::RoundRecord& record, double now) override;
  [[nodiscard]] double infrastructure_cost(double seconds) const override;
  [[nodiscard]] const backend::CloudCacheBackend& cache() const noexcept {
    return cache_;
  }

 protected:
  Fetched fetch(const MetadataKey& key, double now, CostMeter& fees) override;

 private:
  backend::CloudCacheBackend cache_;
};

/// Footprint of an FL job's full metadata (sizing the Cache-Agg tier).
[[nodiscard]] units::Bytes job_metadata_footprint(const fed::FLJob& job);

}  // namespace flstore::baselines
