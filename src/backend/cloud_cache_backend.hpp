// CloudCacheBackend — an ElastiCache-style provisioned cache as the cold
// tier (the paper's cache-for-aggregator baseline, Figs 9/17, now behind
// the common StorageBackend seam).
//
// Millisecond access over the cache link, no per-request fees — the money
// is in keep-alive billing: r6g.xlarge-class nodes bill by the hour whether
// or not requests arrive, and idle_cost() charges exactly that. Capacity is
// node-granular. In auto-scale mode (the default for cold-tier use) the
// fleet grows so writes never drop — and the node-hour bill grows with it,
// which is precisely the cost behaviour the paper holds against this tier.
// With auto_scale off the fleet is fixed and over-capacity writes evict LRU
// (a get of an evicted object misses — a durability hazard a *cold* tier
// must price in, hence TieredColdStore's object-store fallback); that fixed
// fleet is the tier baselines::CacheAggregator provisions.
#pragma once

#include <list>
#include <unordered_map>

#include "backend/storage_backend.hpp"
#include "cloud/pricing.hpp"
#include "common/mutex.hpp"
#include "simnet/network.hpp"

namespace flstore::backend {

class CloudCacheBackend final : public StorageBackend {
 public:
  struct Config {
    /// Initially provisioned nodes (capacity = nodes * per-node capacity).
    int nodes = 1;
    /// Grow the fleet instead of evicting when a write exceeds capacity.
    bool auto_scale = true;
    /// Access path to the cache endpoint (calibration: sim::cloudcache_link).
    Link link{0.002, 60.0e6};
    Throttle::Config throttle;
  };

  CloudCacheBackend(Config config, const PricingCatalog& pricing);

  PutResult put(const std::string& name, Blob blob, units::Bytes logical_bytes,
                double now) override;
  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  [[nodiscard]] units::Bytes capacity_bytes() const override;
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kCloudCache;
  }
  [[nodiscard]] std::string name() const override { return "cloud-cache"; }
  [[nodiscard]] OpStats stats() const override;
  bool set_throttle(const Throttle::Config& config, double now) override;

  [[nodiscard]] int nodes() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
    std::list<std::string>::iterator lru_pos;
  };

  /// Returns false when the object can never fit.
  bool store_locked(const std::string& name, std::shared_ptr<const Blob> blob,
                    units::Bytes logical_bytes) REQUIRES(mu_);
  void evict_lru_locked() REQUIRES(mu_);
  [[nodiscard]] units::Bytes capacity_locked() const noexcept REQUIRES(mu_) {
    return static_cast<units::Bytes>(nodes_) * pricing_->cache_node_capacity;
  }

  Config config_;
  const PricingCatalog* pricing_;
  mutable Mutex mu_;
  Throttle throttle_ GUARDED_BY(mu_);
  int nodes_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  std::list<std::string> lru_ GUARDED_BY(mu_);  ///< front = most recent
  units::Bytes used_ GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ GUARDED_BY(mu_) = 0;
  OpStats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::backend
