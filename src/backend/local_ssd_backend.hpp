// LocalSsdBackend — an NVMe-class device tier as the cold store.
//
// Microsecond first byte and GB/s streams: two orders of magnitude faster
// than the object store on the miss path, an order faster than the cloud
// cache. The trade is capacity: devices are finite and billed on
// *provisioned* bytes (GB-month on the whole device, used or not). With
// auto_scale on, a write past the last device's edge provisions another
// device; off, the put is rejected (accepted=false) and the caller — in
// practice TieredColdStore — must fall back to a deeper tier. No
// per-request fees either way; the bill is all idle_cost().
#pragma once

#include <unordered_map>

#include "backend/storage_backend.hpp"
#include "cloud/pricing.hpp"
#include "common/mutex.hpp"
#include "simnet/network.hpp"

namespace flstore::backend {

class LocalSsdBackend final : public StorageBackend {
 public:
  struct Config {
    /// Devices provisioned up front (capacity = devices * device capacity).
    int devices = 1;
    /// Provision another device instead of rejecting an over-capacity put.
    bool auto_scale = true;
    /// NVMe access path (calibration: sim::local_ssd_link).
    Link link{80.0e-6, 2.0e9};
    Throttle::Config throttle;
  };

  LocalSsdBackend(Config config, const PricingCatalog& pricing);

  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  [[nodiscard]] units::Bytes capacity_bytes() const override;
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kLocalSsd;
  }
  [[nodiscard]] std::string name() const override { return "local-ssd"; }
  [[nodiscard]] OpStats stats() const override;
  bool set_throttle(const Throttle::Config& config, double now) override;

  [[nodiscard]] int devices() const;

 private:
  struct Object {
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
  };

  /// Returns false when the object cannot be stored (fixed fleet, full); a
  /// refused overwrite leaves the old version.
  bool store_locked(const std::string& name, Blob blob,
                    units::Bytes logical_bytes) REQUIRES(mu_);

  [[nodiscard]] units::Bytes capacity_locked() const noexcept REQUIRES(mu_) {
    return static_cast<units::Bytes>(devices_) * pricing_->ssd_device_capacity;
  }

  Config config_;
  const PricingCatalog* pricing_;
  mutable Mutex mu_;
  Throttle throttle_ GUARDED_BY(mu_);
  int devices_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Object> objects_ GUARDED_BY(mu_);
  units::Bytes used_ GUARDED_BY(mu_) = 0;
  OpStats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::backend
