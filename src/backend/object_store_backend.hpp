// ObjectStoreBackend — one cloud object-store bucket (S3/MinIO) that owns
// its objects. Each carries real bytes and a *logical* size (the true
// checkpoint size); latency and fees follow the logical size, so the
// simulation sees 161 MB objects while tests hold KB-scale vectors.
//
// An op pays the optional throttle's wait plus one transfer over the access
// link (a miss: the first-byte round trip). S3 bills every PUT and GET,
// misses included; put_batch is one admission and one streamed transfer,
// still billed per object. idle_cost() is the GB-month storage fee. One
// mutex guards everything, so each op is linearizable.
#pragma once

#include <unordered_map>

#include "backend/storage_backend.hpp"
#include "cloud/pricing.hpp"
#include "common/mutex.hpp"
#include "simnet/network.hpp"

namespace flstore::backend {

class ObjectStoreBackend final : public StorageBackend {
 public:
  struct Config {
    Throttle::Config throttle;  ///< ops_per_s = 0: unthrottled (default)
  };

  ObjectStoreBackend(const Link& link, const PricingCatalog& pricing,
                     Config config = {})
      : link_(link), pricing_(&pricing), throttle_(config.throttle) {}

  PutResult put(const std::string& name, Blob blob, units::Bytes logical_bytes,
                double now) override;
  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  [[nodiscard]] units::Bytes capacity_bytes() const override { return 0; }
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kObjectStore;
  }
  [[nodiscard]] std::string name() const override { return "object-store"; }
  [[nodiscard]] OpStats stats() const override;
  bool set_throttle(const Throttle::Config& config, double now) override;

 private:
  struct Object {
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
  };

  /// Store (or overwrite) one object; the caller books the ledger.
  void store_locked(const std::string& name, Blob blob,
                    units::Bytes logical_bytes) REQUIRES(mu_);

  Link link_;
  const PricingCatalog* pricing_;
  mutable Mutex mu_;
  Throttle throttle_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Object> objects_ GUARDED_BY(mu_);
  units::Bytes stored_logical_ GUARDED_BY(mu_) = 0;
  OpStats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::backend
