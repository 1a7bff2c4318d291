#include "backend/local_ssd_backend.hpp"

#include "common/error.hpp"

namespace flstore::backend {

LocalSsdBackend::LocalSsdBackend(Config config, const PricingCatalog& pricing)
    : config_(config),
      pricing_(&pricing),
      throttle_(config.throttle),
      devices_(config.devices) {
  FLSTORE_CHECK(config.devices >= 1);
}

bool LocalSsdBackend::store_locked(const std::string& name, Blob blob,
                                   units::Bytes logical_bytes) {
  ++stats_.puts;
  auto [it, inserted] = objects_.try_emplace(name);
  const units::Bytes replaced = inserted ? 0 : it->second.logical_bytes;
  if (used_ - replaced + logical_bytes > capacity_locked()) {
    if (!config_.auto_scale) {
      if (inserted) objects_.erase(it);
      ++stats_.rejected_puts;
      return false;
    }
    while (used_ - replaced + logical_bytes > capacity_locked()) ++devices_;
  }
  used_ -= replaced;
  it->second.blob = std::make_shared<const Blob>(std::move(blob));
  it->second.logical_bytes = logical_bytes;
  used_ += logical_bytes;
  stats_.bytes_written += logical_bytes;
  return true;
}

BatchPutResult LocalSsdBackend::put_batch(std::vector<PutRequest> batch,
                                          double now) {
  // NVMe queues keep a batch streaming at device bandwidth: one admission,
  // one setup cost, then sequential writes. Rejected items (fixed fleet,
  // full device) still consume stream time — the bytes travelled over the
  // link before the device refused them.
  BatchPutResult res;
  res.accepted.reserve(batch.size());
  units::Bytes attempted = 0;
  const MutexLock lock(mu_);
  res.latency_s += admit_throttled(throttle_, stats_, now);
  for (auto& item : batch) {
    const units::Bytes logical =
        effective_logical(item.blob, item.logical_bytes);
    attempted += logical;
    const bool accepted = store_locked(item.name, std::move(item.blob),
                                       logical);
    res.accepted.push_back(accepted);
    if (!accepted) continue;
    ++res.stored;
  }
  res.latency_s += config_.link.transfer_time(attempted);
  ++stats_.batches;
  return res;
}

GetResult LocalSsdBackend::get(const std::string& name, double now) {
  GetResult res;
  const MutexLock lock(mu_);
  res.latency_s += admit_throttled(throttle_, stats_, now);
  ++stats_.gets;
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    res.latency_s += config_.link.first_byte_latency_s;
    return res;
  }
  res.found = true;
  res.blob = it->second.blob;
  res.logical_bytes = it->second.logical_bytes;
  res.latency_s += config_.link.transfer_time(it->second.logical_bytes);
  stats_.bytes_read += res.logical_bytes;
  return res;
}

bool LocalSsdBackend::remove(const std::string& name, double now) {
  (void)now;
  const MutexLock lock(mu_);
  ++stats_.removes;
  const auto it = objects_.find(name);
  if (it == objects_.end()) return false;
  FLSTORE_CHECK(used_ >= it->second.logical_bytes);
  used_ -= it->second.logical_bytes;
  objects_.erase(it);
  return true;
}

bool LocalSsdBackend::contains(const std::string& name) const {
  const MutexLock lock(mu_);
  return objects_.contains(name);
}

units::Bytes LocalSsdBackend::stored_logical_bytes() const {
  const MutexLock lock(mu_);
  return used_;
}

units::Bytes LocalSsdBackend::capacity_bytes() const {
  const MutexLock lock(mu_);
  return config_.auto_scale ? 0 : capacity_locked();
}

double LocalSsdBackend::idle_cost(double seconds) const {
  const MutexLock lock(mu_);
  return pricing_->ssd_devices_cost(devices_, seconds);
}

OpStats LocalSsdBackend::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

bool LocalSsdBackend::set_throttle(const Throttle::Config& config,
                                   double now) {
  const MutexLock lock(mu_);
  throttle_.set_config(config, now);
  return true;
}

int LocalSsdBackend::devices() const {
  const MutexLock lock(mu_);
  return devices_;
}

}  // namespace flstore::backend
