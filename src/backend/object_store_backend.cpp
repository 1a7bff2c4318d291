#include "backend/object_store_backend.hpp"

#include "common/error.hpp"

namespace flstore::backend {

void ObjectStoreBackend::store_locked(const std::string& name, Blob blob,
                                      units::Bytes logical_bytes) {
  auto [it, inserted] = objects_.try_emplace(name);
  if (!inserted) {
    FLSTORE_CHECK(stored_logical_ >= it->second.logical_bytes);
    stored_logical_ -= it->second.logical_bytes;
  }
  it->second.blob = std::make_shared<const Blob>(std::move(blob));
  it->second.logical_bytes = logical_bytes;
  stored_logical_ += logical_bytes;
}

PutResult ObjectStoreBackend::put(const std::string& name, Blob blob,
                                  units::Bytes logical_bytes, double now) {
  const units::Bytes logical = effective_logical(blob, logical_bytes);
  PutResult res;
  res.request_fee_usd = pricing_->s3_usd_per_put;
  const MutexLock lock(mu_);
  res.latency_s = admit_throttled(throttle_, stats_, now) +
                  link_.transfer_time(logical);
  store_locked(name, std::move(blob), logical);
  ++stats_.puts;
  stats_.bytes_written += logical;
  stats_.fees_usd += res.request_fee_usd;
  return res;
}

BatchPutResult ObjectStoreBackend::put_batch(std::vector<PutRequest> batch,
                                             double now) {
  // One admission and one streamed transfer for the whole batch: the
  // per-object first-byte cost collapses to a single setup, which is what
  // batching buys. S3 semantics keep the per-PUT request fee per object.
  BatchPutResult res;
  res.accepted.assign(batch.size(), true);  // the bucket is unbounded
  units::Bytes total = 0;
  const MutexLock lock(mu_);
  res.latency_s = admit_throttled(throttle_, stats_, now);
  for (auto& item : batch) {
    const units::Bytes logical =
        effective_logical(item.blob, item.logical_bytes);
    store_locked(item.name, std::move(item.blob), logical);
    res.request_fee_usd += pricing_->s3_usd_per_put;
    total += logical;
    ++res.stored;
  }
  res.latency_s += link_.transfer_time(total);
  ++stats_.batches;
  stats_.puts += res.stored;
  stats_.bytes_written += total;
  stats_.fees_usd += res.request_fee_usd;
  return res;
}

GetResult ObjectStoreBackend::get(const std::string& name, double now) {
  GetResult res;
  res.request_fee_usd = pricing_->s3_usd_per_get;
  const MutexLock lock(mu_);
  const double wait = admit_throttled(throttle_, stats_, now);
  const auto it = objects_.find(name);
  if (it == objects_.end()) {
    // A miss still pays the control-plane round trip.
    res.latency_s = wait + link_.first_byte_latency_s;
  } else {
    res.found = true;
    res.blob = it->second.blob;
    res.logical_bytes = it->second.logical_bytes;
    res.latency_s = wait + link_.transfer_time(res.logical_bytes);
  }
  ++stats_.gets;
  stats_.bytes_read += res.logical_bytes;
  stats_.fees_usd += res.request_fee_usd;
  return res;
}

bool ObjectStoreBackend::remove(const std::string& name, double now) {
  const MutexLock lock(mu_);
  (void)admit_throttled(throttle_, stats_, now);
  ++stats_.removes;
  const auto it = objects_.find(name);
  if (it == objects_.end()) return false;
  FLSTORE_CHECK(stored_logical_ >= it->second.logical_bytes);
  stored_logical_ -= it->second.logical_bytes;
  objects_.erase(it);
  return true;
}

bool ObjectStoreBackend::contains(const std::string& name) const {
  const MutexLock lock(mu_);
  return objects_.contains(name);
}

units::Bytes ObjectStoreBackend::stored_logical_bytes() const {
  const MutexLock lock(mu_);
  return stored_logical_;
}

double ObjectStoreBackend::idle_cost(double seconds) const {
  return pricing_->s3_storage_cost(stored_logical_bytes(), seconds);
}

OpStats ObjectStoreBackend::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

bool ObjectStoreBackend::set_throttle(const Throttle::Config& config,
                                      double now) {
  const MutexLock lock(mu_);
  throttle_.set_config(config, now);
  return true;
}

}  // namespace flstore::backend
