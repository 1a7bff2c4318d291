#include "backend/cloud_cache_backend.hpp"

#include "common/error.hpp"

namespace flstore::backend {

CloudCacheBackend::CloudCacheBackend(Config config,
                                     const PricingCatalog& pricing)
    : config_(config),
      pricing_(&pricing),
      throttle_(config.throttle),
      nodes_(config.nodes) {
  FLSTORE_CHECK(config.nodes >= 1);
}

void CloudCacheBackend::evict_lru_locked() {
  FLSTORE_CHECK(!lru_.empty());
  const std::string victim = lru_.back();
  lru_.pop_back();
  const auto it = entries_.find(victim);
  FLSTORE_CHECK(it != entries_.end());
  FLSTORE_CHECK(used_ >= it->second.logical_bytes);
  used_ -= it->second.logical_bytes;
  entries_.erase(it);
  ++evictions_;
}

bool CloudCacheBackend::store_locked(const std::string& name,
                                     std::shared_ptr<const Blob> blob,
                                     units::Bytes logical_bytes) {
  // Reject an object that can never fit *before* touching any existing
  // version: a refused overwrite must not destroy the stored one.
  if (!config_.auto_scale && logical_bytes > capacity_locked()) return false;
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    used_ -= it->second.logical_bytes;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  if (config_.auto_scale) {
    while (used_ + logical_bytes > capacity_locked()) ++nodes_;
  } else {
    while (used_ + logical_bytes > capacity_locked()) evict_lru_locked();
  }
  lru_.push_front(name);
  entries_.emplace(name, Entry{std::move(blob), logical_bytes, lru_.begin()});
  used_ += logical_bytes;
  return true;
}

BatchPutResult CloudCacheBackend::put_batch(std::vector<PutRequest> batch,
                                            double now) {
  BatchPutResult res;
  res.accepted.reserve(batch.size());
  units::Bytes stored = 0;
  units::Bytes attempted = 0;
  const MutexLock lock(mu_);
  res.latency_s += admit_throttled(throttle_, stats_, now);
  for (auto& item : batch) {
    const units::Bytes logical =
        effective_logical(item.blob, item.logical_bytes);
    attempted += logical;
    const bool accepted = store_locked(
        item.name, std::make_shared<const Blob>(std::move(item.blob)),
        logical);
    res.accepted.push_back(accepted);
    ++stats_.puts;
    if (!accepted) {
      ++stats_.rejected_puts;
      continue;
    }
    ++res.stored;
    stored += logical;
  }
  // A refused write still pays its transfer — the bytes travelled before
  // the rejection, so the stream time covers every *attempted* byte, not
  // just the accepted ones.
  res.latency_s += config_.link.transfer_time(attempted);
  ++stats_.batches;
  stats_.bytes_written += stored;
  return res;
}

GetResult CloudCacheBackend::get(const std::string& name, double now) {
  GetResult res;
  const MutexLock lock(mu_);
  res.latency_s += admit_throttled(throttle_, stats_, now);
  ++stats_.gets;
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    res.latency_s += config_.link.first_byte_latency_s;
    return res;
  }
  // Touch for LRU.
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
  res.found = true;
  res.blob = it->second.blob;
  res.logical_bytes = it->second.logical_bytes;
  res.latency_s += config_.link.transfer_time(it->second.logical_bytes);
  stats_.bytes_read += res.logical_bytes;
  return res;
}

bool CloudCacheBackend::remove(const std::string& name, double now) {
  (void)now;
  const MutexLock lock(mu_);
  ++stats_.removes;
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  used_ -= it->second.logical_bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  return true;
}

bool CloudCacheBackend::contains(const std::string& name) const {
  const MutexLock lock(mu_);
  return entries_.contains(name);
}

units::Bytes CloudCacheBackend::stored_logical_bytes() const {
  const MutexLock lock(mu_);
  return used_;
}

units::Bytes CloudCacheBackend::capacity_bytes() const {
  const MutexLock lock(mu_);
  return config_.auto_scale ? 0 : capacity_locked();
}

double CloudCacheBackend::idle_cost(double seconds) const {
  const MutexLock lock(mu_);
  return pricing_->cache_nodes_cost(nodes_, seconds);
}

OpStats CloudCacheBackend::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

bool CloudCacheBackend::set_throttle(const Throttle::Config& config,
                                     double now) {
  const MutexLock lock(mu_);
  throttle_.set_config(config, now);
  return true;
}

int CloudCacheBackend::nodes() const {
  const MutexLock lock(mu_);
  return nodes_;
}

std::uint64_t CloudCacheBackend::evictions() const {
  const MutexLock lock(mu_);
  return evictions_;
}

}  // namespace flstore::backend
