#include "backend/replicated_cold_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::backend {

std::vector<OutageWindow> region_outages_from_faults(
    const std::vector<FaultEvent>& faults, std::size_t fault_prone_regions,
    double outage_duration_s) {
  FLSTORE_CHECK(outage_duration_s >= 0.0);
  std::vector<OutageWindow> windows;
  if (fault_prone_regions == 0) return windows;
  windows.reserve(faults.size());
  for (const auto& fault : faults) {
    const auto region = static_cast<std::size_t>(fault.victim_rank) %
                        fault_prone_regions;
    windows.push_back(
        OutageWindow{region, fault.time_s, fault.time_s + outage_duration_s});
  }
  return windows;
}

ReplicatedColdStore::ReplicatedColdStore(std::vector<Region> regions,
                                         Config config,
                                         const PricingCatalog& pricing)
    : config_(config), pricing_(&pricing) {
  FLSTORE_CHECK(!regions.empty());
  regions_.reserve(regions.size());
  for (auto& region : regions) {
    RegionState state;
    state.name = std::move(region.name);
    state.owned = std::move(region.owned);
    state.resolved = state.owned ? state.owned.get() : region.backend;
    state.wan = region.wan;
    state.far = region.far;
    FLSTORE_CHECK(state.resolved != nullptr);
    regions_.push_back(std::move(state));
  }
  quorum_ = config_.write_quorum > 0
                ? config_.write_quorum
                : static_cast<int>(regions_.size()) / 2 + 1;
  FLSTORE_CHECK(quorum_ >= 1);
  FLSTORE_CHECK(quorum_ <= static_cast<int>(regions_.size()));
}

double ReplicatedColdStore::egress_fee(std::size_t i,
                                       units::Bytes bytes) const {
  if (i == 0) return 0.0;  // home region: intra-region traffic is free
  return pricing_->interregion_transfer_cost(bytes, regions_[i].far);
}

void ReplicatedColdStore::rollback_version_locked(const std::string& name,
                                                  std::uint64_t version) {
  const auto it = latest_.find(name);
  // Only unwind if no interleaved write advanced the object further.
  if (it == latest_.end() || it->second != version) return;
  if (version <= 1) {
    latest_.erase(it);
  } else {
    it->second = version - 1;
  }
}

void ReplicatedColdStore::set_outages(std::vector<OutageWindow> outages) {
  const MutexLock lock(mu_);
  for (auto& region : regions_) region.outages.clear();
  for (auto& window : outages) {
    FLSTORE_CHECK(window.region < regions_.size());
    regions_[window.region].outages.push_back(window);
  }
  for (auto& region : regions_) {
    std::sort(region.outages.begin(), region.outages.end(),
              [](const OutageWindow& a, const OutageWindow& b) {
                return a.start_s < b.start_s;
              });
  }
}

bool ReplicatedColdStore::in_outage(std::size_t region, double now) const {
  const MutexLock lock(mu_);
  for (const auto& window : regions_.at(region).outages) {
    if (window.start_s > now) break;
    if (now < window.end_s) return true;
  }
  return false;
}

BatchPutResult ReplicatedColdStore::put_batch(std::vector<PutRequest> batch,
                                              double now) {
  for (auto& item : batch) {
    item.logical_bytes = effective_logical(item.blob, item.logical_bytes);
  }
  units::Bytes attempted = 0;
  for (const auto& item : batch) attempted += item.logical_bytes;
  std::vector<std::uint64_t> versions(batch.size(), 0);
  {
    const MutexLock lock(mu_);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      versions[k] = ++latest_[batch[k].name];
    }
  }

  BatchPutResult res;
  std::vector<int> accept_count(batch.size(), 0);
  /// (region, per-item acceptance) for the version-map update below.
  std::vector<std::pair<std::size_t, std::vector<bool>>> region_accepts;
  std::vector<double> acks;
  acks.reserve(regions_.size());
  double slowest_attempt = 0.0;
  double egress = 0.0;
  std::uint64_t skips = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (in_outage(i, now)) {
      ++skips;
      continue;
    }
    std::vector<PutRequest> copy;
    copy.reserve(batch.size());
    for (const auto& item : batch) {
      copy.push_back(PutRequest{item.name, item.blob, item.logical_bytes});
    }
    auto region_res = regions_[i].resolved->put_batch(std::move(copy), now);
    const double latency =
        region_res.latency_s + regions_[i].wan.transfer_time(attempted);
    res.request_fee_usd += region_res.request_fee_usd;
    egress += egress_fee(i, attempted);
    slowest_attempt = std::max(slowest_attempt, latency);
    // Only a region that accepted something acknowledges; a full region
    // that refused the whole batch must not speed up the quorum wait.
    if (region_res.stored > 0) acks.push_back(latency);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (k < region_res.accepted.size() && region_res.accepted[k]) {
        ++accept_count[k];
      }
    }
    region_res.accepted.resize(batch.size(), false);
    region_accepts.emplace_back(i, std::move(region_res.accepted));
  }
  std::sort(acks.begin(), acks.end());
  res.latency_s = static_cast<int>(acks.size()) >= quorum_
                      ? acks[static_cast<std::size_t>(quorum_ - 1)]
                      : slowest_attempt;
  res.accepted.resize(batch.size(), false);
  units::Bytes written = 0;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (accept_count[k] < quorum_) continue;
    res.accepted[k] = true;
    ++res.stored;
    written += batch[k].logical_bytes;
  }
  res.request_fee_usd += egress;
  const MutexLock lock(mu_);
  for (const auto& [region, item_accepted] : region_accepts) {
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!item_accepted[k]) continue;
      auto& seen = regions_[region].versions[batch[k].name];
      seen = std::max(seen, versions[k]);
    }
  }
  // A quorum-failed item that reached *some* region is not rolled back —
  // those replicas hold (and serve) the newest version. An item *no*
  // region took must not advance its version, though, or every replica
  // would read as permanently stale.
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (accept_count[k] == 0) {
      rollback_version_locked(batch[k].name, versions[k]);
    }
  }
  ++stats_.batches;
  stats_.puts += batch.size();
  stats_.rejected_puts += batch.size() - res.stored;
  quorum_failures_ += batch.size() - res.stored;
  stats_.bytes_written += written;
  stats_.fees_usd += res.request_fee_usd;
  egress_fees_usd_ += egress;
  outage_skips_ += skips;
  return res;
}

GetResult ReplicatedColdStore::get(const std::string& name, double now) {
  std::uint64_t latest = 0;
  bool versioned = false;
  {
    const MutexLock lock(mu_);
    const auto it = latest_.find(name);
    if (it != latest_.end()) {
      latest = it->second;
      versioned = true;
    }
  }
  const auto region_version = [&](std::size_t i) -> std::uint64_t {
    const MutexLock lock(mu_);
    const auto it = regions_[i].versions.find(name);
    return it == regions_[i].versions.end() ? 0 : it->second;
  };

  GetResult res;
  double egress = 0.0;
  std::uint64_t skips = 0;
  std::uint64_t stale = 0;
  std::size_t hit_region = 0;
  bool stale_read = false;
  // Freshest reachable stale replica: the last resort when every region
  // holding the latest version is dark.
  std::size_t best_stale = regions_.size();
  std::uint64_t best_stale_version = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const double t = now + res.latency_s;
    if (in_outage(i, t)) {
      // Connect timeout, then fail over to the next-nearest region.
      res.latency_s +=
          config_.outage_probe_s + regions_[i].wan.first_byte_latency_s;
      ++skips;
      continue;
    }
    const std::uint64_t held = versioned ? region_version(i) : 0;
    if (versioned && held != latest) {
      // The version map knows this replica missed an overwrite (or never
      // received the object): a control-plane check skips it instead of
      // letting it serve outdated bytes.
      if (held > 0 && (best_stale == regions_.size() ||
                       held > best_stale_version)) {
        best_stale = i;
        best_stale_version = held;
      }
      res.latency_s += regions_[i].wan.first_byte_latency_s;
      ++stale;
      continue;
    }
    auto region_res = regions_[i].resolved->get(name, t);
    res.request_fee_usd += region_res.request_fee_usd;
    if (!region_res.found) {
      // A remote miss probe is a control-plane round trip over the WAN.
      res.latency_s +=
          region_res.latency_s + regions_[i].wan.first_byte_latency_s;
      continue;
    }
    res.found = true;
    res.blob = std::move(region_res.blob);
    res.logical_bytes = region_res.logical_bytes;
    res.latency_s += region_res.latency_s +
                     (i == 0 ? 0.0
                             : regions_[i].wan.transfer_time(
                                   region_res.logical_bytes));
    egress += egress_fee(i, region_res.logical_bytes);
    hit_region = i;
    break;
  }
  if (!res.found && best_stale < regions_.size()) {
    // Every up-to-date replica is dark: serve the freshest stale copy —
    // bounded staleness beats unavailability for a cold tier.
    auto region_res =
        regions_[best_stale].resolved->get(name, now + res.latency_s);
    res.request_fee_usd += region_res.request_fee_usd;
    if (region_res.found) {
      res.found = true;
      res.blob = std::move(region_res.blob);
      res.logical_bytes = region_res.logical_bytes;
      res.latency_s += region_res.latency_s +
                       (best_stale == 0
                            ? 0.0
                            : regions_[best_stale].wan.transfer_time(
                                  region_res.logical_bytes));
      egress += egress_fee(best_stale, region_res.logical_bytes);
      hit_region = best_stale;
      stale_read = true;
    }
  }
  std::uint64_t repair_copies = 0;
  std::vector<std::size_t> repaired_regions;
  if (res.found && !stale_read && config_.read_repair && hit_region > 0 &&
      res.blob != nullptr) {
    // Copy the object back toward the home region so the next read is
    // local. Asynchronous: fees accrue, the request does not wait — and the
    // copies fire at read *completion*, the bytes do not exist any earlier.
    // Stale nearer replicas are overwritten, missing ones filled in.
    const double done = now + res.latency_s;
    for (std::size_t j = 0; j < hit_region; ++j) {
      if (in_outage(j, done)) continue;
      // Repair unless the region is current *and* still holds the bytes —
      // a bounded region can evict an object its version map calls
      // current, and that copy must be restorable too.
      if ((!versioned || region_version(j) == latest) &&
          regions_[j].resolved->contains(name)) {
        continue;
      }
      const auto repair = regions_[j].resolved->put(
          name, Blob(*res.blob), res.logical_bytes, done);
      res.request_fee_usd += repair.request_fee_usd;
      // Repair bytes leave the hit region across the WAN.
      egress += egress_fee(hit_region, res.logical_bytes);
      if (repair.accepted) {
        ++repair_copies;
        repaired_regions.push_back(j);
      }
    }
  }
  res.request_fee_usd += egress;
  const MutexLock lock(mu_);
  for (const auto j : repaired_regions) {
    auto& seen = regions_[j].versions[name];
    seen = std::max(seen, latest);
  }
  ++stats_.gets;
  stats_.bytes_read += res.found ? res.logical_bytes : 0;
  stats_.fees_usd += res.request_fee_usd;
  egress_fees_usd_ += egress;
  outage_skips_ += skips;
  stale_skips_ += stale;
  if (res.found && hit_region > 0) ++failover_reads_;
  repairs_ += repair_copies;
  return res;
}

bool ReplicatedColdStore::remove(const std::string& name, double now) {
  // Deletes are control-plane and durable across outages (anti-entropy is
  // assumed to reconcile them); only regions holding a copy book a remove.
  bool removed = false;
  for (auto& region : regions_) {
    if (!region.resolved->contains(name)) continue;
    removed = region.resolved->remove(name, now) || removed;
  }
  const MutexLock lock(mu_);
  latest_.erase(name);
  for (auto& region : regions_) region.versions.erase(name);
  ++stats_.removes;
  return removed;
}

bool ReplicatedColdStore::contains(const std::string& name) const {
  return std::any_of(regions_.begin(), regions_.end(),
                     [&](const RegionState& region) {
                       return region.resolved->contains(name);
                     });
}

units::Bytes ReplicatedColdStore::stored_logical_bytes() const {
  units::Bytes most_complete = 0;
  for (const auto& region : regions_) {
    most_complete =
        std::max(most_complete, region.resolved->stored_logical_bytes());
  }
  return most_complete;
}

units::Bytes ReplicatedColdStore::capacity_bytes() const {
  units::Bytes smallest = 0;
  for (const auto& region : regions_) {
    const units::Bytes cap = region.resolved->capacity_bytes();
    if (cap == 0) continue;
    smallest = smallest == 0 ? cap : std::min(smallest, cap);
  }
  return smallest;
}

double ReplicatedColdStore::idle_cost(double seconds) const {
  double total = 0.0;
  for (const auto& region : regions_) {
    total += region.resolved->idle_cost(seconds);
  }
  return total;
}

StorageBackend::FlushResult ReplicatedColdStore::flush_window(
    double now, double dirty_before, std::size_t max_objects) {
  // Drain every region's deferred writes; the logical number of objects
  // made durable (and refused) is the most complete region's drain — the
  // fees are real everywhere.
  FlushResult result;
  for (auto& region : regions_) {
    const auto region_res =
        region.resolved->flush_window(now, dirty_before, max_objects);
    result.drained = std::max(result.drained, region_res.drained);
    result.drained_bytes =
        std::max(result.drained_bytes, region_res.drained_bytes);
    result.refused = std::max(result.refused, region_res.refused);
    result.refused_bytes =
        std::max(result.refused_bytes, region_res.refused_bytes);
    result.request_fee_usd += region_res.request_fee_usd;
  }
  const MutexLock lock(mu_);
  stats_.fees_usd += result.request_fee_usd;
  return result;
}

StorageBackend::DirtyWindow ReplicatedColdStore::dirty_window() const {
  DirtyWindow window;
  bool first = true;
  for (const auto& region : regions_) {
    const auto region_window = region.resolved->dirty_window();
    window.objects = std::max(window.objects, region_window.objects);
    window.bytes = std::max(window.bytes, region_window.bytes);
    if (region_window.objects > 0 &&
        (first || region_window.oldest_since_s < window.oldest_since_s)) {
      window.oldest_since_s = region_window.oldest_since_s;
      first = false;
    }
  }
  return window;
}

StorageBackend::CrashResult ReplicatedColdStore::crash(double now) {
  CrashResult result;
  for (auto& region : regions_) {
    const auto region_res = region.resolved->crash(now);
    result.lost_objects = std::max(result.lost_objects,
                                   region_res.lost_objects);
    result.lost_bytes = std::max(result.lost_bytes, region_res.lost_bytes);
  }
  return result;
}

std::string ReplicatedColdStore::name() const {
  std::string composed = "replicated(" + std::to_string(quorum_) + "/" +
                         std::to_string(regions_.size()) + ": ";
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (i > 0) composed += ", ";
    composed += regions_[i].name.empty() ? regions_[i].resolved->name()
                                         : regions_[i].name;
  }
  composed += ")";
  return composed;
}

OpStats ReplicatedColdStore::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

bool ReplicatedColdStore::set_throttle(const Throttle::Config& config,
                                       double now) {
  bool any = false;
  for (auto& region : regions_) {
    any = region.resolved->set_throttle(config, now) || any;
  }
  return any;
}

double ReplicatedColdStore::egress_fees_usd() const {
  const MutexLock lock(mu_);
  return egress_fees_usd_;
}

std::uint64_t ReplicatedColdStore::failover_reads() const {
  const MutexLock lock(mu_);
  return failover_reads_;
}

std::uint64_t ReplicatedColdStore::outage_skips() const {
  const MutexLock lock(mu_);
  return outage_skips_;
}

std::uint64_t ReplicatedColdStore::stale_skips() const {
  const MutexLock lock(mu_);
  return stale_skips_;
}

std::uint64_t ReplicatedColdStore::quorum_failures() const {
  const MutexLock lock(mu_);
  return quorum_failures_;
}

std::uint64_t ReplicatedColdStore::repairs() const {
  const MutexLock lock(mu_);
  return repairs_;
}

}  // namespace flstore::backend
