#include "backend/tiered_cold_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::backend {

TieredColdStore::TieredColdStore(std::vector<StorageBackend*> tiers,
                                 Config config)
    : config_(config), tiers_(std::move(tiers)) {
  FLSTORE_CHECK(!tiers_.empty());
  for (const auto* tier : tiers_) FLSTORE_CHECK(tier != nullptr);
}

BatchPutResult TieredColdStore::put_batch(std::vector<PutRequest> batch,
                                          double now) {
  BatchPutResult res;
  if (config_.write_mode == WriteMode::kWriteBack) {
    // The fastest tier with room absorbs each write. Unless that was the
    // deepest (durable) tier itself, the object is dirty: flush() owes it
    // to the deepest tier — a fast-tier *refusal* never loses an object a
    // durable tier below had room for. (A bounded fast tier *evicting* a
    // dirty object before flush is the write-back crash window; see
    // dropped_dirty_count().)
    std::vector<PutRequest> copy;
    copy.reserve(batch.size());
    for (const auto& item : batch) {
      copy.push_back(PutRequest{item.name, item.blob, item.logical_bytes});
    }
    res = tiers_.front()->put_batch(std::move(copy), now);
    res.accepted.resize(batch.size(), false);
    units::Bytes written = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto& item = batch[i];
      const units::Bytes logical =
          effective_logical(item.blob, item.logical_bytes);
      if (res.accepted[i]) {
        // In the fast tier; durability in the deepest tier owed to flush().
        written += logical;
        if (tiers_.size() > 1) {
          const MutexLock lock(mu_);
          mark_dirty_locked(item.name, logical, now);
        }
        continue;
      }
      // Fast tier refused: fall through tier by tier — the first accepting
      // tier holds it, dirty unless that tier was the deepest. Every
      // attempted stream is part of this batch's write time, refused ones
      // included: the bytes travelled before the refusal.
      for (std::size_t j = 1; j < tiers_.size(); ++j) {
        const auto deep =
            tiers_[j]->put(item.name,
                           j + 1 == tiers_.size() ? std::move(item.blob)
                                                  : Blob(item.blob),
                           logical, now);
        res.request_fee_usd += deep.request_fee_usd;
        res.latency_s = std::max(res.latency_s, deep.latency_s);
        if (!deep.accepted) continue;
        // Tiers that refused this overwrite may still hold the previous
        // version; drop those copies or reads would serve stale bytes (and
        // flush would drain them over the newer one). Only tiers that hold
        // a copy get a remove — the op ledger must not book deletes a tier
        // never saw.
        for (std::size_t k = 0; k < j; ++k) {
          if (tiers_[k]->contains(item.name)) {
            (void)tiers_[k]->remove(item.name, now);
          }
        }
        res.accepted[i] = true;
        ++res.stored;
        written += logical;
        {
          const MutexLock lock(mu_);
          if (j + 1 < tiers_.size()) {
            mark_dirty_locked(item.name, logical, now);
          } else {
            // Landed durable directly; an earlier fast-tier version may
            // have left a dirty marker — clear it or flush() reports a
            // false drop.
            clear_dirty_locked(item.name);
          }
        }
        break;
      }
    }
    const MutexLock lock(mu_);
    ++stats_.batches;
    // `puts` counts attempts, like every backend.
    stats_.puts += batch.size();
    stats_.rejected_puts += batch.size() - res.stored;
    stats_.bytes_written += written;
    stats_.fees_usd += res.request_fee_usd;
    return res;
  }
  // Write-through: every tier gets a copy. The caller waits only for the
  // fastest accepting stream; the rest complete asynchronously but their
  // fees are real. Authoritative durability comes from the deepest tier,
  // so an object is accepted (and its bytes booked) iff the last tier
  // accepted it, whatever a faster tier did.
  for (auto& item : batch) {
    item.logical_bytes = effective_logical(item.blob, item.logical_bytes);
  }
  // Names + sizes survive the final move of the batch into the last tier.
  std::vector<std::string> names;
  std::vector<units::Bytes> logicals;
  names.reserve(batch.size());
  logicals.reserve(batch.size());
  for (const auto& item : batch) {
    names.push_back(item.name);
    logicals.push_back(item.logical_bytes);
  }
  double fastest = 0.0;
  double slowest = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    std::vector<PutRequest> copy;
    if (i + 1 < tiers_.size()) {
      copy.reserve(batch.size());
      for (const auto& item : batch) {
        copy.push_back(PutRequest{item.name, item.blob, item.logical_bytes});
      }
    } else {
      copy = std::move(batch);
    }
    auto tier_res = tiers_[i]->put_batch(std::move(copy), now);
    res.request_fee_usd += tier_res.request_fee_usd;
    slowest = std::max(slowest, tier_res.latency_s);
    // A tier that refused an overwrite drops its old copy — a tier either
    // holds the current version or nothing — but only if it actually holds
    // one: a remove for an object the tier never stored would inflate its
    // OpStats::removes ledger and wreck op-count comparisons across
    // backends.
    if (tier_res.stored < names.size()) {
      for (std::size_t k = 0; k < names.size(); ++k) {
        if ((k >= tier_res.accepted.size() || !tier_res.accepted[k]) &&
            tiers_[i]->contains(names[k])) {
          (void)tiers_[i]->remove(names[k], now);
        }
      }
    }
    // The caller waits for the fastest tier that accepted anything.
    if (tier_res.stored > 0 && (!any || tier_res.latency_s < fastest)) {
      fastest = tier_res.latency_s;
      any = true;
    }
    if (i + 1 == tiers_.size()) {
      res.stored = tier_res.stored;
      res.accepted = std::move(tier_res.accepted);
    }
  }
  // No tier accepted: the caller learns the write failed only once every
  // tier's stream has refused it, as in write-back.
  res.latency_s = any ? fastest : slowest;
  units::Bytes written = 0;
  for (std::size_t k = 0; k < names.size(); ++k) {
    if (k < res.accepted.size() && res.accepted[k]) written += logicals[k];
  }
  const MutexLock lock(mu_);
  ++stats_.batches;
  stats_.puts += names.size();
  stats_.rejected_puts += names.size() - res.stored;
  stats_.bytes_written += written;
  stats_.fees_usd += res.request_fee_usd;
  return res;
}

GetResult TieredColdStore::get(const std::string& name, double now) {
  GetResult res;
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    auto tier_res = tiers_[i]->get(name, now + res.latency_s);
    res.latency_s += tier_res.latency_s;
    res.request_fee_usd += tier_res.request_fee_usd;
    if (!tier_res.found) continue;
    res.found = true;
    res.blob = std::move(tier_res.blob);
    res.logical_bytes = tier_res.logical_bytes;
    if (config_.promote_on_hit && i > 0 && res.blob != nullptr) {
      // Async promotion into the faster tiers: fees accrue, the request
      // does not wait. Stamped at read-*completion* time — the bytes to
      // promote only exist once the deep-tier transfer finishes, so the
      // promotion (and the throttle token it consumes) must not jump the
      // queue ahead of the request that produced them.
      const double read_done = now + res.latency_s;
      for (std::size_t j = 0; j < i; ++j) {
        const auto promo = tiers_[j]->put(name, Blob(*res.blob),
                                          res.logical_bytes, read_done);
        res.request_fee_usd += promo.request_fee_usd;
      }
    }
    break;
  }
  const MutexLock lock(mu_);
  ++stats_.gets;
  stats_.bytes_read += res.found ? res.logical_bytes : 0;
  stats_.fees_usd += res.request_fee_usd;
  return res;
}

bool TieredColdStore::remove(const std::string& name, double now) {
  bool removed = false;
  for (auto* tier : tiers_) removed = tier->remove(name, now) || removed;
  const MutexLock lock(mu_);
  clear_dirty_locked(name);
  ++stats_.removes;
  return removed;
}

bool TieredColdStore::contains(const std::string& name) const {
  return std::any_of(
      tiers_.begin(), tiers_.end(),
      [&](const StorageBackend* t) { return t->contains(name); });
}

units::Bytes TieredColdStore::stored_logical_bytes() const {
  // Deduplicated logical occupancy: the deepest tier plus dirty objects
  // resident only above it. Counting just the deep tier would make every
  // un-flushed write-back object invisible while dirty_count() is nonzero.
  units::Bytes total = tiers_.back()->stored_logical_bytes();
  const MutexLock lock(mu_);
  for (const auto& [dirty_name, info] : dirty_) {
    if (!tiers_.back()->contains(dirty_name)) total += info.bytes;
  }
  return total;
}

units::Bytes TieredColdStore::capacity_bytes() const {
  if (config_.write_mode == WriteMode::kWriteThrough) {
    // Durability is authoritative in the deepest tier: a put it refuses is
    // refused overall, so its bound is the composition's bound.
    return tiers_.back()->capacity_bytes();
  }
  // Write-back: the first accepting tier holds the only copy, so distinct
  // objects can be resident in different tiers. Any auto-scaling tier
  // (capacity 0) makes the composition unbounded.
  units::Bytes total = 0;
  for (const auto* tier : tiers_) {
    const units::Bytes cap = tier->capacity_bytes();
    if (cap == 0) return 0;
    total += cap;
  }
  return total;
}

double TieredColdStore::idle_cost(double seconds) const {
  double total = 0.0;
  for (const auto* tier : tiers_) total += tier->idle_cost(seconds);
  return total;
}

std::string TieredColdStore::name() const {
  std::string composed = "tiered(";
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (i > 0) composed += " -> ";
    composed += tiers_[i]->name();
  }
  composed += ")";
  return composed;
}

OpStats TieredColdStore::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

bool TieredColdStore::set_throttle(const Throttle::Config& config,
                                   double now) {
  bool any = false;
  for (auto* const tier : tiers_) any = tier->set_throttle(config, now) || any;
  return any;
}

StorageBackend::FlushResult TieredColdStore::flush_window(
    double now, double dirty_before, std::size_t max_objects) {
  FlushResult result;
  struct Candidate {
    std::string name;
    units::Bytes bytes = 0;
    double since_s = 0.0;
  };
  std::vector<Candidate> drain;
  {
    const MutexLock lock(mu_);
    drain.reserve(dirty_.size());
    for (const auto& [dirty_name, info] : dirty_) {
      if (info.since_s <= dirty_before) {
        drain.push_back(Candidate{dirty_name, info.bytes, info.since_s});
      }
    }
  }
  if (drain.empty() || tiers_.size() < 2) return result;
  // Oldest-first (name tie-break): deterministic regardless of hash-map
  // iteration, and a capped drain retires the oldest durability debt first
  // — exactly what an age-threshold scheduler needs.
  std::sort(drain.begin(), drain.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.since_s != b.since_s ? a.since_s < b.since_s
                                            : a.name < b.name;
            });
  if (max_objects > 0 && drain.size() > max_objects) drain.resize(max_objects);
  {
    const MutexLock lock(mu_);
    for (const auto& candidate : drain) clear_dirty_locked(candidate.name);
  }
  // Each dirty object is read from the shallowest tier still holding it.
  // Drain reads go through the tier's normal read path on purpose: a real
  // drain does occupy the device/endpoint, so the reads belong in its op
  // ledger (and its LRU recency — flushing keeps dirty data warm).
  std::vector<PutRequest> staged;
  // Names + sizes + stamps survive the batch move below (a refused drain
  // re-enters the dirty map with its logical size and original stamp).
  std::vector<Candidate> staged_info;
  staged.reserve(drain.size());
  staged_info.reserve(drain.size());
  for (const auto& candidate : drain) {
    bool found = false;
    for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
      if (!tiers_[i]->contains(candidate.name)) continue;
      auto got = tiers_[i]->get(candidate.name, now);
      if (!got.found) break;
      result.request_fee_usd += got.request_fee_usd;
      staged.push_back(
          PutRequest{candidate.name, Blob(*got.blob), got.logical_bytes});
      staged_info.push_back(
          Candidate{candidate.name, got.logical_bytes, candidate.since_s});
      found = true;
      break;
    }
    if (!found) {
      // Evicted from every caching tier before the drain: the bytes are
      // gone — write-back's crash-consistency window. Counted, never
      // silent: a nonzero dropped_dirty_count() means flushes are not
      // keeping up with the fast tier's eviction rate.
      const MutexLock lock(mu_);
      ++dropped_dirty_;
    }
  }
  if (staged.empty()) return result;
  // Durability lives in the deepest tier; the middle tiers are caches that
  // refill via promotion. A refused drain (bounded deepest tier, full)
  // stays dirty so a later flush retries instead of silently losing it.
  const auto res = tiers_.back()->put_batch(std::move(staged), now);
  result.drained = res.stored;
  result.request_fee_usd += res.request_fee_usd;
  const MutexLock lock(mu_);
  stats_.fees_usd += result.request_fee_usd;
  for (std::size_t k = 0; k < staged_info.size(); ++k) {
    if (k < res.accepted.size() && res.accepted[k]) {
      result.drained_bytes += staged_info[k].bytes;
      continue;
    }
    ++result.refused;
    result.refused_bytes += staged_info[k].bytes;
    // The debt keeps its original dirty-since stamp: the durable tier has
    // been stale since the ack, not since this failed retry.
    mark_dirty_refused_locked(staged_info[k].name, staged_info[k].bytes,
                              staged_info[k].since_s);
  }
  return result;
}

StorageBackend::DirtyWindow TieredColdStore::dirty_window() const {
  // O(1) snapshot from the incremental bookkeeping: flush schedulers call
  // this on every ingest observation, so it must not rescan the map.
  const MutexLock lock(mu_);
  DirtyWindow window;
  window.objects = dirty_.size();
  window.bytes = dirty_bytes_;
  if (!dirty_stamps_.empty()) window.oldest_since_s = *dirty_stamps_.begin();
  return window;
}

StorageBackend::CrashResult TieredColdStore::crash(double now) {
  CrashResult result;
  std::vector<std::string> lost;
  {
    const MutexLock lock(mu_);
    lost.reserve(dirty_.size());
    for (const auto& [dirty_name, info] : dirty_) {
      lost.push_back(dirty_name);
      ++result.lost_objects;
      result.lost_bytes += info.bytes;
    }
    dirty_.clear();
    dirty_bytes_ = 0;
    dirty_stamps_.clear();
  }
  // Drop the caching tiers' copies of the lost window (deterministic
  // order); reads now revert to the deepest tier's last flushed version or
  // miss. The sim has no wipe primitive, so the loss is modelled as
  // removes — clean cached copies survive, because only the dirty window's
  // loss breaks an acknowledgement.
  std::sort(lost.begin(), lost.end());
  for (const auto& lost_name : lost) {
    for (std::size_t i = 0; i + 1 < tiers_.size(); ++i) {
      if (tiers_[i]->contains(lost_name)) {
        (void)tiers_[i]->remove(lost_name, now);
      }
    }
  }
  return result;
}

void TieredColdStore::mark_dirty_locked(const std::string& name,
                                        units::Bytes logical, double now) {
  const auto [it, inserted] = dirty_.try_emplace(name, Dirty{logical, now});
  if (inserted) {
    dirty_bytes_ += logical;
    dirty_stamps_.insert(now);
    return;
  }
  // Overwrite of an already-dirty object: new size, original stamp — the
  // deep tier has been stale since the first un-flushed ack.
  dirty_bytes_ += logical - it->second.bytes;
  it->second.bytes = logical;
}

void TieredColdStore::clear_dirty_locked(const std::string& name) {
  const auto it = dirty_.find(name);
  if (it == dirty_.end()) return;
  dirty_bytes_ -= it->second.bytes;
  const auto stamp = dirty_stamps_.find(it->second.since_s);
  if (stamp != dirty_stamps_.end()) dirty_stamps_.erase(stamp);
  dirty_.erase(it);
}

void TieredColdStore::mark_dirty_refused_locked(const std::string& name,
                                                units::Bytes logical,
                                                double since) {
  // Insert-if-absent: a put that re-dirtied the object while the drain was
  // in flight recorded a newer size (and its own stamp) — keep it.
  const auto [it, inserted] = dirty_.try_emplace(name, Dirty{logical, since});
  (void)it;
  if (inserted) {
    dirty_bytes_ += logical;
    dirty_stamps_.insert(since);
  }
}

std::size_t TieredColdStore::dirty_count() const {
  const MutexLock lock(mu_);
  return dirty_.size();
}

std::uint64_t TieredColdStore::dropped_dirty_count() const {
  const MutexLock lock(mu_);
  return dropped_dirty_;
}

}  // namespace flstore::backend
