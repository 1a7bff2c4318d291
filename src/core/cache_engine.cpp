#include "core/cache_engine.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace flstore::core {

CacheEngine::VictimKey CacheEngine::victim_key(const MetadataKey& key,
                                               const Entry& e) const {
  VictimKey vk;
  vk.pinned = e.pinned;
  vk.key = key;
  if (config_.round_aware_eviction) {
    // Oldest round first; recency only breaks ties within a round. Rounds
    // are shifted into unsigned space so kNoRound (-1) sorts before 0.
    vk.primary = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(key.round) -
        static_cast<std::int64_t>(std::numeric_limits<RoundId>::min()));
    vk.secondary = e.last_access;
    return vk;
  }
  switch (config_.eviction_order) {
    case PolicyMode::kLfu:
      vk.primary = e.accesses;
      vk.secondary = e.last_access;  // equal frequency: oldest touch first
      break;
    case PolicyMode::kFifo:
      vk.primary = e.inserted;
      break;
    default:
      vk.primary = e.last_access;  // LRU for everything else
      break;
  }
  return vk;
}

CacheEngine::LookupResult CacheEngine::lookup(
    const MetadataKey& key, double now, std::optional<fed::PolicyClass> cls) {
  ++clock_;
  const auto miss_partition =
      cls.has_value() ? fed::class_index(*cls) : kSharedPartition;
  LookupResult res;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    ++class_stats_[miss_partition].misses;
    return res;
  }
  auto access = pool_->get(it->second.group, key.object_name());
  res.failover_delay_s = access.failover_delay_s;
  if (!access.ok) {
    // The group died (or a replica lost the object): index entry is stale.
    erase_entry(it);
    ++misses_;
    ++class_stats_[miss_partition].misses;
    return res;
  }
  reorder(key, it->second, [this](Entry& e) {
    e.last_access = clock_;
    ++e.accesses;
  });
  ++hits_;
  // Hits and misses book under the same class when the caller names one,
  // so per-class hit *rates* are consistent even when a request is served
  // from another class's partition (e.g. P3 reading a P2 ingest entry).
  ++class_stats_[cls.has_value() ? fed::class_index(*cls)
                                 : it->second.partition]
        .hits;
  res.hit = true;
  res.group = it->second.group;
  res.function = access.function;
  res.blob = std::move(access.blob);
  res.available_at = std::max(it->second.available_at, now);
  return res;
}

CacheEngine::ReadView CacheEngine::read_only_lookup(const MetadataKey& key,
                                                    double now) const {
  ReadView view;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return view;
  }
  auto access = pool_->get(it->second.group, key.object_name());
  if (!access.ok) {
    return view;  // stale entry
  }
  view.hit = true;
  view.blob = std::move(access.blob);
  view.available_at = std::max(it->second.available_at, now);
  return view;
}

void CacheEngine::apply_deferred(const std::vector<DeferredAccess>& batch) {
  for (const auto& a : batch) {
    clock_ += a.count;
    if (!a.hit) {
      // The key was not in the index when read; a put that raced in after
      // the read leaves its entry resident.
      misses_ += a.count;
      class_stats_[kSharedPartition].misses += a.count;
      continue;
    }
    hits_ += a.count;
    const auto it = index_.find(a.key);
    if (it == index_.end()) {
      // Evicted between the read and this drain; the bytes were served, so
      // the hit books (under the shared partition — the entry that could
      // have attributed it is gone).
      class_stats_[kSharedPartition].hits += a.count;
      continue;
    }
    class_stats_[it->second.partition].hits += a.count;
    reorder(a.key, it->second, [this, &a](Entry& e) {
      e.last_access = clock_;
      e.accesses += a.count;
    });
  }
}

bool CacheEngine::cache_object(const MetadataKey& key,
                               std::shared_ptr<const Blob> blob,
                               units::Bytes logical_bytes, double now,
                               double available_at, bool pinned,
                               bool opportunistic,
                               std::optional<fed::PolicyClass> cls) {
  FLSTORE_CHECK(blob != nullptr);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: content is immutable per key in FL metadata, so this bumps
    // recency and frequency (a re-fill is an access of the object), and
    // moves the availability time forward to `now` when a copy in hand
    // beats a transfer still in flight — whichever copy lands first wins.
    // A (non-speculative) refresh that names a class adopts the entry into
    // that class's partition: a P3 track re-caching a P2 ingest entry must
    // be charged to (and protected by) the P3 budget, not evicted by P2's
    // churn. Opportunistic refreshes never adopt — adoption can evict the
    // target partition's residents, and a prefetch must not displace
    // resident data.
    ++clock_;
    auto& e = it->second;
    auto target = !opportunistic && cls.has_value()
                      ? fed::class_index(*cls)
                      : std::size_t{e.partition};
    if (target != e.partition && target < fed::kPolicyClassCount &&
        config_.class_capacity[target] > 0 &&
        e.logical_bytes > config_.class_capacity[target]) {
      // The object can never fit the target budget: adopting it would wipe
      // the target's working set and still leave it over budget. Keep it
      // home (mirrors the insert path's too-big rejection).
      target = e.partition;
    }
    auto node = order_[e.partition].extract(victim_key(key, e));
    FLSTORE_CHECK(!node.empty());
    if (target != e.partition) {
      auto& from = class_stats_[e.partition];
      FLSTORE_CHECK(from.bytes >= e.logical_bytes && from.objects > 0);
      from.bytes -= e.logical_bytes;
      --from.objects;
      e.partition = static_cast<std::uint8_t>(target);
      class_stats_[target].bytes += e.logical_bytes;
      ++class_stats_[target].objects;
    }
    e.last_access = clock_;
    ++e.accesses;
    e.available_at = std::min(e.available_at, std::max(now, available_at));
    e.pinned = e.pinned || pinned;
    node.value() = victim_key(key, e);
    order_[target].insert(std::move(node));
    // The adopted bytes may push the new partition over budget: evict its
    // victims, but never the entry that was just refreshed. The guard also
    // stops when the adoptee is the cheapest remaining victim (an unpinned
    // adoptee among pinned residents); the partition then runs over budget
    // by at most the adoptee's size until later pressure corrects it.
    const auto budget = target < fed::kPolicyClassCount
                            ? config_.class_capacity[target]
                            : units::Bytes{0};
    if (budget > 0 && !opportunistic) {
      while (class_stats_[target].bytes > budget &&
             !order_[target].empty() && order_[target].begin()->key != key) {
        evict_victim(target);
      }
    }
    return true;
  }

  FLSTORE_CHECK(ResidencyTable::packable(key));
  const auto partition =
      cls.has_value() ? fed::class_index(*cls) : kSharedPartition;
  const auto class_budget = partition < fed::kPolicyClassCount
                                ? config_.class_capacity[partition]
                                : units::Bytes{0};
  if (class_budget > 0 && logical_bytes > class_budget) return false;
  if (config_.capacity > 0 && logical_bytes > config_.capacity) return false;
  if (opportunistic) {
    // Prefetches never displace resident data.
    if (class_budget > 0 &&
        class_stats_[partition].bytes + logical_bytes > class_budget) {
      return false;
    }
    if (config_.capacity > 0 && bytes_ + logical_bytes > config_.capacity) {
      return false;
    }
  }
  if (class_budget > 0) {
    while (class_stats_[partition].bytes + logical_bytes > class_budget &&
           !order_[partition].empty()) {
      evict_victim(partition);
    }
    if (class_stats_[partition].bytes + logical_bytes > class_budget) {
      return false;
    }
  }
  if (config_.capacity > 0) {
    while (bytes_ + logical_bytes > config_.capacity && !index_.empty()) {
      evict_victim(kPartitions);
    }
    if (bytes_ + logical_bytes > config_.capacity) return false;
  }

  const auto group = pool_->put(key.object_name(), std::move(blob),
                                logical_bytes);
  if (!group.has_value()) return false;
  ++clock_;
  Entry e;
  e.group = *group;
  e.logical_bytes = logical_bytes;
  e.available_at = std::max(available_at, now);
  e.last_access = clock_;
  e.inserted = clock_;
  e.accesses = 1;  // write-allocate counts as the first access (LFU churn)
  e.pinned = pinned;
  e.partition = static_cast<std::uint8_t>(partition);
  order_[partition].insert(victim_key(key, e));
  index_.emplace(key, e);
  residency_.insert(key);
  bytes_ += logical_bytes;
  class_stats_[partition].bytes += logical_bytes;
  ++class_stats_[partition].objects;
  return true;
}

bool CacheEngine::evict(const MetadataKey& key, bool include_pinned) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (it->second.pinned && !include_pinned) return false;
  erase_entry(it);
  return true;
}

void CacheEngine::erase_entry(Index::iterator it) {
  const auto& e = it->second;
  pool_->evict(e.group, it->first.object_name());
  FLSTORE_CHECK(bytes_ >= e.logical_bytes);
  bytes_ -= e.logical_bytes;
  auto& stats = class_stats_[e.partition];
  FLSTORE_CHECK(stats.bytes >= e.logical_bytes && stats.objects > 0);
  stats.bytes -= e.logical_bytes;
  --stats.objects;
  order_[e.partition].erase(victim_key(it->first, e));
  residency_.erase(it->first);
  index_.erase(it);
}

void CacheEngine::evict_victim(std::size_t partition) {
  std::optional<MetadataKey> key;
  if (partition < kPartitions) {
    FLSTORE_CHECK(!order_[partition].empty());
    key = order_[partition].begin()->key;
  } else {
    // Global pressure: the same cheapest-across-partitions choice
    // peek_victim exposes, so the tests' oracle and the eviction path can
    // never diverge. The pinned flag leads the ordering, so no pinned
    // entry is taken while any partition still holds an unpinned one.
    key = peek_victim();
    FLSTORE_CHECK(key.has_value());
  }
  const auto it = index_.find(*key);
  FLSTORE_CHECK(it != index_.end());
  if (it->second.pinned) ++pinned_forced_evictions_;
  ++forced_evictions_;
  erase_entry(it);
}

std::optional<MetadataKey> CacheEngine::peek_victim() const {
  const VictimKey* best = nullptr;
  for (const auto& order : order_) {
    if (order.empty()) continue;
    if (best == nullptr || *order.begin() < *best) best = &*order.begin();
  }
  if (best == nullptr) return std::nullopt;
  return best->key;
}

void CacheEngine::set_class_capacity(
    const std::array<units::Bytes, fed::kPolicyClassCount>& budgets) {
  config_.class_capacity = budgets;
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    class_stats_[c].budget = budgets[c];
    if (budgets[c] == 0) continue;
    while (class_stats_[c].bytes > budgets[c] && !order_[c].empty()) {
      evict_victim(c);
    }
  }
}

std::vector<CacheEngine::ResidentEntry> CacheEngine::resident_entries() const {
  std::vector<ResidentEntry> entries;
  entries.reserve(index_.size());
  for (const auto& [key, e] : index_) {
    entries.push_back(ResidentEntry{key, e.logical_bytes, e.pinned,
                                    e.partition});
  }
  std::sort(entries.begin(), entries.end(),
            [](const ResidentEntry& a, const ResidentEntry& b) {
              return a.key < b.key;
            });
  return entries;
}

std::size_t CacheEngine::drop_group(GroupId group) {
  std::size_t dropped = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.group == group) {
      const auto next = std::next(it);
      erase_entry(it);
      it = next;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t CacheEngine::bookkeeping_bytes() const noexcept {
  // Hash-map node: key + entry + bucket overhead (~2 pointers). Victim-set
  // node: ordering key + red-black links (~3 pointers + color word).
  return index_.size() * (sizeof(MetadataKey) + sizeof(Entry) + 2 * sizeof(void*)) +
         index_.bucket_count() * sizeof(void*) +
         index_.size() * (sizeof(VictimKey) + 4 * sizeof(void*));
}

}  // namespace flstore::core
