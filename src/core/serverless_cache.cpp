#include "core/serverless_cache.hpp"

#include <algorithm>

namespace flstore::core {

namespace {

/// Detection timeout added per dead member tried before failover.
constexpr double kFailoverTimeoutS = 0.5;

}  // namespace

const FunctionInstance* ServerlessCachePool::first_warm(
    const Group& g) const {
  for (const auto id : g.members) {
    const auto& fn = runtime_->instance(id);
    if (fn.warm()) return &fn;
  }
  return nullptr;
}

GroupId ServerlessCachePool::spawn_group() {
  Group g;
  g.members.reserve(static_cast<std::size_t>(config_.replicas));
  for (int i = 0; i < config_.replicas; ++i) {
    g.members.push_back(runtime_->spawn(config_.function_memory));
  }
  groups_.push_back(std::move(g));
  return static_cast<GroupId>(groups_.size() - 1);
}

std::optional<GroupId> ServerlessCachePool::put(
    const std::string& name, std::shared_ptr<const Blob> blob,
    units::Bytes logical_bytes) {
  FLSTORE_CHECK(blob != nullptr);
  // First fit over existing groups. The write goes to *every* warm member,
  // so the group only fits when each warm replica either already holds the
  // object or has room — replicas can drift apart (partial failures,
  // inconsistent evictions), and admitting on the first member's headroom
  // alone would overflow a fuller sibling.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    bool any_warm = false;
    bool fits_all = true;
    for (const auto id : groups_[g].members) {
      const auto& fn = runtime_->instance(id);
      if (!fn.warm()) continue;
      any_warm = true;
      if (!fn.has_object(name) && fn.free_bytes() < logical_bytes) {
        fits_all = false;
        break;
      }
    }
    if (!any_warm || !fits_all) continue;
    for (const auto id : groups_[g].members) {
      auto& fn = runtime_->instance(id);
      if (fn.warm()) fn.put_object(name, blob, logical_bytes);
    }
    return static_cast<GroupId>(g);
  }
  if (config_.max_groups > 0 &&
      static_cast<std::int32_t>(groups_.size()) >= config_.max_groups) {
    return std::nullopt;
  }
  if (logical_bytes > config_.function_memory) return std::nullopt;
  const auto g = spawn_group();
  for (const auto id : groups_[static_cast<std::size_t>(g)].members) {
    runtime_->instance(id).put_object(name, blob, logical_bytes);
  }
  return g;
}

ServerlessCachePool::Access ServerlessCachePool::get(
    GroupId group, const std::string& name) const {
  FLSTORE_CHECK(group >= 0 &&
                static_cast<std::size_t>(group) < groups_.size());
  Access access;
  for (const auto id : groups_[static_cast<std::size_t>(group)].members) {
    const auto& fn = runtime_->instance(id);
    if (!fn.warm()) {
      // The request tracker only learns a replica is gone when it times out.
      access.failover_delay_s += kFailoverTimeoutS;
      continue;
    }
    auto blob = fn.get_object(name);
    if (blob != nullptr) {
      access.ok = true;
      access.function = id;
      access.blob = std::move(blob);
      return access;
    }
    return access;  // warm member without the object: index is stale
  }
  return access;  // everyone dead
}

void ServerlessCachePool::evict(GroupId group, const std::string& name) {
  FLSTORE_CHECK(group >= 0 &&
                static_cast<std::size_t>(group) < groups_.size());
  for (const auto id : groups_[static_cast<std::size_t>(group)].members) {
    auto& fn = runtime_->instance(id);
    if (fn.warm()) fn.evict_object(name);
  }
}

bool ServerlessCachePool::reclaim_member(GroupId group, int member) {
  FLSTORE_CHECK(group >= 0 &&
                static_cast<std::size_t>(group) < groups_.size());
  auto& g = groups_[static_cast<std::size_t>(group)];
  FLSTORE_CHECK(member >= 0 &&
                static_cast<std::size_t>(member) < g.members.size());
  runtime_->reclaim(g.members[static_cast<std::size_t>(member)]);
  return first_warm(g) == nullptr;
}

bool ServerlessCachePool::repair(GroupId group) {
  FLSTORE_CHECK(group >= 0 &&
                static_cast<std::size_t>(group) < groups_.size());
  auto& g = groups_[static_cast<std::size_t>(group)];
  const auto* survivor = first_warm(g);
  if (survivor == nullptr) return false;
  for (auto& id : g.members) {
    if (runtime_->instance(id).warm()) continue;
    const auto fresh = runtime_->spawn(config_.function_memory);
    auto& fn = runtime_->instance(fresh);
    for (const auto& name : survivor->object_names()) {
      fn.put_object(name, survivor->get_object(name),
                    survivor->object_size(name));
    }
    id = fresh;
  }
  return true;
}

std::optional<ServerlessCachePool::ShardedPlacement>
ServerlessCachePool::put_sharded(const std::string& name,
                                 std::shared_ptr<const Blob> blob,
                                 units::Bytes logical_bytes) {
  FLSTORE_CHECK(blob != nullptr);
  FLSTORE_CHECK(logical_bytes > 0);
  // Shards sized to fit comfortably in one function (leave ~20% headroom
  // for the runtime and activation buffers, as §D's pipeline plan needs).
  const auto shard_cap = static_cast<units::Bytes>(
      static_cast<double>(config_.function_memory) * 0.8);
  const auto shard_count = (logical_bytes + shard_cap - 1) / shard_cap;

  ShardedPlacement placement;
  placement.shard_bytes = shard_cap;
  placement.total_bytes = logical_bytes;
  units::Bytes remaining = logical_bytes;
  for (units::Bytes i = 0; i < shard_count; ++i) {
    const auto bytes = std::min(remaining, shard_cap);
    remaining -= bytes;
    const auto shard_name = name + "#" + std::to_string(i);
    const auto group = put(shard_name, blob, bytes);
    if (!group.has_value()) {
      // Roll back what was placed (bounded pool ran out).
      for (units::Bytes j = 0; j < i; ++j) {
        evict(placement.shards[static_cast<std::size_t>(j)],
              name + "#" + std::to_string(j));
      }
      return std::nullopt;
    }
    placement.shards.push_back(*group);
  }
  return placement;
}

ServerlessCachePool::ShardedAccess ServerlessCachePool::get_sharded(
    const ShardedPlacement& placement, const std::string& name) const {
  ShardedAccess access;
  for (std::size_t i = 0; i < placement.shards.size(); ++i) {
    const auto shard = get(placement.shards[i],
                           name + "#" + std::to_string(i));
    access.failover_delay_s += shard.failover_delay_s;
    if (!shard.ok) return access;  // one missing shard breaks the pipeline
    ++access.shards_read;
  }
  access.ok = access.shards_read ==
              static_cast<int>(placement.shards.size());
  return access;
}

bool ServerlessCachePool::group_alive(GroupId g) const {
  if (g < 0 || static_cast<std::size_t>(g) >= groups_.size()) return false;
  return first_warm(groups_[static_cast<std::size_t>(g)]) != nullptr;
}

int ServerlessCachePool::warm_members(GroupId g) const {
  FLSTORE_CHECK(g >= 0 && static_cast<std::size_t>(g) < groups_.size());
  int warm = 0;
  for (const auto id : groups_[static_cast<std::size_t>(g)].members) {
    if (runtime_->instance(id).warm()) ++warm;
  }
  return warm;
}

units::Bytes ServerlessCachePool::group_free(GroupId g) const {
  FLSTORE_CHECK(g >= 0 && static_cast<std::size_t>(g) < groups_.size());
  const auto* warm = first_warm(groups_[static_cast<std::size_t>(g)]);
  return warm == nullptr ? 0 : warm->free_bytes();
}

std::optional<std::pair<GroupId, int>> ServerlessCachePool::locate_function(
    FunctionId id) const {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& members = groups_[g].members;
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (members[m] == id) {
        return std::make_pair(static_cast<GroupId>(g), static_cast<int>(m));
      }
    }
  }
  return std::nullopt;
}

std::optional<std::pair<GroupId, int>> ServerlessCachePool::locate_rank(
    std::int32_t rank) const {
  std::int32_t seen = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto members =
        static_cast<std::int32_t>(groups_[g].members.size());
    if (rank < seen + members) {
      return std::make_pair(static_cast<GroupId>(g), rank - seen);
    }
    seen += members;
  }
  return std::nullopt;
}

}  // namespace flstore::core
