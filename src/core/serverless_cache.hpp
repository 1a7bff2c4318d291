// The serverless cache pool: replica groups of function instances that hold
// cached FL metadata *and* execute the workloads on it (§4.2, §4.5).
//
// Objects are placed at client-model granularity into a group with free
// space (groups are spawned on demand — that is the "highly scalable"
// property of §4.5). Every object write is replicated to all members of its
// group; a reclaimed member fails over to the next warm one, and a fully
// dead group loses its objects (the re-fetch path of Fig 14).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "serverless/function_runtime.hpp"

namespace flstore::core {

using GroupId = std::int32_t;
inline constexpr GroupId kNoGroup = -1;

class ServerlessCachePool {
 public:
  struct Config {
    units::Bytes function_memory = 4 * units::GB;
    int replicas = 1;  ///< function instances per group (FI in Fig 13)
    /// Max groups (0 = unbounded, spawn on demand).
    std::int32_t max_groups = 0;
  };

  ServerlessCachePool(Config config, FunctionRuntime& runtime)
      : config_(config), runtime_(&runtime) {
    FLSTORE_CHECK(config.replicas >= 1);
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Store an object into a group with room (creating one if allowed).
  /// Returns the group, or nullopt if capacity is exhausted (bounded pools).
  std::optional<GroupId> put(const std::string& name,
                             std::shared_ptr<const Blob> blob,
                             units::Bytes logical_bytes);

  struct Access {
    bool ok = false;
    FunctionId function = kNoFunction;  ///< warm member that served
    std::shared_ptr<const Blob> blob;
    double failover_delay_s = 0.0;  ///< timeouts burned on dead members
  };
  /// Read an object from a group, failing over across replicas.
  [[nodiscard]] Access get(GroupId group, const std::string& name) const;

  /// Remove an object from all replicas of its group.
  void evict(GroupId group, const std::string& name);

  /// Reclaim one member function (fault injection). Returns true if the
  /// whole group is now dead (its objects are lost).
  bool reclaim_member(GroupId group, int member);

  /// Respawn dead members of a group, copying state from a warm survivor.
  /// No-op (returns false) when every member is dead — data is gone.
  bool repair(GroupId group);

  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] bool group_alive(GroupId g) const;
  [[nodiscard]] int warm_members(GroupId g) const;
  /// Free bytes in the group's first warm member (all replicas mirror).
  [[nodiscard]] units::Bytes group_free(GroupId g) const;

  [[nodiscard]] FunctionRuntime& runtime() noexcept { return *runtime_; }

  /// Map a flat function-rank (0 = first spawned) onto (group, member);
  /// used by the Zipf fault injector.
  [[nodiscard]] std::optional<std::pair<GroupId, int>> locate_rank(
      std::int32_t rank) const;

  /// Find the (group, member) slot currently occupied by a function id.
  [[nodiscard]] std::optional<std::pair<GroupId, int>> locate_function(
      FunctionId id) const;

  // --- foundation-model support (Appendix D) -----------------------------
  // Objects larger than one function's memory are split into shards placed
  // on separate groups; workloads then execute pipeline-parallel across the
  // shard-holding functions.

  struct ShardedPlacement {
    std::vector<GroupId> shards;     ///< group per shard, in order
    units::Bytes shard_bytes = 0;    ///< logical bytes per shard (last may
                                     ///< be smaller)
    units::Bytes total_bytes = 0;
  };

  /// Place a large object as `name#0..name#k-1`. Returns nullopt when the
  /// pool is bounded and cannot host every shard.
  std::optional<ShardedPlacement> put_sharded(
      const std::string& name, std::shared_ptr<const Blob> blob,
      units::Bytes logical_bytes);

  struct ShardedAccess {
    bool ok = false;
    double failover_delay_s = 0.0;  ///< summed across shard failovers
    int shards_read = 0;
  };
  [[nodiscard]] ShardedAccess get_sharded(const ShardedPlacement& placement,
                                          const std::string& name) const;

 private:
  struct Group {
    std::vector<FunctionId> members;
  };

  [[nodiscard]] const FunctionInstance* first_warm(const Group& g) const;
  GroupId spawn_group();

  Config config_;
  FunctionRuntime* runtime_;
  std::vector<Group> groups_;
};

}  // namespace flstore::core
