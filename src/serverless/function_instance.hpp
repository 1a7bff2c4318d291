// One serverless function instance: bounded memory that doubles as cache
// storage (InfiniCache-style) plus co-located compute (the FLStore twist).
//
// Instances are owned by the FunctionRuntime; everything here is bookkeeping
// over *logical* bytes — actual payloads are shared_ptr'd blobs, so holding
// an object in three replicas does not triple host memory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/blob.hpp"
#include "common/compute_work.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"

namespace flstore {

enum class FunctionState : std::uint8_t {
  kWarm,       ///< alive, data resident, invocable
  kReclaimed,  ///< provider took it back; data lost
};

class FunctionInstance {
 public:
  FunctionInstance(FunctionId id, units::Bytes memory_limit,
                   ComputeProfile profile)
      : id_(id), memory_limit_(memory_limit), profile_(profile) {
    FLSTORE_CHECK(memory_limit > 0);
  }

  [[nodiscard]] FunctionId id() const noexcept { return id_; }
  [[nodiscard]] FunctionState state() const noexcept { return state_; }
  [[nodiscard]] bool warm() const noexcept {
    return state_ == FunctionState::kWarm;
  }
  [[nodiscard]] units::Bytes memory_limit() const noexcept {
    return memory_limit_;
  }
  [[nodiscard]] units::Bytes used() const noexcept { return used_; }
  [[nodiscard]] units::Bytes free_bytes() const noexcept {
    return memory_limit_ - used_;
  }
  [[nodiscard]] const ComputeProfile& profile() const noexcept {
    return profile_;
  }

  [[nodiscard]] bool can_fit(units::Bytes logical) const noexcept {
    return warm() && logical <= free_bytes();
  }

  /// Store an object (fails the invariant check if it does not fit).
  void put_object(const std::string& name, std::shared_ptr<const Blob> blob,
                  units::Bytes logical_bytes);

  [[nodiscard]] bool has_object(const std::string& name) const noexcept {
    return objects_.contains(name);
  }
  /// Null when absent.
  [[nodiscard]] std::shared_ptr<const Blob> get_object(
      const std::string& name) const;
  [[nodiscard]] units::Bytes object_size(const std::string& name) const;

  bool evict_object(const std::string& name);

  [[nodiscard]] std::size_t object_count() const noexcept {
    return objects_.size();
  }
  [[nodiscard]] std::vector<std::string> object_names() const;

  /// Compute time for `work` on this instance's cores.
  [[nodiscard]] double execution_time(const ComputeWork& work) const {
    return profile_.execution_time(work);
  }

  /// Provider reclaims the instance: all cached state is lost.
  void reclaim();

  /// Earliest time this instance is free to serve a new request; managed by
  /// the experiment scheduler to model queueing on concurrent requests.
  [[nodiscard]] double busy_until() const noexcept { return busy_until_; }
  void set_busy_until(double t) noexcept { busy_until_ = t; }

 private:
  struct Stored {
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
  };

  FunctionId id_;
  units::Bytes memory_limit_;
  ComputeProfile profile_;
  FunctionState state_ = FunctionState::kWarm;
  std::unordered_map<std::string, Stored> objects_;
  units::Bytes used_ = 0;
  double busy_until_ = 0.0;
};

}  // namespace flstore
