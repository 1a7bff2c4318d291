// Cold-store read-through interception point.
//
// FLStore's miss path normally issues a synchronous StorageBackend::get and
// pays the per-request fee. The serving plane (src/serve/) injects a
// single-flight Coalescer here so concurrent shards that miss on the same
// cold object share one fetch — one request fee, one transfer — instead of
// paying N times (the classic thundering-herd fix, applied to the paper's
// object-store fee model).
//
// The interceptor sees the *namespaced* object name (tenant prefix applied),
// the shared cold backend, and the simulated time of the access;
// implementations must be safe to call from multiple shard threads.
#pragma once

#include <string>

#include "backend/storage_backend.hpp"

namespace flstore::core {

class ColdFetchInterceptor {
 public:
  virtual ~ColdFetchInterceptor() = default;

  /// Resolve `object_name` against `cold` at simulated time `now`. The
  /// result reads like cold.get's: latency_s is the time until the bytes
  /// are available, and request_fee_usd is 0 for a piggybacked (coalesced)
  /// read.
  [[nodiscard]] virtual backend::GetResult fetch(
      const std::string& object_name, backend::StorageBackend& cold,
      double now) = 0;
};

}  // namespace flstore::core
