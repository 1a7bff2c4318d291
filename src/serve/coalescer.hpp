// Single-flight deduplication of cold-store fetches (the serving plane's
// thundering-herd guard).
//
// When a training round slides out of every shard's cache, a burst of
// requests that need the same object would each pay the object store's
// per-request fee and full transfer time. The Coalescer tracks fetches
// *in simulated time*: a fetch started at t with transfer latency L is "in
// flight" until t + L, and any shard that misses on the same key inside
// that window joins the flight — it pays no request fee and only waits out
// the remaining latency, exactly like piggybacking on the leader's stream.
//
// Windows are defined by the simulation clock, not wall-clock overlap, so
// coalescing triggers whenever *virtual* concurrency exists — which is what
// the cost model must capture (the simulator executes a 20-second transfer
// in microseconds of wall time).
//
// Thread-safe for defense in depth, but the serving plane gives each tenant
// its own Coalescer (cold names are tenant-namespaced, so instances would
// share no keys — and a shared map would let one tenant's pruning clock
// evict another's still-in-flight windows). Within a tenant all accesses
// come from one sequential discrete-event task, so per-request results are
// deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/mutex.hpp"
#include "core/cold_fetch.hpp"
#include "obs/trace.hpp"

namespace flstore::serve {

class Coalescer final : public core::ColdFetchInterceptor {
 public:
  struct Stats {
    std::uint64_t leads = 0;         ///< fetches actually issued
    std::uint64_t joins = 0;         ///< misses served by an in-flight fetch
    double fees_saved_usd = 0.0;     ///< request fees the joins did not pay
    double wait_saved_s = 0.0;       ///< latency the joins did not wait
  };

  /// ColdFetchInterceptor: resolve `object_name` at simulated time `now`,
  /// joining an in-flight fetch when one covers `now`.
  [[nodiscard]] backend::GetResult fetch(const std::string& object_name,
                                         backend::StorageBackend& cold,
                                         double now) override EXCLUDES(mu_);

  [[nodiscard]] Stats stats() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return stats_;
  }

  /// Drop all in-flight windows (e.g. between benchmark phases). The
  /// statistics are cumulative and unaffected — callers wanting per-phase
  /// numbers snapshot stats() around the phase (ShardedStore does).
  void reset() EXCLUDES(mu_);

  /// Emit "coalesce.lead"/"coalesce.join" spans on `tracer` (non-owning;
  /// nullptr disables). Lead spans cover the real transfer and parent the
  /// backend's own op span; join spans cover only the residual wait.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 private:
  struct InFlight {
    double start_s = 0.0;
    double ready_s = 0.0;
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
    double fee_usd = 0.0;      ///< what the leader paid (a join saves this)
    double latency_s = 0.0;    ///< the leader's full transfer time
  };

  /// Set-once wiring (add_tenant, before any traffic); unguarded by design.
  obs::Tracer* tracer_ = nullptr;
  mutable Mutex mu_;
  std::unordered_map<std::string, InFlight> inflight_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::serve
