// StorageBackend — the pluggable cold-tier seam (ROADMAP "multi-backend").
//
// FLStore's core claim is that caching on serverless compute beats both
// cloud object stores and provisioned cloud caches on latency *and* cost
// (Figs 7-10, 17). To sweep those baselines head-to-head through one code
// path, the cold tier behind core::FLStore / serve::ShardedStore is an
// abstract StorageBackend:
//
//   ObjectStoreBackend  — S3/MinIO semantics (per-request fees, GB-month
//                         storage, high per-object latency)
//   CloudCacheBackend   — ElastiCache-style provisioned nodes (node-hour
//                         keep-alive billing, millisecond access)
//   LocalSsdBackend     — NVMe-class device tier (microsecond first byte,
//                         provisioned-capacity billing)
//   TieredColdStore     — composes backends with fallback + write modes
//   ReplicatedColdStore — composes per-region backends with W-of-N quorum
//                         writes and failover reads
//
// Every operation takes the *simulated* time `now` and returns the modelled
// latency and request fee; always-on fees (storage GB-month, node-hours)
// come from idle_cost(). Capacity and throttling are part of the contract:
// a backend may reject a put (accepted=false) when full, and a configured
// ops/s throttle surfaces as extra per-op latency, never as an error.
//
// One write path: a backend implements put_batch and flush_window only. A
// put is a one-object put_batch and a flush an uncapped flush_window.
//
// Implementations must be internally synchronized: the serving plane drives
// one shared backend from many tenant timelines at once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "common/units.hpp"

namespace flstore::backend {

enum class BackendKind : std::uint8_t {
  kObjectStore,
  kCloudCache,
  kLocalSsd,
  kTiered,
  kReplicated,
};

[[nodiscard]] constexpr const char* to_string(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::kObjectStore: return "object-store";
    case BackendKind::kCloudCache: return "cloud-cache";
    case BackendKind::kLocalSsd: return "local-ssd";
    case BackendKind::kTiered: return "tiered";
    case BackendKind::kReplicated: return "replicated";
  }
  return "?";
}

struct GetResult {
  bool found = false;
  std::shared_ptr<const Blob> blob;  ///< null when !found
  units::Bytes logical_bytes = 0;
  double latency_s = 0.0;
  double request_fee_usd = 0.0;
};

/// A put's outcome: its one-object batch's acceptance, latency and fee.
struct PutResult {
  /// false when a capacity-bounded backend refused the object. The write
  /// still pays its latency (the bytes travelled before the rejection).
  bool accepted = true;
  double latency_s = 0.0;
  double request_fee_usd = 0.0;
};

/// One object of a batched multi-put.
struct PutRequest {
  std::string name;
  Blob blob;
  units::Bytes logical_bytes = 0;  ///< 0 = blob.size()
};

struct BatchPutResult {
  std::size_t stored = 0;  ///< objects accepted (== batch size unless full)
  /// One batched stream, not a sum of round trips. Like PutResult, refused
  /// items still pay their share of the stream: the transfer time covers
  /// every *attempted* byte — the bytes travelled before the rejection.
  double latency_s = 0.0;
  double request_fee_usd = 0.0;
  /// Per-item acceptance, same order as the batch (capacity-bounded tiers
  /// can reject a subset; TieredColdStore routes those to deeper tiers).
  std::vector<bool> accepted;
};

/// Cumulative per-backend operation ledger (logical bytes, like the rest of
/// the cost model).
struct OpStats {
  std::uint64_t gets = 0;
  /// Put *attempts* (accepted + rejected), batched objects included;
  /// subtract rejected_puts for successful writes.
  std::uint64_t puts = 0;
  std::uint64_t removes = 0;
  std::uint64_t batches = 0;         ///< write calls; a put is a batch of one
  std::uint64_t rejected_puts = 0;   ///< capacity refusals
  std::uint64_t throttled_ops = 0;   ///< ops that waited on the throttle
  units::Bytes bytes_read = 0;
  units::Bytes bytes_written = 0;
  double fees_usd = 0.0;        ///< request fees only (idle_cost is separate)
  double throttle_wait_s = 0.0; ///< total latency added by throttling
};

/// Token-bucket admission throttle over the *simulated* clock. Ops beyond
/// the sustained rate are not refused — they pay the queueing delay until
/// their token accrues, which is how provisioned stores actually degrade.
/// Deterministic for a monotone clock (one discrete-event timeline); under
/// the multi-tenant serving plane, cross-tenant interleaving decides who
/// waits, exactly like a real shared endpoint.
class Throttle {
 public:
  struct Config {
    double ops_per_s = 0.0;  ///< sustained admission rate; 0 = unthrottled
    double burst_ops = 32.0; ///< bucket depth (ops admitted back-to-back)
  };

  Throttle() = default;
  explicit Throttle(Config config)
      : config_(config), tokens_(config.burst_ops) {}

  /// Admit one op at `now`; returns the wait in seconds (0 when a token was
  /// available). The clock never runs backwards inside the bucket.
  double admit(double now);

  /// Live retune (the control plane re-provisioning IOPS mid-run). Accrual
  /// settles under the old rate first (the retune cannot retroactively
  /// change past admissions); accrued tokens carry over clamped to the new
  /// burst; a bucket in debt keeps its debt in *ops*, so the queued
  /// backlog drains at the new rate — exactly as a provisioned endpoint
  /// behaves after a capacity change. Turning the throttle off
  /// (ops_per_s = 0) forgives the queue — there is no rate to owe against.
  void set_config(Config config, double now);

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] bool enabled() const noexcept { return config_.ops_per_s > 0; }

 private:
  Config config_;
  double tokens_ = 0.0;
  double last_s_ = 0.0;
};

/// The interface-wide defaulting rule: logical_bytes == 0 means "the blob's
/// real size". Every backend resolves it through this one helper (resolve
/// *before* moving the blob).
[[nodiscard]] inline units::Bytes effective_logical(
    const Blob& blob, units::Bytes logical_bytes) noexcept {
  return logical_bytes == 0 ? static_cast<units::Bytes>(blob.size())
                            : logical_bytes;
}

/// Shared throttle-admission bookkeeping for backend implementations: one
/// admit, ledger updated. The caller holds the lock guarding both.
inline double admit_throttled(Throttle& throttle, OpStats& stats,
                              double now) {
  const double wait = throttle.admit(now);
  if (wait > 0.0) {
    ++stats.throttled_ops;
    stats.throttle_wait_s += wait;
  }
  return wait;
}

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Store (or overwrite) an object at simulated time `now`: a one-object
  /// put_batch, with the same admission, stream, fees and ledger.
  /// `logical_bytes` defaults to the blob size (see effective_logical).
  /// Virtual only for decorators that count calls per entry point.
  virtual PutResult put(const std::string& name, Blob blob,
                        units::Bytes logical_bytes, double now);

  /// Batched multi-put, the one write a backend implements: one admission,
  /// one streamed transfer, so the per-object first-byte cost is paid once
  /// (FLStore backs every ingested round up through it).
  virtual BatchPutResult put_batch(std::vector<PutRequest> batch,
                                   double now) = 0;

  virtual GetResult get(const std::string& name, double now) = 0;

  virtual bool remove(const std::string& name, double now) = 0;

  struct FlushResult {
    std::size_t drained = 0;            ///< objects made durable by this drain
    units::Bytes drained_bytes = 0;     ///< logical bytes those objects cover
    /// Objects the durable tier refused mid-drain (full fixed tier,
    /// throttle-bounded endpoint): they *stay dirty* for the next flush.
    /// Callers scheduling drains assert forward progress on these counts
    /// instead of polling stored_logical_bytes().
    std::size_t refused = 0;
    units::Bytes refused_bytes = 0;
    double request_fee_usd = 0.0;  ///< drain-read GETs + deep-tier PUTs
  };

  /// Drain every write the backend deferred (a write-back TieredColdStore
  /// parks puts in its fast tier until drained): an uncapped flush_window.
  /// Callers that require durability at a point in time — FLStore does,
  /// after every round's backup — call this and charge the returned fees.
  /// Virtual only because flbench's TimedBackend still overrides it; that
  /// override books the same ledger as its flush_window, so the two can go
  /// together and leave flush_window the only virtual drain.
  virtual FlushResult flush(double now);

  /// Bounded drain, the one drain a backend implements: make durable only
  /// objects that were dirtied at or before `dirty_before` (simulated
  /// time), at most `max_objects` of them (0 = no cap), oldest-first. This
  /// is how an age-threshold daemon fires retroactively at the deadline
  /// without acausally draining writes that happened after it, and how a
  /// byte threshold drains in throttle-sized slices that cannot starve
  /// reads. Backends with nothing deferred return {}.
  virtual FlushResult flush_window(double now, double dirty_before,
                                   std::size_t max_objects) {
    (void)now;
    (void)dirty_before;
    (void)max_objects;
    return {};
  }

  /// Crash-consistency introspection: the write-back dirty window — objects
  /// acknowledged to callers but not yet durable in the authoritative tier.
  /// Simple (synchronously durable) backends are always clean.
  struct DirtyWindow {
    std::size_t objects = 0;      ///< acked-but-unflushed object count
    units::Bytes bytes = 0;       ///< logical bytes at risk
    double oldest_since_s = 0.0;  ///< when the oldest entry went dirty
                                  ///< (meaningful only when objects > 0)
  };
  [[nodiscard]] virtual DirtyWindow dirty_window() const { return {}; }

  struct CrashResult {
    std::size_t lost_objects = 0;    ///< acked writes that did not survive
    units::Bytes lost_bytes = 0;
  };

  /// Model a crash at `now` that loses the dirty window: every un-flushed
  /// object reverts to its last durable version (or vanishes, if it never
  /// reached the authoritative tier). Returns what was lost so a
  /// crash-consistency ledger can book it. Synchronously durable backends
  /// lose nothing.
  virtual CrashResult crash(double now) {
    (void)now;
    return {};
  }

  /// Existence check without a simulated round trip (control-plane lookup).
  [[nodiscard]] virtual bool contains(const std::string& name) const = 0;

  [[nodiscard]] virtual units::Bytes stored_logical_bytes() const = 0;

  /// Capacity bound in bytes; 0 = unbounded (grow/bill on demand).
  [[nodiscard]] virtual units::Bytes capacity_bytes() const = 0;

  /// Always-on fees for keeping this backend provisioned for `seconds`:
  /// GB-month storage, cache node-hours, SSD device-hours. Request fees are
  /// returned per op, never here.
  [[nodiscard]] virtual double idle_cost(double seconds) const = 0;

  /// Live throttle retune at simulated time `now` (the control plane's
  /// provisioned-IOPS knob). Returns true when the backend (or at least one
  /// tier/region of a composition) applied it; backends without an
  /// admission throttle return false and change nothing. Token/debt
  /// carry-over semantics are Throttle::set_config's.
  virtual bool set_throttle(const Throttle::Config& config, double now) {
    (void)config;
    (void)now;
    return false;
  }

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual OpStats stats() const = 0;
};

}  // namespace flstore::backend
