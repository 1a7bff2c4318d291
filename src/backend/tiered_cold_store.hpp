// TieredColdStore — composes StorageBackends into one cold tier with
// fallback reads and write-through / write-back writes.
//
// Tiers are ordered fast-to-durable, e.g. local SSD -> cloud cache ->
// object store. A get probes tiers in order: every miss along the way pays
// that tier's control-plane round trip (first-byte latency), the first hit
// pays its transfer — and, with promote_on_hit, the object is copied into
// the tiers above so the next access hits the fast path (promotion is
// asynchronous: its fees are charged, its latency is not on the request).
//
// Writes:
//   kWriteThrough — every tier stores the object; the synchronous latency
//     is the *fastest* accepting tier (the deeper copies stream in the
//     background), fees are summed. The last tier is authoritative, so a
//     capacity-bounded fast tier can reject or evict without losing data.
//   kWriteBack — the fastest tier with room stores synchronously (a full
//     fixed tier falls through to the next); objects not yet in the
//     deepest tier are dirty and drain there on flush() via its batched
//     multi-put. Lower write latency, bounded staleness: crash-consistency
//     of the caching tiers is the price, which is why flush() exists.
//
// The composition is itself a StorageBackend, so core::FLStore and
// serve::ShardedStore cannot tell one backend from a stack of them.
#pragma once

#include <set>
#include <unordered_map>

#include "backend/storage_backend.hpp"
#include "common/mutex.hpp"

namespace flstore::backend {

class TieredColdStore final : public StorageBackend {
 public:
  enum class WriteMode : std::uint8_t { kWriteThrough, kWriteBack };

  struct Config {
    WriteMode write_mode = WriteMode::kWriteThrough;
    /// Copy a hit from tier i into tiers 0..i-1 (async, fees only).
    bool promote_on_hit = true;
  };

  /// `tiers` are probed in order; the caller owns them and they must
  /// outlive the composition. At least one tier is required.
  TieredColdStore(std::vector<StorageBackend*> tiers, Config config);
  explicit TieredColdStore(std::vector<StorageBackend*> tiers)
      : TieredColdStore(std::move(tiers), Config{}) {}

  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  /// Deduplicated logical occupancy: the deepest (authoritative) tier plus
  /// write-back objects still dirty above it — an un-flushed object is
  /// resident data even though storage billing has not seen it yet. (A
  /// dirty object a bounded fast tier already evicted stays counted until
  /// the next flush() discovers the drop.)
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  /// Write-through: the deepest tier (durability is authoritative there, a
  /// put the deep tier refuses is refused overall). Write-back: the first
  /// accepting tier holds the only copy, so distinct objects can be
  /// resident in different tiers — the sum of tier capacities, unbounded
  /// (0) as soon as any tier auto-scales.
  [[nodiscard]] units::Bytes capacity_bytes() const override;
  /// Sum over tiers — a stack bills every layer it keeps provisioned.
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kTiered;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] OpStats stats() const override;

  /// Forwarded to every tier (a provisioned-rate change re-provisions the
  /// whole stack); true when at least one tier applied it.
  bool set_throttle(const Throttle::Config& config, double now) override;

  /// Write-back only: make dirty objects durable in the deepest tier (one
  /// batched multi-put; middle tiers refill via promotion) — only objects
  /// dirtied at or before `dirty_before`, at most `max_objects` (0 = all),
  /// oldest-first with a deterministic name tie-break; flush() drains
  /// them all. Objects the deepest tier refuses stay dirty for the next
  /// flush *with their original dirty-since stamp* — the durability debt
  /// is as old as the un-flushed ack, not the failed retry. Returns the
  /// drained / refused object+byte counts plus the fees the drain paid
  /// (read-back GETs + deep-tier PUTs) for the caller's meter — refusals
  /// are reported, never silent, so schedulers can assert forward progress
  /// instead of polling stored_logical_bytes(). No-op in write-through
  /// mode or with nothing dirty.
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override;

  /// The write-back dirty window: count, bytes, oldest dirty-since stamp.
  [[nodiscard]] DirtyWindow dirty_window() const override;

  /// Crash at `now`: the caching tiers lose every dirty object (copies
  /// dropped), so reads revert to the deepest tier's last flushed version
  /// — or miss, for objects that never reached it. Clean cached copies
  /// survive: this models losing the *dirty window*, the only state whose
  /// loss violates an acknowledgement. Write-through compositions lose
  /// nothing.
  CrashResult crash(double now) override;

  [[nodiscard]] std::size_t dirty_count() const;
  /// Dirty objects a bounded fast tier evicted before any flush drained
  /// them — write-back's crash-consistency window made observable. Keep it
  /// zero: flush often enough, or give tier 0 auto-scale capacity.
  [[nodiscard]] std::uint64_t dropped_dirty_count() const;
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  [[nodiscard]] StorageBackend& tier(std::size_t i) { return *tiers_.at(i); }

 private:
  /// One un-flushed object: its logical size (occupancy must count it even
  /// though the deep tier has not seen it) and when it went dirty. An
  /// overwrite of an already-dirty object keeps the *earlier* stamp: the
  /// durable tier has been stale since the first un-flushed ack.
  struct Dirty {
    units::Bytes bytes = 0;
    double since_s = 0.0;
  };

  /// Record `name` as dirty at `now`. A re-dirtied object keeps its
  /// original stamp and adopts the new size. Maintains the incremental
  /// window bookkeeping below.
  void mark_dirty_locked(const std::string& name, units::Bytes logical,
                         double now) REQUIRES(mu_);
  /// Drop `name`'s dirty entry if present, keeping the window bookkeeping
  /// consistent. Every erase funnels through here.
  void clear_dirty_locked(const std::string& name) REQUIRES(mu_);
  /// Re-enter a refused drain into the dirty map with its *original* stamp
  /// — insert-if-absent, so a concurrent re-dirty wins.
  void mark_dirty_refused_locked(const std::string& name,
                                 units::Bytes logical, double since)
      REQUIRES(mu_);

  Config config_;
  std::vector<StorageBackend*> tiers_;
  mutable Mutex mu_;
  /// Objects accepted by a tier above the deepest and not yet made durable
  /// there (write-back mode).
  std::unordered_map<std::string, Dirty> dirty_ GUARDED_BY(mu_);
  /// Incremental dirty-window bookkeeping: flush schedulers query
  /// dirty_window() on every ingest observation, which must not rescan
  /// the whole map under mu_ each time.
  units::Bytes dirty_bytes_ GUARDED_BY(mu_) = 0;
  std::multiset<double> dirty_stamps_ GUARDED_BY(mu_);
  std::uint64_t dropped_dirty_ GUARDED_BY(mu_) = 0;
  OpStats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::backend
