// FlushScheduler — policy-driven background drainer for write-back cold
// tiers, with crash-consistency accounting for the dirty window.
//
// FLStore's latency/cost wins come from serving hot objects out of cache
// while the cold tier absorbs writes off the critical path; the durability
// story only holds if the write-back dirty window is *bounded* and
// *priced*. The scheduler bounds it: instead of callers invoking flush()
// explicitly, they observe() the backend on the ingest cadence (every
// backup put_batch, every round boundary) and the policy decides
// when to drain:
//
//   max_dirty_age_s   — no acked object stays un-flushed longer than this.
//     Deadlines are honoured *retroactively*: an observe() that arrives
//     after a deadline fires the drain stamped at the deadline itself (the
//     moment a background daemon would have fired), via flush_window's
//     dirty_before cutoff — so the bound holds exactly, and the drain
//     never acausally includes writes that happened after it.
//   max_dirty_bytes   — drain as soon as the window's bytes reach this.
//   flush_on_round_boundary — the legacy cadence (drain at every ingest
//     end); on by default so existing callers keep today's behaviour.
//   max_drain_objects — slice every drain so a single trigger cannot
//     monopolize the durable tier's Throttle and starve reads.
//
// The scheduler keeps a crash-consistency ledger (DirtyWindowStats):
// current/peak dirty bytes, oldest-dirty age (current and peak), the
// bytes-at-risk integral over time (byte-seconds — the area under the
// dirty-window curve, what an actuary would price the durability gap at),
// and drain/crash bookkeeping. crash(now) models losing the dirty window:
// the backend reverts every un-flushed object to its last durable version
// and the losses are booked to the ledger.
//
// Works over any StorageBackend: synchronously durable backends are always
// clean, so observe() is a cheap no-op for them and the ledger stays zero.
#pragma once

#include <cstdint>

#include "backend/storage_backend.hpp"
#include "common/mutex.hpp"

namespace flstore::backend {

struct FlushPolicy {
  /// Drain everything at every round boundary (the legacy explicit-flush
  /// cadence core::FLStore used). Leave on for write-through stacks;
  /// scheduled write-back deployments turn it off and set thresholds.
  bool flush_on_round_boundary = true;
  /// Maximum seconds an acked object may stay un-flushed; 0 = unbounded.
  double max_dirty_age_s = 0.0;
  /// Maximum total dirty bytes before a drain; 0 = unbounded.
  units::Bytes max_dirty_bytes = 0;
  /// Objects per drain slice (0 = drain everything eligible at once).
  /// Bounding it keeps one trigger from hogging the durable tier's
  /// throttle tokens ahead of reads.
  std::size_t max_drain_objects = 0;

  /// Any threshold set — the scheduler is actually scheduling, not just
  /// replaying the legacy cadence.
  [[nodiscard]] bool scheduled() const noexcept {
    return max_dirty_age_s > 0.0 || max_dirty_bytes > 0;
  }
};

/// The crash-consistency ledger. "Current" fields are sampled from the
/// backend at the stats call; "peak"/cumulative fields are maintained at
/// every observe/flush/crash.
struct DirtyWindowStats {
  units::Bytes dirty_bytes = 0;         ///< bytes at risk right now
  units::Bytes peak_dirty_bytes = 0;    ///< worst window ever sampled
  std::uint64_t acked_unflushed = 0;    ///< objects at risk right now
  double oldest_dirty_age_s = 0.0;      ///< age of the oldest debt now
  double peak_oldest_dirty_age_s = 0.0; ///< worst age ever sampled
  /// ∫ dirty_bytes dt (byte-seconds), trapezoidal between samples: the
  /// integrated exposure a durability SLO would price.
  double bytes_at_risk_integral = 0.0;
  std::uint64_t flushes = 0;         ///< drains that moved or refused bytes
  std::uint64_t age_flushes = 0;     ///< … triggered by the age deadline
  std::uint64_t byte_flushes = 0;    ///< … triggered by the byte threshold
  std::uint64_t round_flushes = 0;   ///< … triggered by a round boundary
  std::uint64_t manual_flushes = 0;  ///< … via the flush_now escape hatch
  std::uint64_t drained_objects = 0;
  units::Bytes drained_bytes = 0;
  /// Drain attempts the durable tier refused (objects stayed dirty).
  std::uint64_t refused_drains = 0;
  double drain_fees_usd = 0.0;  ///< read-back GETs + durable-tier PUTs
  std::uint64_t crashes = 0;
  std::uint64_t lost_objects = 0;  ///< acked writes lost to crashes
  units::Bytes lost_bytes = 0;
};

class FlushScheduler {
 public:
  /// `backend` must outlive the scheduler. Internally synchronized: the
  /// serving plane observes one shared backend from many tenant timelines.
  FlushScheduler(StorageBackend& backend, FlushPolicy policy);

  /// Observe the backend at simulated time `now` — the ingest-cadence
  /// hook. Fires any age deadlines that expired since the last call
  /// (stamped at their deadlines), then the byte threshold at `now`, then
  /// the round-boundary drain when `round_boundary` and the policy asks
  /// for it. Returns the aggregate drain result; the caller charges the
  /// fees to its meter exactly as it would an explicit flush().
  StorageBackend::FlushResult observe(double now, bool round_boundary = false)
      EXCLUDES(mu_);

  /// Unconditional drain (the explicit-flush escape hatch), booked to the
  /// ledger like any other trigger.
  StorageBackend::FlushResult flush_now(double now) EXCLUDES(mu_);

  /// Crash at `now`: the backend loses its dirty window (objects revert to
  /// their last flushed version) and the losses are booked to the ledger.
  StorageBackend::CrashResult crash(double now) EXCLUDES(mu_);

  /// Live re-policy at simulated time `now` (the control plane swapping to
  /// a shed/defer policy when bytes-at-risk spikes, and back). Two-phase so
  /// neither policy's contract is violated across the switch: first any age
  /// deadlines the *old* policy let expire fire retroactively, stamped at
  /// their deadlines (switching can never relax a bound that was already
  /// violated); then the *new* policy is evaluated at the switch instant
  /// itself — a tighter age bound fires its overdue deadlines at `now`, a
  /// tighter byte threshold drains at `now` — so the swap takes effect
  /// immediately instead of at the next ingest observation. The ledger and
  /// the bytes-at-risk integral run continuously through the switch.
  /// Returns the aggregate drain the switch triggered (often empty).
  StorageBackend::FlushResult set_policy(double now, const FlushPolicy& policy)
      EXCLUDES(mu_);

  /// Ledger snapshot with the current window sampled at `now` (peaks and
  /// the integral include the un-booked gap since the last observation;
  /// nothing is mutated).
  [[nodiscard]] DirtyWindowStats dirty_window_stats(double now) const
      EXCLUDES(mu_);

  [[nodiscard]] FlushPolicy policy() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return policy_;
  }

 private:
  /// Advance the sampled timeline to `to` given the window `w` observed
  /// there: integral (trapezoid), peaks, last-sample state. Out-of-order
  /// timestamps (parallel tenant timelines) only update peaks.
  void advance_locked(double to, const StorageBackend::DirtyWindow& w)
      REQUIRES(mu_);

  /// Book one drain slice into the ledger + the aggregate result.
  void book_locked(const StorageBackend::FlushResult& r,
                   std::uint64_t DirtyWindowStats::* trigger,
                   StorageBackend::FlushResult& total) REQUIRES(mu_);

  /// Fire every expired age deadline retroactively (stamped at the
  /// deadline) under the current policy_; returns the post-drain window.
  StorageBackend::DirtyWindow fire_age_deadlines_locked(
      double now, StorageBackend::FlushResult& total) REQUIRES(mu_);

  /// Drain while the window is at or over the current byte threshold
  /// (slice-bounded); `window` tracks the post-drain state.
  void fire_byte_threshold_locked(double now,
                                  StorageBackend::DirtyWindow& window,
                                  StorageBackend::FlushResult& total)
      REQUIRES(mu_);

  StorageBackend* backend_;
  FlushPolicy policy_ GUARDED_BY(mu_);
  mutable Mutex mu_;
  DirtyWindowStats ledger_ GUARDED_BY(mu_);
  double last_sample_s_ GUARDED_BY(mu_) = 0.0;
  units::Bytes last_bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace flstore::backend
