// ReplicatedColdStore — a multi-region cold tier on the StorageBackend seam.
//
// The paper's fault-tolerance story (Figs 13-14) is that keeping replicas
// warm is orders of magnitude cheaper than re-fetching lost state. The
// serverless cache pool already models that *inside* the pool; this class
// brings the same trade to the cold tier behind it: N per-region backends
// (each region can itself be a TieredColdStore) composed into one
// StorageBackend, so core::FLStore and serve::ShardedStore cannot tell a
// geo-replicated deployment from a single bucket.
//
// Semantics:
//   Writes — replicate to every reachable region in parallel; the caller
//     waits for the W-th acknowledgement (configurable W-of-N quorum,
//     majority by default). Bytes shipped to a non-home region pay the
//     cross-region egress fee (PricingCatalog::interregion_transfer_cost)
//     on top of that region's own request fees. A region inside an outage
//     window simply never receives the write — its replica goes stale, and
//     later reads there miss and fail over (the re-fetch penalty the bench
//     measures).
//   Reads — nearest-first: regions are probed in declaration order (region
//     0 is the serving/home region). A miss, an outage, or a *stale*
//     replica fails the read over to the next region; a hit from a
//     non-home region pays the WAN transfer plus egress. With read_repair
//     on, a failover hit is copied back into the nearer live regions
//     asynchronously (fees accrue at the read-completion time, the request
//     does not wait) so the next access is local again.
//   Versioning — the composition tracks a monotonically increasing version
//     per object and which version each region last accepted (the metadata
//     service every replicated store runs). A region that missed an
//     overwrite during an outage is *stale*, not current: reads skip it
//     via a control-plane check and read-repair overwrites it, so outage
//     survivors never serve outdated bytes. Only when every up-to-date
//     replica is dark does a read fall back to the freshest reachable
//     stale copy (bounded-staleness last resort).
//   Outages — per-region [start, end) windows of simulated time, driven by
//     the same fault-schedule machinery the FI benches use
//     (region_outages_from_faults maps a Zipf reclamation schedule onto
//     region-granular outages).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/storage_backend.hpp"
#include "cloud/pricing.hpp"
#include "common/mutex.hpp"
#include "serverless/fault_injector.hpp"
#include "simnet/network.hpp"

namespace flstore::backend {

/// One region of a ReplicatedColdStore is dark over [start_s, end_s).
struct OutageWindow {
  std::size_t region = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Map a Zipf reclamation schedule onto region-granular outages: each event
/// opens an `outage_duration_s` window on region (victim_rank %
/// fault_prone_regions). Regions at index >= fault_prone_regions never fail
/// — the natural encoding for an always-reachable far archive.
[[nodiscard]] std::vector<OutageWindow> region_outages_from_faults(
    const std::vector<FaultEvent>& faults, std::size_t fault_prone_regions,
    double outage_duration_s);

class ReplicatedColdStore final : public StorageBackend {
 public:
  /// One region: a backend plus its WAN hop from the serving region.
  /// Region 0 is the serving (home) region — its `wan` defaults to the
  /// identity link and it never pays egress. Exactly one of `backend`
  /// (non-owning, must outlive the composition) or `owned` must be set.
  struct Region {
    std::string name;
    StorageBackend* backend = nullptr;
    std::unique_ptr<StorageBackend> owned;
    /// Access path from the serving region (sim::interregion_link).
    Link wan{0.0, 1.0e18};
    /// Continent-crossing region: bills the far egress rate.
    bool far = false;
  };

  struct Config {
    /// Write acknowledgements the caller waits for; 0 = majority (N/2+1).
    int write_quorum = 0;
    /// Copy a failover hit back into the nearer live regions (async, fees
    /// only — stamped at read completion like TieredColdStore promotion).
    bool read_repair = true;
    /// Connect-timeout latency a read pays to skip a region in outage.
    double outage_probe_s = 0.05;
  };

  ReplicatedColdStore(std::vector<Region> regions, Config config,
                      const PricingCatalog& pricing);

  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  /// One logical copy: the most complete replica (regions hold the same
  /// object set, modulo outage-induced gaps).
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  /// Full replication stores every object in every region, so the smallest
  /// bounded region is the bound; 0 when all regions auto-scale.
  [[nodiscard]] units::Bytes capacity_bytes() const override;
  /// Sum over regions — every replica is provisioned and billed.
  [[nodiscard]] double idle_cost(double seconds) const override;
  FlushResult flush_window(double now, double dirty_before,
                           std::size_t max_objects) override;
  /// The most-indebted region's window (regions replicate the same logical
  /// objects, so the worst region bounds the composition's durability gap);
  /// oldest_since_s is the oldest stamp across all regions.
  [[nodiscard]] DirtyWindow dirty_window() const override;
  /// Crash every region's write-back caching tiers at once (the correlated
  /// worst case); the logical loss reported is the worst region's.
  CrashResult crash(double now) override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kReplicated;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] OpStats stats() const override;

  /// Forwarded to every region's backend (the control plane re-provisions
  /// the fleet as one); true when at least one region applied it.
  bool set_throttle(const Throttle::Config& config, double now) override;

  /// Replace the outage schedule (windows may arrive unsorted).
  void set_outages(std::vector<OutageWindow> outages);
  [[nodiscard]] bool in_outage(std::size_t region, double now) const;

  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] StorageBackend& region_backend(std::size_t i) {
    return *regions_.at(i).resolved;
  }
  [[nodiscard]] const std::string& region_name(std::size_t i) const {
    return regions_.at(i).name;
  }
  [[nodiscard]] int write_quorum() const noexcept { return quorum_; }

  /// Cross-region transfer fees accrued so far (also folded into
  /// stats().fees_usd — this splits them out for the cost ledgers).
  [[nodiscard]] double egress_fees_usd() const;
  /// Reads served by a region other than the home region.
  [[nodiscard]] std::uint64_t failover_reads() const;
  /// Region probes skipped because the region was inside an outage window.
  [[nodiscard]] std::uint64_t outage_skips() const;
  /// Region probes skipped because the replica held an outdated version
  /// (it missed an overwrite during an outage and has not been repaired).
  [[nodiscard]] std::uint64_t stale_skips() const;
  /// Writes that could not reach their quorum (accepted == false).
  [[nodiscard]] std::uint64_t quorum_failures() const;
  /// Read-repair copies shipped back toward the home region.
  [[nodiscard]] std::uint64_t repairs() const;

 private:
  struct RegionState {
    std::string name;
    std::unique_ptr<StorageBackend> owned;
    StorageBackend* resolved = nullptr;
    Link wan{0.0, 1.0e18};
    bool far = false;
    std::vector<OutageWindow> outages;  ///< sorted by start_s
    /// Version this region last accepted per object (guarded by mu_); an
    /// entry older than latest_ marks a stale replica.
    std::unordered_map<std::string, std::uint64_t> versions;
  };

  /// Egress fee for shipping `bytes` into/out of region `i` (home is free).
  [[nodiscard]] double egress_fee(std::size_t i, units::Bytes bytes) const;

  /// Unwind a version bump for a write no region took; without this every
  /// replica would read as permanently stale.
  void rollback_version_locked(const std::string& name, std::uint64_t version)
      REQUIRES(mu_);

  Config config_;
  const PricingCatalog* pricing_;
  int quorum_ = 1;
  /// Each region's outages/versions are guarded by mu_ too; the analysis
  /// cannot express a nested struct's members guarded by an outer mutex,
  /// so that half of the contract stays documentation.
  std::vector<RegionState> regions_;
  mutable Mutex mu_;
  OpStats stats_ GUARDED_BY(mu_);
  /// Latest version written per object. Objects pre-loaded directly into a
  /// region backend (behind the composition's back) have no entry and are
  /// treated as current everywhere.
  std::unordered_map<std::string, std::uint64_t> latest_ GUARDED_BY(mu_);
  double egress_fees_usd_ GUARDED_BY(mu_) = 0.0;
  std::uint64_t failover_reads_ GUARDED_BY(mu_) = 0;
  std::uint64_t outage_skips_ GUARDED_BY(mu_) = 0;
  std::uint64_t stale_skips_ GUARDED_BY(mu_) = 0;
  std::uint64_t quorum_failures_ GUARDED_BY(mu_) = 0;
  std::uint64_t repairs_ GUARDED_BY(mu_) = 0;
};

}  // namespace flstore::backend
