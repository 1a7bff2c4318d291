// Non-training request trace generation.
//
// Two flavours:
//  * the mixed 50-hour trace behind Figs 7-9/15-17 (Poisson arrivals over a
//    workload mix while training advances one round per interval), and
//  * the single-family Table-2 traces (one request per round / per
//    participation, which is where the 20000/64/20000 access counts and the
//    0%-traditional hit rates come from).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fed/fl_job.hpp"
#include "fed/request.hpp"

namespace flstore::fed {

struct TraceConfig {
  double duration_s = 50.0 * 3600.0;   ///< §5.2: 50 hours
  std::size_t total_requests = 3000;   ///< §5.2: 3000 requests
  double round_interval_s = 180.0;     ///< training pace: one round / 3 min
  std::vector<WorkloadType> workloads; ///< defaults to paper_workloads()
  std::size_t tracked_clients = 5;     ///< P3 targets rotate over these
  std::uint64_t seed = 99;
};

/// Samples one mixed-workload request at a given virtual time — the request
/// content logic of generate_trace factored out so the serving plane's load
/// generators (open-loop QPS sweeps, closed-loop virtual users) can draw
/// requests one at a time against their own clocks.
///
/// Stateful: P3-family draws walk the tracked clients round-robin, each
/// advancing a per-client cursor through its participation sequence.
class TraceSampler {
 public:
  /// `workloads` empty = paper_workloads(). `dir` must outlive the sampler.
  TraceSampler(std::vector<WorkloadType> workloads, const FLJob& dir,
               std::size_t tracked_clients, double round_interval_s);

  /// Draw request content for arrival time `now`. `id` is caller-assigned
  /// (load generators number requests globally across tenants).
  [[nodiscard]] NonTrainingRequest sample(RequestId id, double now, Rng& rng);

  /// Heap + inline footprint in bytes. The sampler's state is O(tracked
  /// clients + workload mix) — independent of how many requests it has
  /// drawn, which is what serve::ArrivalStream::state_bytes() sums to prove
  /// streamed generation is O(1) in trace length.
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return sizeof(*this) + workloads_.capacity() * sizeof(WorkloadType) +
           tracked_.capacity() * sizeof(ClientId) +
           cursor_.capacity() * sizeof(RoundId);
  }

 private:
  std::vector<WorkloadType> workloads_;
  const FLJob* dir_;
  double round_interval_s_;
  std::vector<ClientId> tracked_;
  std::vector<RoundId> cursor_;
  std::size_t p3_rr_ = 0;
};

/// Mixed trace: uniformly mixed workloads, Poisson arrivals, rounds advance
/// with virtual training time. P2-family requests target the newest
/// available round (minus a per-workload lag); P3-family requests walk a
/// tracked client's participation sequence. Sorted by arrival time.
[[nodiscard]] std::vector<NonTrainingRequest> generate_trace(
    const TraceConfig& config, const FLJob& dir);

/// Table-2 P2 trace: one per-round request (malicious filtering) for rounds
/// [0, n_rounds).
[[nodiscard]] std::vector<NonTrainingRequest> table2_p2_trace(
    WorkloadType type, RoundId n_rounds);

/// Table-2 P3 trace: provenance requests tracking `client` across its first
/// `n` participation rounds.
[[nodiscard]] std::vector<NonTrainingRequest> table2_p3_trace(
    ClientId client, std::size_t n, const FLJob& dir);

/// Table-2 P4 trace: per-round resource-tracking scheduling requests.
[[nodiscard]] std::vector<NonTrainingRequest> table2_p4_trace(
    RoundId n_rounds);

}  // namespace flstore::fed
