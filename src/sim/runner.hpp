// Experiment runner: replays one request trace against the serving systems
// of one comparison on the discrete-event clock, interleaving training-round
// ingestion, optional queueing on a bounded server pool, and optional fault
// injection. The systems run in lock-step, so each round is made once.
#pragma once

#include <string>
#include <vector>

#include "core/serving_system.hpp"
#include "fed/fl_job.hpp"
#include "fed/request.hpp"
#include "serverless/fault_injector.hpp"
#include "sim/scenario.hpp"

namespace flstore::sim {

struct RequestRecord {
  fed::NonTrainingRequest request;
  double queue_s = 0.0;  ///< waited for a free server (0 in open-loop runs)
  double comm_s = 0.0;
  double comp_s = 0.0;
  double cost_usd = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;

  [[nodiscard]] double latency_s() const noexcept {
    return queue_s + comm_s + comp_s;
  }
};

struct RunnerOptions {
  /// 0 = open loop (no queueing): per-request latency is pure service time,
  /// which is what the paper's per-request figures report. A positive value
  /// bounds concurrency (Fig 12's "cached parallel functions").
  int servers = 0;
  /// Fault schedule, delivered through ServingSystem::inject_fault (ranks
  /// map to function instances; systems without any ignore it).
  std::vector<FaultEvent> faults;
};

struct RunResult {
  std::string system;
  std::vector<RequestRecord> records;
  double duration_s = 0.0;
  double infrastructure_usd = 0.0;

  [[nodiscard]] double total_latency_s() const;
  [[nodiscard]] double total_comm_s() const;
  [[nodiscard]] double total_comp_s() const;
  [[nodiscard]] double total_serving_usd() const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
};

/// Replay `trace` against every system in `systems` in lock-step; returns
/// one RunResult per system, in the order given. Rounds
/// 0..min(job.latest_round(), floor(duration/interval)) of `job` are made
/// once each and ingested into every system, round r at r * interval. Each
/// fault reaches every system. Each request is served on every system at
/// its arrival — or, with a bounded server pool, once that system's own
/// earliest-free server frees. Events at the same instant run ingest
/// first, then faults, then requests, each on every system in turn, so a
/// request never misses a round that finished at its arrival.
///
/// Contract: each RunResult equals a one-system run's, as long as the
/// systems share no state that one system's calls change for another. A
/// sim::Scenario's systems each own their bucket. The one exception is
/// tab02's P4 row: its four policies share one bucket, which is safe only
/// because that bucket already holds every round, so an ingest rewrites
/// the bytes an object already holds.
///
/// An empty list, a null entry or a system listed twice throws
/// InvalidArgument.
[[nodiscard]] std::vector<RunResult> run_trace(
    const std::vector<core::ServingSystem*>& systems, const fed::FLJob& job,
    const std::vector<fed::NonTrainingRequest>& trace, double duration_s,
    double round_interval_s, const RunnerOptions& options = {});

}  // namespace flstore::sim
