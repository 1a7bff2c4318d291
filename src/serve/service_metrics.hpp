// Per-request records and aggregate metrics for serving-plane runs.
//
// A ServiceReport is to the serving plane what sim::RunResult is to the
// single-store runner: the raw per-request ledger plus the queueing-theory
// headlines (tail latency, sustained throughput, cost per 1k requests) that
// fig20 sweeps over offered load × shard count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "fed/request.hpp"
#include "serve/coalescer.hpp"
#include "serve/scheduler.hpp"

namespace flstore::serve {

struct ServiceRecord {
  JobId tenant = 0;
  int shard = 0;  ///< global shard index the request was served on
  fed::NonTrainingRequest request;
  bool rejected = false;   ///< admission control shed it (no other fields)
  double start_s = 0.0;    ///< dispatch time (>= arrival under queueing)
  double queue_s = 0.0;    ///< start - arrival
  double comm_s = 0.0;
  double comp_s = 0.0;
  double cost_usd = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// workloads::output_digest of the served output (0 when rejected).
  std::uint64_t output_digest = 0;

  [[nodiscard]] double latency_s() const noexcept {
    return queue_s + comm_s + comp_s;
  }
  [[nodiscard]] double completion_s() const noexcept {
    return start_s + comm_s + comp_s;
  }
  [[nodiscard]] fed::PolicyClass policy_class() const noexcept {
    return fed::policy_class_for(request.type);
  }
};

struct ServiceReport {
  std::vector<ServiceRecord> records;  ///< arrival order (rejected included)
  Coalescer::Stats coalescer;
  /// Per-class scheduler admission/backlog ledger (queued modes only;
  /// replay() bypasses the schedulers and leaves this zero). Indexed by
  /// fed::class_index. admitted/rejected sum across every shard's
  /// RequestScheduler; peak_queued is the worst backlog any single shard's
  /// class queue held (queues are per shard, so a sum of peaks would
  /// describe no queue that ever existed).
  std::array<RequestScheduler::ClassStats, fed::kPolicyClassCount>
      scheduler{};

  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t rejected() const;
  /// First arrival to last completion.
  [[nodiscard]] double makespan_s() const;
  /// Completed requests per second of makespan.
  [[nodiscard]] double throughput_qps() const;
  [[nodiscard]] double total_cost_usd() const;
  [[nodiscard]] double cost_per_1k_usd() const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
  /// End-to-end latencies (queueing included) of completed requests,
  /// optionally restricted to one workload class.
  [[nodiscard]] SampleSet latencies(
      std::optional<fed::PolicyClass> filter = std::nullopt) const;
  [[nodiscard]] SampleSet queue_waits() const;

  // Zero-completion-safe ratio metrics: SampleSet throws on empty stats (a
  // deliberate contract), so an all-rejected or empty run must go through
  // these — they report 0, never NaN or a throw.

  /// Cache hit fraction over completed requests (hits / (hits + misses)).
  [[nodiscard]] double hit_rate(
      std::optional<fed::PolicyClass> filter = std::nullopt) const;
  /// latencies(filter).percentile(p), or 0 with no completed requests.
  [[nodiscard]] double latency_percentile_s(
      double p, std::optional<fed::PolicyClass> filter = std::nullopt) const;
  /// queue_waits().mean(), or 0 with no completed requests.
  [[nodiscard]] double mean_queue_wait_s() const;
};

}  // namespace flstore::serve
