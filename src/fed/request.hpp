// Non-training request vocabulary and the paper's Table-1 taxonomy mapping.
//
// The ten figure workloads (Figs 1/2/7-11) plus two extension workloads:
// Provenance (the across-rounds P3 family member used by Table 2) and
// HyperparamTracking (P4 family). The paper lists Debugging under both P2
// and P3; it is P2 here, since FedDebug tests one round's updates.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"

namespace flstore::fed {

enum class WorkloadType : std::uint8_t {
  kInference,          ///< serve the aggregated model (P1)
  kPersonalization,    ///< group clients, build per-group models (P2)
  kClustering,         ///< Auxo-style clustering of client updates (P2)
  kMaliciousFilter,    ///< cosine-outlier detection (P2)
  kCosineSimilarity,   ///< pairwise update similarity (P2)
  kIncentives,         ///< leave-one-out contribution / payouts (P2)
  kSchedulingCluster,  ///< TiFL-style tier scheduling on updates (P2)
  kSchedulingPerf,     ///< Oort-style utility from client metrics (P4)
  kDebugging,          ///< FedDebug differential testing on a round (P2)
  kReputation,         ///< per-client reputation over rounds (P3)
  kProvenance,         ///< lineage/checkpoint tracking per client (P3)
  kHyperparamTracking, ///< hyperparameter trajectory analysis (P4)
};

/// Caching-policy classes of Table 1.
enum class PolicyClass : std::uint8_t { kP1, kP2, kP3, kP4 };

inline constexpr std::size_t kPolicyClassCount = 4;

/// Dense index for per-class arrays (scheduler queues, SLO tables).
[[nodiscard]] constexpr std::size_t class_index(PolicyClass c) noexcept {
  return static_cast<std::size_t>(c);
}

[[nodiscard]] constexpr const char* to_string(PolicyClass c) noexcept {
  switch (c) {
    case PolicyClass::kP1: return "P1";
    case PolicyClass::kP2: return "P2";
    case PolicyClass::kP3: return "P3";
    case PolicyClass::kP4: return "P4";
  }
  return "?";
}

[[nodiscard]] constexpr PolicyClass policy_class_for(WorkloadType w) noexcept {
  switch (w) {
    case WorkloadType::kInference: return PolicyClass::kP1;
    case WorkloadType::kPersonalization:
    case WorkloadType::kClustering:
    case WorkloadType::kMaliciousFilter:
    case WorkloadType::kCosineSimilarity:
    case WorkloadType::kIncentives:
    case WorkloadType::kSchedulingCluster:
    case WorkloadType::kDebugging: return PolicyClass::kP2;
    case WorkloadType::kReputation:
    case WorkloadType::kProvenance: return PolicyClass::kP3;
    case WorkloadType::kSchedulingPerf:
    case WorkloadType::kHyperparamTracking: return PolicyClass::kP4;
  }
  return PolicyClass::kP2;
}

[[nodiscard]] constexpr const char* to_string(WorkloadType w) noexcept {
  switch (w) {
    case WorkloadType::kInference: return "inference";
    case WorkloadType::kPersonalization: return "personalization";
    case WorkloadType::kClustering: return "clustering";
    case WorkloadType::kMaliciousFilter: return "malicious_filter";
    case WorkloadType::kCosineSimilarity: return "cosine_similarity";
    case WorkloadType::kIncentives: return "incentives";
    case WorkloadType::kSchedulingCluster: return "scheduling_cluster";
    case WorkloadType::kSchedulingPerf: return "scheduling_perf";
    case WorkloadType::kDebugging: return "debugging";
    case WorkloadType::kReputation: return "reputation";
    case WorkloadType::kProvenance: return "provenance";
    case WorkloadType::kHyperparamTracking: return "hyperparam_tracking";
  }
  return "?";
}

/// The labels used in the paper's figures.
[[nodiscard]] constexpr const char* paper_label(WorkloadType w) noexcept {
  switch (w) {
    case WorkloadType::kInference: return "Inference";
    case WorkloadType::kPersonalization: return "Personalized";
    case WorkloadType::kClustering: return "Clustering";
    case WorkloadType::kMaliciousFilter: return "Malicious Filtering";
    case WorkloadType::kCosineSimilarity: return "Cosine similarity";
    case WorkloadType::kIncentives: return "Incentives";
    case WorkloadType::kSchedulingCluster: return "Sched. (Cluster)";
    case WorkloadType::kSchedulingPerf: return "Sched. (Perf.)";
    case WorkloadType::kDebugging: return "Debugging";
    case WorkloadType::kReputation: return "Reputation calc.";
    case WorkloadType::kProvenance: return "Provenance";
    case WorkloadType::kHyperparamTracking: return "Hyperparam tracking";
  }
  return "?";
}

/// The ten workloads evaluated in the paper's figures, in Fig-7 order.
[[nodiscard]] inline std::vector<WorkloadType> paper_workloads() {
  return {WorkloadType::kPersonalization, WorkloadType::kClustering,
          WorkloadType::kDebugging,       WorkloadType::kMaliciousFilter,
          WorkloadType::kIncentives,      WorkloadType::kSchedulingCluster,
          WorkloadType::kReputation,      WorkloadType::kSchedulingPerf,
          WorkloadType::kCosineSimilarity, WorkloadType::kInference};
}

/// The six workloads of the Cache-Agg comparison (Fig 9).
[[nodiscard]] inline std::vector<WorkloadType> cacheagg_workloads() {
  return {WorkloadType::kCosineSimilarity, WorkloadType::kSchedulingCluster,
          WorkloadType::kInference,        WorkloadType::kMaliciousFilter,
          WorkloadType::kSchedulingPerf,   WorkloadType::kIncentives};
}

struct NonTrainingRequest {
  RequestId id = 0;
  WorkloadType type = WorkloadType::kInference;
  RoundId round = kNoRound;     ///< target round
  ClientId client = kNoClient;  ///< tracked client for P3-family requests
  double arrival_s = 0.0;       ///< trace arrival time
  /// Issuing client's popularity rank when a population model generated the
  /// request (serve::PopulationConfig); kNoClient for materialized traces.
  ClientId origin = kNoClient;
  /// Issuer's device class: index into the population's device-class list.
  std::uint8_t device_class = 0;
};

}  // namespace flstore::fed
