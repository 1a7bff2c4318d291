// Caching policies — the paper's §4.4.
//
// Tailored policies are *plans*: given a request (or a freshly ingested
// round) they name keys to cache, prefetch and evict, exploiting FL's
// iterative access pattern. Traditional policies (LRU/LFU/FIFO) never plan;
// they demand-fill and evict by recency/frequency/insertion under capacity
// pressure. FLStore variants for the ablations (Random, Static, limited)
// are configurations of the same machinery.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fed/fl_job.hpp"
#include "fed/metadata.hpp"
#include "fed/request.hpp"

namespace flstore::core {

enum class PolicyMode : std::uint8_t {
  kTailored,        ///< Table-1 selector: P1-P4 by workload type
  kTailoredRandom,  ///< ablation: random policy class per request
  kTailoredStatic,  ///< ablation: one fixed policy class for everything
  kLru,
  kLfu,
  kFifo,
};

[[nodiscard]] constexpr const char* to_string(PolicyMode m) noexcept {
  switch (m) {
    case PolicyMode::kTailored: return "FLStore";
    case PolicyMode::kTailoredRandom: return "FLStore-Random";
    case PolicyMode::kTailoredStatic: return "FLStore-Static";
    case PolicyMode::kLru: return "FLStore-LRU";
    case PolicyMode::kLfu: return "FLStore-LFU";
    case PolicyMode::kFifo: return "FLStore-FIFO";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_tailored(PolicyMode m) noexcept {
  return m == PolicyMode::kTailored || m == PolicyMode::kTailoredRandom ||
         m == PolicyMode::kTailoredStatic;
}

struct PolicyConfig {
  PolicyMode mode = PolicyMode::kTailored;
  /// P4 window: metadata kept for the most recent R rounds (default 10).
  RoundId metadata_window = 10;
  /// Policy class used by kTailoredStatic.
  fed::PolicyClass static_class = fed::PolicyClass::kP1;
  std::uint64_t random_seed = 7;  ///< kTailoredRandom's stream
};

/// What to do around one request.
struct RequestPlan {
  std::vector<MetadataKey> prefetch;  ///< load asynchronously after serving
  std::vector<MetadataKey> evict;     ///< drop from cache
};

/// What to do when a training round lands (step 1 of Fig 6). Each write-
/// allocate names the policy class it serves, so the Cache Engine can
/// charge the object to that class's partition budget.
struct IngestPlan {
  struct CacheDirective {
    MetadataKey key;
    fed::PolicyClass cls = fed::PolicyClass::kP1;

    friend bool operator==(const CacheDirective&,
                           const CacheDirective&) = default;
  };
  std::vector<CacheDirective> cache;  ///< write-allocate into serverless memory
  std::vector<MetadataKey> evict;     ///< windows that slid past
};

/// Split `total` bytes across the four class partitions: `floor_bytes`
/// guaranteed each (clamped to total/4), the remainder proportional to
/// `weights` (an all-zero weight vector splits evenly). Rounding slack
/// lands on the heaviest class so the result sums to `total` exactly.
/// Shared by PolicyEngine::rebalance_class_budgets and
/// AdaptivePolicySelector::suggest_budgets, which differ only in how they
/// derive the weights.
[[nodiscard]] std::array<units::Bytes, fed::kPolicyClassCount>
distribute_class_budgets(
    units::Bytes total, units::Bytes floor_bytes,
    const std::array<double, fed::kPolicyClassCount>& weights);

/// Observed per-class cache demand, the input to partition rebalancing
/// (CacheEngine::ClassStats carries the same counters).
struct ClassDemand {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  units::Bytes bytes = 0;  ///< resident bytes the class was observed holding
};

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyConfig config)
      : config_(config), rng_(config.random_seed) {}

  [[nodiscard]] const PolicyConfig& config() const noexcept { return config_; }

  /// Policy class applied to `req` under the configured mode (tailored modes
  /// only; traditional modes have no class).
  [[nodiscard]] fed::PolicyClass effective_class(
      const fed::NonTrainingRequest& req);

  /// Plan around a request. Traditional modes return an empty plan.
  [[nodiscard]] RequestPlan plan_request(const fed::NonTrainingRequest& req,
                                         const fed::FLJob& dir);

  /// Plan for an already-resolved policy class (lets the caller draw the
  /// class once and reuse it for pinning decisions).
  [[nodiscard]] RequestPlan plan_for_class(fed::PolicyClass cls,
                                           const fed::NonTrainingRequest& req,
                                           const fed::FLJob& dir) const;

  /// Plan for a freshly ingested round. Traditional modes return an empty
  /// plan (they cache nothing until a request misses).
  [[nodiscard]] IngestPlan plan_ingest(const fed::RoundRecord& record,
                                       const fed::FLJob& dir);

  /// Split `total` bytes of cache across the four class partitions from the
  /// observed ledger: every class keeps `floor_bytes`, and the remainder is
  /// weighted by each class's hit-rate-scaled resident bytes — protect the
  /// working sets that are earning hits, rather than pouring space into a
  /// churn class whose working set no budget could hold. On a cold ledger
  /// (no hits anywhere) the weight falls back to miss pressure. Budgets sum
  /// to `total` exactly; the floor keeps starved classes alive so their hit
  /// rate (and next rebalance) can recover.
  [[nodiscard]] static std::array<units::Bytes, fed::kPolicyClassCount>
  rebalance_class_budgets(
      const std::array<ClassDemand, fed::kPolicyClassCount>& demand,
      units::Bytes total, units::Bytes floor_bytes);

 private:
  PolicyConfig config_;
  Rng rng_;
};

}  // namespace flstore::core
