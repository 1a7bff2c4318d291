// Deterministic FL training job simulation (the §5.1 setup: N clients per
// round drawn from a pool, up to thousands of rounds, one model).
//
// Rounds are generated on demand and deterministically: round r's content is
// a pure function of (config.seed, r), so traces can replay any round without
// storing the whole history. Participant sets are memoized (cheap) while
// full RoundRecords (tensors) are produced on request.
// The job is also the round directory (who trained when) that caching
// policies read to prefetch data they have not seen yet.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "fed/client.hpp"
#include "fed/metadata.hpp"
#include "models/model_zoo.hpp"

namespace flstore::fed {

struct FLJobConfig {
  std::string model = "efficientnet_v2_s";
  std::int32_t pool_size = 250;       ///< client population
  std::int32_t clients_per_round = 10;
  RoundId rounds = 1000;
  double malicious_fraction = 0.10;   ///< planted poisoners in the pool
  double straggler_fraction = 0.15;
  std::uint64_t seed = 1234;
};

class FLJob {
 public:
  explicit FLJob(FLJobConfig config);

  [[nodiscard]] const FLJobConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ModelSpec& model() const noexcept { return *model_; }
  [[nodiscard]] const std::vector<SimClient>& clients() const noexcept {
    return clients_;
  }
  [[nodiscard]] const SimClient& client(ClientId id) const;

  /// Generate round r's full record (deterministic, includes FedAvg output).
  [[nodiscard]] RoundRecord make_round(RoundId r) const;

  /// Ids of planted malicious clients (ground truth for workload tests).
  [[nodiscard]] std::vector<ClientId> malicious_clients() const;

  // Round directory -------------------------------------------------------
  /// Highest round that has finished training (data exists up to here).
  [[nodiscard]] RoundId latest_round() const { return config_.rounds - 1; }
  /// Participants of a round (empty if out of range).
  [[nodiscard]] std::vector<ClientId> participants(RoundId r) const
      EXCLUDES(participants_mu_);
  /// Searches the participants memo in place: no copy of the round's set.
  [[nodiscard]] bool participated(ClientId c, RoundId r) const
      EXCLUDES(participants_mu_);
  /// The last `k` rounds <= `upto` in which `c` participated, ascending.
  [[nodiscard]] std::vector<RoundId> participation_window(ClientId c,
                                                          RoundId upto,
                                                          int k) const;
  /// First round strictly after `r` (and <= latest) where `c` participates.
  [[nodiscard]] std::optional<RoundId> next_participation(ClientId c,
                                                          RoundId r) const;

  /// The round's true descent direction (exposed for tests).
  [[nodiscard]] Tensor global_direction(RoundId r) const
      EXCLUDES(participants_mu_);

  /// Hyperparameter schedule: step-decayed learning rate.
  [[nodiscard]] Hyperparameters hyperparameters(RoundId r) const;

 private:
  /// Round r's participants (r in range), drawn on first use. The caller
  /// holds the lock for as long as it reads the returned set.
  [[nodiscard]] const std::vector<ClientId>& participants_locked(
      RoundId r) const REQUIRES(participants_mu_);

  FLJobConfig config_;
  const ModelSpec* model_;
  std::vector<SimClient> clients_;
  /// Guards the memos below: one job may serve several concurrent tenants,
  /// and the serving plane prepares a tenant's next round on another thread.
  mutable Mutex participants_mu_;
  mutable std::vector<std::vector<ClientId>> participants_cache_
      GUARDED_BY(participants_mu_);
  /// global_direction's unit-norm parts: the base, drawn once per job, and
  /// the base plus its drift, renormalized, once per 25-round block (empty
  /// until a round of the block asks).
  mutable Tensor direction_base_ GUARDED_BY(participants_mu_);
  mutable std::vector<Tensor> direction_blocks_ GUARDED_BY(participants_mu_);
};

}  // namespace flstore::fed
