#include "fed/fl_job.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fed/aggregator.hpp"
#include "tensor/ops.hpp"

namespace flstore::fed {

namespace {

/// global_direction's drift component changes every this many rounds.
constexpr RoundId kDriftBlockRounds = 25;

}  // namespace

FLJob::FLJob(FLJobConfig config)
    : config_(std::move(config)),
      model_(&ModelZoo::instance().get(config_.model)) {
  FLSTORE_CHECK(config_.pool_size > 0);
  FLSTORE_CHECK(config_.clients_per_round > 0);
  FLSTORE_CHECK(config_.clients_per_round <= config_.pool_size);
  FLSTORE_CHECK(config_.rounds > 0);
  FLSTORE_CHECK(config_.malicious_fraction >= 0.0 &&
                config_.malicious_fraction < 1.0);

  const auto dim = model_->materialized_dim();
  clients_.reserve(static_cast<std::size_t>(config_.pool_size));
  // Behavior assignment is deterministic round-robin over the pool: the
  // first ceil(f*N) ids after a fixed offset are malicious, the next chunk
  // stragglers. Using fixed ids (not a random draw) keeps ground truth
  // trivially recoverable in tests.
  const auto n_mal = static_cast<ClientId>(
      std::ceil(config_.malicious_fraction * config_.pool_size));
  const auto n_strag = static_cast<ClientId>(
      std::ceil(config_.straggler_fraction * config_.pool_size));
  for (ClientId id = 0; id < config_.pool_size; ++id) {
    ClientBehavior b = ClientBehavior::kHonest;
    if (id < n_mal) {
      b = ClientBehavior::kMalicious;
    } else if (id < n_mal + n_strag) {
      b = ClientBehavior::kStraggler;
    }
    clients_.emplace_back(id, dim, b, config_.seed);
  }
  participants_cache_.resize(static_cast<std::size_t>(config_.rounds));
  direction_blocks_.resize(static_cast<std::size_t>(
      (config_.rounds + kDriftBlockRounds - 1) / kDriftBlockRounds));
}

const SimClient& FLJob::client(ClientId id) const {
  FLSTORE_CHECK(id >= 0 && static_cast<std::size_t>(id) < clients_.size());
  return clients_[static_cast<std::size_t>(id)];
}

std::vector<ClientId> FLJob::malicious_clients() const {
  std::vector<ClientId> out;
  for (const auto& c : clients_) {
    if (c.malicious()) out.push_back(c.id());
  }
  return out;
}

const std::vector<ClientId>& FLJob::participants_locked(RoundId r) const {
  auto& cached = participants_cache_[static_cast<std::size_t>(r)];
  if (cached.empty()) {
    Rng rng(config_.seed ^ (static_cast<std::uint64_t>(r) * 0x51DEC0DEULL) ^
            0xA11CE);
    cached = rng.sample_without_replacement(config_.pool_size,
                                            config_.clients_per_round);
  }
  return cached;
}

std::vector<ClientId> FLJob::participants(RoundId r) const {
  if (r < 0 || r >= config_.rounds) return {};
  // The memo is guarded: one FLJob may back several serving-plane tenants
  // whose discrete-event tasks run on pool threads concurrently.
  const MutexLock lock(participants_mu_);
  return participants_locked(r);
}

bool FLJob::participated(ClientId c, RoundId r) const {
  if (r < 0 || r >= config_.rounds) return false;
  const MutexLock lock(participants_mu_);
  const auto& parts = participants_locked(r);
  return std::find(parts.begin(), parts.end(), c) != parts.end();
}

std::vector<RoundId> FLJob::participation_window(ClientId c, RoundId upto,
                                                 int k) const {
  std::vector<RoundId> out;
  for (RoundId r = std::min(upto, latest_round()); r >= 0 && k > 0; --r) {
    if (participated(c, r)) {
      out.push_back(r);
      --k;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::optional<RoundId> FLJob::next_participation(ClientId c,
                                                 RoundId r) const {
  for (RoundId next = r + 1; next <= latest_round(); ++next) {
    if (participated(c, next)) return next;
  }
  return std::nullopt;
}

Tensor FLJob::global_direction(RoundId r) const {
  FLSTORE_CHECK(r >= 0 && r < config_.rounds);
  // Smoothly drifting descent direction: a fixed base plus a slowly
  // rotating component, so consecutive rounds correlate (as real training
  // trajectories do) but distant rounds differ. Both depend on the round
  // only through its block, so each block's unit direction is drawn once.
  const auto block = static_cast<std::uint64_t>(r / kDriftBlockRounds);
  Tensor direction;
  {
    const MutexLock lock(participants_mu_);
    auto& unit = direction_blocks_[block];
    if (unit.empty()) {
      const auto dim = model_->materialized_dim();
      if (direction_base_.empty()) {
        Rng base_rng(config_.seed ^ 0xD1FEC710ULL);
        direction_base_ = ops::random_normal(dim, base_rng);
        ops::scale(direction_base_, 1.0 / ops::l2_norm(direction_base_));
      }
      Rng drift_rng(config_.seed ^ ((block + 1) * 0x5EEDBEEFULL));
      auto drift = ops::random_normal(dim, drift_rng);
      ops::scale(drift, 1.0 / ops::l2_norm(drift));
      unit = direction_base_;
      ops::axpy(0.35, drift, unit);
      ops::scale(unit, 1.0 / ops::l2_norm(unit));
    }
    direction = unit;
  }
  // Update magnitude decays as training converges.
  const double progress =
      static_cast<double>(r) / static_cast<double>(config_.rounds);
  ops::scale(direction, std::exp(-1.0 * progress) + 0.2);
  return direction;
}

Hyperparameters FLJob::hyperparameters(RoundId r) const {
  Hyperparameters h;
  // Step decay every 250 rounds, standard cross-device schedule.
  h.learning_rate = 0.05 * std::pow(0.5, static_cast<double>(r / 250));
  h.batch_size = 32;
  h.momentum = 0.9;
  h.local_epochs = 2;
  return h;
}

RoundRecord FLJob::make_round(RoundId r) const {
  FLSTORE_CHECK(r >= 0 && r < config_.rounds);
  RoundRecord rec;
  rec.round = r;
  rec.hparams = hyperparameters(r);
  rec.model_bytes = model_->object_bytes;

  const auto direction = global_direction(r);
  const double progress =
      static_cast<double>(r) / static_cast<double>(config_.rounds);

  Rng round_rng(config_.seed ^ (static_cast<std::uint64_t>(r) + 1) *
                                   0xBADC0DEULL);
  for (const auto cid : participants(r)) {
    auto out = client(cid).train_round(r, direction, progress,
                                       model_->object_bytes,
                                       model_->gflops_forward, round_rng);
    rec.updates.push_back(std::move(out.update));
    rec.metrics.push_back(out.metrics);
  }
  rec.aggregate = fedavg(rec.updates);
  rec.global_loss = 2.3 * std::exp(-2.2 * progress);
  return rec;
}

}  // namespace flstore::fed
