// P2 family, heavy half: Debugging (FedDebug-style differential testing over
// a window of rounds) and Incentives (leave-one-out contributions).
#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "fed/aggregator.hpp"
#include "tensor/ops.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {
namespace {

/// Debugging inspects the requested round plus the one before it (FedDebug
/// replays the current breakpoint against the previous state). §5.4:
/// FLStore caches "the current training round's metadata rather than
/// outdated information", so the window matches the P2 round cache.
constexpr int kDebugWindowRounds = 2;
constexpr int kDebugProbes = 16;

class DebuggingWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kDebugging;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    std::vector<MetadataKey> keys;
    const auto first = std::max<RoundId>(0, req.round - kDebugWindowRounds + 1);
    for (RoundId r = first; r <= req.round; ++r) {
      for (const auto c : dir.participants(r)) {
        keys.push_back(MetadataKey::update(c, r));
      }
    }
    return keys;
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    if (in.updates.empty()) {
      throw InvalidArgument("debugging needs client updates");
    }
    // Differential neuron-activation testing: push seeded probes through
    // each update of the requested round; a client whose activation vector
    // deviates from the per-probe consensus is the suspect.
    std::vector<const fed::ClientUpdate*> target_round;
    for (const auto& u : in.updates) {
      if (u.round == req.round) target_round.push_back(&u);
    }
    if (target_round.empty()) {
      throw InvalidArgument("debugging input lacks the requested round");
    }
    const auto dim = target_round.front()->delta.dim();
    const auto batch = probe_batch(*round_probes(req.round, dim));
    const auto& probes = *batch;

    // activation[c][p] = tanh(<delta_c, probe_p> / sqrt(dim))
    const double scale = std::sqrt(static_cast<double>(dim));
    const auto probe_view = ops::pointers_to(probes);
    std::vector<std::vector<double>> activations(target_round.size());
    std::vector<double> consensus(kDebugProbes, 0.0);
    for (std::size_t c = 0; c < target_round.size(); ++c) {
      auto& act = activations[c];
      act.resize(kDebugProbes);
      ops::dot_many(target_round[c]->delta, probe_view, act);
      for (std::size_t p = 0; p < act.size(); ++p) {
        act[p] = std::tanh(act[p] / scale);
        consensus[p] += act[p];
      }
    }
    for (auto& v : consensus) v /= static_cast<double>(target_round.size());

    WorkloadOutput out;
    double worst = -1.0;
    ClientId suspect = kNoClient;
    for (std::size_t c = 0; c < target_round.size(); ++c) {
      double dev = 0.0;
      for (int p = 0; p < kDebugProbes; ++p) {
        const double d =
            activations[c][static_cast<std::size_t>(p)] - consensus[static_cast<std::size_t>(p)];
        dev += d * d;
      }
      dev = std::sqrt(dev);
      out.clients.push_back(target_round[c]->client);
      out.per_client.push_back(dev);
      if (dev > worst) {
        worst = dev;
        suspect = target_round[c]->client;
      }
    }
    out.selected = {suspect};

    // Regression check across the replay window: drift of mean update
    // between consecutive rounds (a rewind-and-compare pass).
    std::vector<Tensor> round_means;
    const auto first = std::max<RoundId>(0, req.round - kDebugWindowRounds + 1);
    for (RoundId r = first; r <= req.round; ++r) {
      std::vector<Tensor> members;
      for (const auto& u : in.updates) {
        if (u.round == r) members.push_back(u.delta);
      }
      if (!members.empty()) round_means.push_back(ops::mean(members));
    }
    double drift = 0.0;
    for (std::size_t i = 1; i < round_means.size(); ++i) {
      drift += ops::l2_distance(round_means[i - 1], round_means[i]);
    }
    out.scalar = worst;

    std::ostringstream s;
    s << "suspect client " << suspect << " (deviation " << worst
      << "), window drift " << drift;
    out.summary = s.str();

    out.work = scan_work(in);
    const double params = logical_params(in);
    // Probe passes over every update of the target round plus the replay
    // diffing over the window.
    out.work.flops +=
        static_cast<double>(target_round.size()) * kDebugProbes * 2.0 * params +
        static_cast<double>(in.updates.size()) * params;
    out.result_bytes = 32 * units::KB;
    return out;
  }

  /// Seeded probes per round: every client of a round sees the same batch.
  [[nodiscard]] std::optional<ProbeSpec> round_probes(
      RoundId round, std::size_t dim) const override {
    return ProbeSpec{0xDEB06 ^ static_cast<std::uint64_t>(round + 1), dim,
                     kDebugProbes};
  }
};

// --- Incentives: leave-one-out contributions ---------------------------------

class IncentivesWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kIncentives;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    std::vector<MetadataKey> keys;
    for (const auto c : dir.participants(req.round)) {
      keys.push_back(MetadataKey::update(c, req.round));
    }
    if (req.round > 0) {
      for (const auto c : dir.participants(req.round - 1)) {
        keys.push_back(MetadataKey::update(c, req.round - 1));
      }
    }
    keys.push_back(MetadataKey::aggregate(req.round));
    return keys;
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    std::vector<const fed::ClientUpdate*> current;
    for (const auto& u : in.updates) {
      if (u.round == req.round) current.push_back(&u);
    }
    if (current.empty()) {
      throw InvalidArgument("incentives needs the requested round's updates");
    }

    WorkloadOutput out;
    // contribution_i = cos(u_i, fedavg without i) * ||u_i||: rewards pulling
    // toward the consensus of everyone else; poisoners earn negative values.
    double total_positive = 0.0;
    std::vector<double> contributions;
    for (const auto* u : current) {
      const double norm = ops::l2_norm(u->delta);
      double contrib = norm;
      if (current.size() > 1) {
        const auto rest = fed::fedavg_excluding(current, {u->client});
        // dots = {dot(rest, u), dot(rest, rest)} in one pass over rest.
        const Tensor* const parts[] = {&u->delta, &rest};
        double dots[2];
        ops::dot_many(rest, parts, dots);
        contrib = ops::cosine_from(dots[0], norm, std::sqrt(dots[1])) * norm;
      }
      out.clients.push_back(u->client);
      contributions.push_back(contrib);
      if (contrib > 0.0) total_positive += contrib;
    }
    // Payouts: a fixed round budget split over positive contributions.
    constexpr double kRoundBudget = 100.0;
    for (std::size_t i = 0; i < contributions.size(); ++i) {
      const double payout =
          (contributions[i] > 0.0 && total_positive > 0.0)
              ? kRoundBudget * contributions[i] / total_positive
              : 0.0;
      out.per_client.push_back(payout);
      if (payout > 0.0) out.selected.push_back(out.clients[i]);
    }
    out.scalar = total_positive;

    std::ostringstream s;
    s << "paid " << out.selected.size() << "/" << current.size()
      << " clients from a " << kRoundBudget << "-unit budget";
    out.summary = s.str();

    out.work = scan_work(in);
    // One FedAvg-excluding pass (2P) plus a cosine (3P) per client, for the
    // current and (trend) previous round.
    out.work.flops += static_cast<double>(in.updates.size()) * 5.0 *
                      logical_params(in);
    out.result_bytes = 8 * units::KB;
    return out;
  }
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_p2_debug_incentives() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<DebuggingWorkload>());
  out.push_back(std::make_unique<IncentivesWorkload>());
  return out;
}
}  // namespace detail

}  // namespace flstore::workloads
