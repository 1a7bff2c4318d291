// P4 family: metadata/hyperparameter workloads — Oort-style performance
// scheduling over client-metric windows and hyperparameter-trajectory
// tracking. Objects here are KB-scale; policy P4 keeps the most recent R
// rounds write-allocated.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {
namespace {

/// Hyperparameter-trajectory window (bounded by the P4 cache window R = 10).
constexpr RoundId kPerfWindow = 10;
constexpr std::size_t kSelectTarget = 10;
/// Oort's preferred round duration; slower clients are penalized.
constexpr double kDeadlineS = 600.0;

class SchedulingPerfWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kSchedulingPerf;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    // Only the *current* round's resource telemetry: §4.4 (P4) — "current
    // resource information is critical, as outdated data could cause
    // clients to miss training deadlines". One fresh metrics object per
    // participant, which is also Table 2's P4 access accounting.
    std::vector<MetadataKey> keys;
    for (const auto c : dir.participants(req.round)) {
      keys.push_back(MetadataKey::metrics(c, req.round));
    }
    return keys;
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest&,
                                       const WorkloadInput& in) const override {
    if (in.metrics.empty()) {
      throw InvalidArgument("scheduling_perf needs client metrics");
    }
    // Oort utility: statistical utility (loss * sqrt(samples)) times a
    // system penalty when the client exceeds the round deadline.
    struct Agg {
      double utility_sum = 0.0;
      int observations = 0;
    };
    std::unordered_map<ClientId, Agg> per_client;
    for (const auto& m : in.metrics) {
      const double stat =
          m.local_loss * std::sqrt(static_cast<double>(std::max(m.num_samples, 1)));
      const double duration = m.train_time_s + m.upload_time_s;
      const double penalty =
          duration > kDeadlineS ? kDeadlineS / duration : 1.0;
      auto& agg = per_client[m.client];
      agg.utility_sum += stat * penalty;
      ++agg.observations;
    }
    WorkloadOutput out;
    std::vector<std::pair<ClientId, double>> utilities;
    for (const auto& [client, agg] : per_client) {
      utilities.emplace_back(client, agg.utility_sum / agg.observations);
    }
    std::sort(utilities.begin(), utilities.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (const auto& [client, utility] : utilities) {
      out.clients.push_back(client);
      out.per_client.push_back(utility);
    }
    const auto n_select = std::min(kSelectTarget, utilities.size());
    for (std::size_t i = 0; i < n_select; ++i) {
      out.selected.push_back(utilities[i].first);
    }
    out.scalar = utilities.empty() ? 0.0 : utilities.front().second;
    std::ostringstream s;
    s << "selected " << out.selected.size() << " of " << utilities.size()
      << " candidates, top utility " << out.scalar;
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += static_cast<double>(in.metrics.size()) * 50.0;
    out.result_bytes = 2 * units::KB;
    return out;
  }
};

class HyperparamTrackingWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kHyperparamTracking;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req, const fed::FLJob&) const override {
    std::vector<MetadataKey> keys;
    const auto first = std::max<RoundId>(0, req.round - kPerfWindow + 1);
    for (RoundId r = first; r <= req.round; ++r) {
      keys.push_back(MetadataKey::metadata(r));
    }
    return keys;
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest&,
                                       const WorkloadInput& in) const override {
    if (in.round_infos.size() < 2) {
      throw InvalidArgument(
          "hyperparam_tracking needs at least two rounds of info");
    }
    // Loss slope over the window decides the tuning suggestion: decay the
    // learning rate when training plateaus, keep it while loss still falls.
    auto infos = in.round_infos;
    std::sort(infos.begin(), infos.end(),
              [](const auto& a, const auto& b) { return a.round < b.round; });
    const double first_loss = infos.front().global_loss;
    const double last_loss = infos.back().global_loss;
    const double rel_improvement =
        first_loss > 0.0 ? (first_loss - last_loss) / first_loss : 0.0;
    const bool plateau = rel_improvement < 0.02;

    WorkloadOutput out;
    out.scalar = rel_improvement;
    std::ostringstream s;
    s << (plateau ? "suggest lr decay" : "keep lr") << " (window improvement "
      << rel_improvement * 100.0 << "%, lr "
      << infos.back().hparams.learning_rate << ")";
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += static_cast<double>(infos.size()) * 20.0;
    out.result_bytes = 1 * units::KB;
    return out;
  }
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_p4_metadata() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<SchedulingPerfWorkload>());
  out.push_back(std::make_unique<HyperparamTrackingWorkload>());
  return out;
}
}  // namespace detail

}  // namespace flstore::workloads
