// P2 family, round-analytics half: workloads that scan all client updates of
// one round — Cosine Similarity, Malicious Filtering, Clustering,
// Personalization and TiFL-style cluster scheduling.
#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/aggregator.hpp"
#include "tensor/kmeans.hpp"
#include "tensor/ops.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {
namespace {

constexpr std::int32_t kClusters = 3;
/// Median-pairwise-cosine below this flags a client as malicious.
constexpr double kMaliciousThreshold = 0.1;

std::vector<MetadataKey> round_updates(RoundId r, const fed::FLJob& dir) {
  std::vector<MetadataKey> keys;
  for (const auto c : dir.participants(r)) {
    keys.push_back(MetadataKey::update(c, r));
  }
  return keys;
}

void require_updates(const WorkloadInput& in, const char* who) {
  if (in.updates.empty()) {
    throw InvalidArgument(std::string(who) + " needs client updates");
  }
}

std::vector<Tensor> deltas_of(const WorkloadInput& in) {
  std::vector<Tensor> out;
  out.reserve(in.updates.size());
  for (const auto& u : in.updates) out.push_back(u.delta);
  return out;
}

/// cos[i][j] for every pair of the input's updates: row i's one pass over
/// update i yields its squared norm and its dots with every j > i, and
/// ops::cosine_from combines them. Bit-identical to calling
/// ops::cosine_similarity on each ordered pair. The diagonal is unused.
std::vector<std::vector<double>> pairwise_cosines(const WorkloadInput& in) {
  const auto n = in.updates.size();
  std::vector<const Tensor*> deltas;
  deltas.reserve(n);
  for (const auto& u : in.updates) deltas.push_back(&u.delta);
  // Upper triangle first holds dot(delta_i, delta_j) for j >= i.
  std::vector<std::vector<double>> cos(n, std::vector<double>(n, 1.0));
  std::vector<double> norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops::dot_many(*deltas[i], std::span(deltas).subspan(i),
                  std::span(cos[i]).subspan(i));
    norms[i] = std::sqrt(cos[i][i]);
    cos[i][i] = 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      cos[i][j] = cos[j][i] = ops::cosine_from(cos[i][j], norms[i], norms[j]);
    }
  }
  return cos;
}

/// Pairwise-cosine flop cost: each pair costs ~3P (dot + two norms,
/// amortized) at the real model's parameter count.
double pairwise_flops(std::size_t n, double params) {
  return static_cast<double>(n * (n - 1) / 2) * 3.0 * params;
}

// --- Cosine similarity ----------------------------------------------------

class CosineSimilarityWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kCosineSimilarity;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    return round_updates(req.round, dir);
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest&,
                                       const WorkloadInput& in) const override {
    require_updates(in, "cosine_similarity");
    const auto n = in.updates.size();
    const auto cos = pairwise_cosines(in);
    WorkloadOutput out;
    double sum = 0.0;
    double min_cos = 1.0;
    std::size_t pairs = 0;
    ClientId a = kNoClient, b = kNoClient;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double c = cos[i][j];
        sum += c;
        ++pairs;
        if (c < min_cos) {
          min_cos = c;
          a = in.updates[i].client;
          b = in.updates[j].client;
        }
      }
    }
    out.scalar = pairs > 0 ? sum / static_cast<double>(pairs) : 1.0;
    if (a != kNoClient) out.selected = {a, b};
    std::ostringstream s;
    s << "mean pairwise cosine " << out.scalar << ", most dissimilar pair ("
      << a << "," << b << ") at " << min_cos;
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += pairwise_flops(n, logical_params(in));
    out.result_bytes = 16 * units::KB;
    return out;
  }
};

// --- Malicious filtering ----------------------------------------------------

class MaliciousFilterWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kMaliciousFilter;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    // Detection is intra-round (median pairwise agreement), so one round of
    // updates suffices — which is also what keeps Table 2's access count at
    // exactly clients_per_round per request.
    return round_updates(req.round, dir);
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest&,
                                       const WorkloadInput& in) const override {
    require_updates(in, "malicious_filter");
    const auto n = in.updates.size();
    const auto cos = pairwise_cosines(in);
    WorkloadOutput out;
    // Robust score: median cosine to the other updates; poisoners disagree
    // with the honest majority regardless of how many land in the round.
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> cosines;
      cosines.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) cosines.push_back(cos[i][j]);
      }
      const double score = cosines.empty() ? 1.0 : median(std::move(cosines));
      out.clients.push_back(in.updates[i].client);
      out.per_client.push_back(score);
      if (score < kMaliciousThreshold) {
        out.selected.push_back(in.updates[i].client);
      }
    }
    out.scalar = static_cast<double>(out.selected.size());
    std::ostringstream s;
    s << "flagged " << out.selected.size() << "/" << n << " clients";
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += pairwise_flops(n, logical_params(in)) * 2.0;
    out.result_bytes = 8 * units::KB;
    return out;
  }
};

// --- Clustering (Auxo-style) -----------------------------------------------

class ClusteringWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kClustering;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    return round_updates(req.round, dir);
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    require_updates(in, "clustering");
    const auto points = deltas_of(in);
    const auto k = std::min<std::int32_t>(
        kClusters, static_cast<std::int32_t>(points.size()));
    Rng rng(0xC105ULL + static_cast<std::uint64_t>(req.round));
    const auto res = kmeans(points, k, rng);
    WorkloadOutput out;
    for (std::size_t i = 0; i < in.updates.size(); ++i) {
      out.clients.push_back(in.updates[i].client);
      out.per_client.push_back(static_cast<double>(res.assignment[i]));
    }
    out.scalar = res.inertia;
    std::ostringstream s;
    s << "k=" << k << " clusters, inertia " << res.inertia << " after "
      << res.iterations << " iterations";
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += static_cast<double>(res.iterations) *
                      static_cast<double>(points.size()) *
                      static_cast<double>(k) * 2.0 * logical_params(in);
    out.result_bytes = 8 * units::KB;
    return out;
  }
};

// --- Personalization ---------------------------------------------------------

class PersonalizationWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kPersonalization;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    auto keys = round_updates(req.round, dir);
    keys.push_back(MetadataKey::aggregate(req.round));
    return keys;
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    require_updates(in, "personalization");
    const auto points = deltas_of(in);
    const auto k = std::min<std::int32_t>(
        kClusters, static_cast<std::int32_t>(points.size()));
    Rng rng(0x9E450 + static_cast<std::uint64_t>(req.round));
    const auto res = kmeans(points, k, rng);

    // Per-group personalized model = group FedAvg, blended with the global
    // aggregate when available (FedSoft-style proximal blend).
    std::vector<std::vector<fed::ClientUpdate>> groups(
        static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < in.updates.size(); ++i) {
      groups[static_cast<std::size_t>(res.assignment[i])].push_back(
          in.updates[i]);
    }
    int built = 0;
    double blend_gap = 0.0;
    for (const auto& g : groups) {
      if (g.empty()) continue;
      auto personalized = fed::fedavg(g);
      if (!in.aggregates.empty()) {
        const auto& global = in.aggregates.front().model;
        Tensor blended = personalized;
        ops::scale(blended, 0.7);
        ops::axpy(0.3, global, blended);
        blend_gap += ops::l2_distance(personalized, global);
        personalized = std::move(blended);
      }
      ++built;
    }
    WorkloadOutput out;
    for (std::size_t i = 0; i < in.updates.size(); ++i) {
      out.clients.push_back(in.updates[i].client);
      out.per_client.push_back(static_cast<double>(res.assignment[i]));
    }
    out.scalar = built > 0 ? blend_gap / built : 0.0;
    std::ostringstream s;
    s << "built " << built << " personalized models, mean group-global gap "
      << out.scalar;
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += static_cast<double>(res.iterations) *
                          static_cast<double>(points.size()) *
                          static_cast<double>(k) * 2.0 * logical_params(in) +
                      static_cast<double>(points.size()) * logical_params(in);
    out.result_bytes = 32 * units::KB;
    return out;
  }
};

// --- Scheduling by clustering (TiFL-style tiers) -----------------------------

class SchedulingClusterWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kSchedulingCluster;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::FLJob& dir) const override {
    return round_updates(req.round, dir);
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    require_updates(in, "scheduling_cluster");
    const auto points = deltas_of(in);
    const auto k = std::min<std::int32_t>(
        kClusters, static_cast<std::int32_t>(points.size()));
    Rng rng(0x71F1 + static_cast<std::uint64_t>(req.round));
    const auto res = kmeans(points, k, rng);

    // Pick the tier whose members agree most with the round consensus
    // (mean update): those clients train productively and are scheduled
    // preferentially next round.
    const auto consensus = ops::mean(points);
    // One pass over the consensus: its dot with every point, then its own
    // squared norm last.
    auto view = ops::pointers_to(points);
    view.push_back(&consensus);
    std::vector<double> dots(view.size());
    ops::dot_many(consensus, view, dots);
    const double consensus_norm = std::sqrt(dots.back());
    std::vector<double> tier_score(static_cast<std::size_t>(k), 0.0);
    std::vector<int> tier_count(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto t = static_cast<std::size_t>(res.assignment[i]);
      tier_score[t] += ops::cosine_from(dots[i], ops::l2_norm(points[i]),
                                        consensus_norm);
      ++tier_count[t];
    }
    std::size_t best_tier = 0;
    double best = -2.0;
    for (std::size_t t = 0; t < tier_score.size(); ++t) {
      if (tier_count[t] == 0) continue;
      const double avg = tier_score[t] / tier_count[t];
      if (avg > best) {
        best = avg;
        best_tier = t;
      }
    }
    WorkloadOutput out;
    for (std::size_t i = 0; i < in.updates.size(); ++i) {
      out.clients.push_back(in.updates[i].client);
      out.per_client.push_back(static_cast<double>(res.assignment[i]));
      if (static_cast<std::size_t>(res.assignment[i]) == best_tier) {
        out.selected.push_back(in.updates[i].client);
      }
    }
    out.scalar = best;
    std::ostringstream s;
    s << "scheduled tier " << best_tier << " (" << out.selected.size()
      << " clients, consensus score " << best << ")";
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += static_cast<double>(res.iterations) *
                          static_cast<double>(points.size()) *
                          static_cast<double>(k) * 2.0 * logical_params(in) +
                      pairwise_flops(points.size(), logical_params(in)) * 0.2;
    out.result_bytes = 4 * units::KB;
    return out;
  }
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_p2_round_analytics() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<CosineSimilarityWorkload>());
  out.push_back(std::make_unique<MaliciousFilterWorkload>());
  out.push_back(std::make_unique<ClusteringWorkload>());
  out.push_back(std::make_unique<PersonalizationWorkload>());
  out.push_back(std::make_unique<SchedulingClusterWorkload>());
  return out;
}
}  // namespace detail

}  // namespace flstore::workloads
