#include "tensor/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace flstore {

namespace {

// k-means++ seeding: first centroid uniform, then proportional to squared
// distance from the nearest chosen centroid. d2 folds in each new centroid
// as it is chosen; min is exact, so it equals the min over every chosen
// centroid recomputed from scratch.
std::vector<Tensor> seed_centroids(std::span<const Tensor* const> points,
                                   std::int32_t k, Rng& rng) {
  std::vector<Tensor> centroids;
  centroids.reserve(static_cast<std::size_t>(k));
  const auto first =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1));
  centroids.push_back(*points[first]);

  std::vector<double> d2(points.size(), std::numeric_limits<double>::max());
  std::vector<double> dist(points.size());
  while (centroids.size() < static_cast<std::size_t>(k)) {
    ops::l2_distance_many(centroids.back(), points, dist);
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], dist[i] * dist[i]);
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; duplicate one.
      centroids.push_back(*points[0]);
      continue;
    }
    double r = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(*points[chosen]);
  }
  return centroids;
}

}  // namespace

KMeansResult kmeans(const std::vector<Tensor>& points, std::int32_t k,
                    Rng& rng, const KMeansOptions& opts) {
  FLSTORE_CHECK(!points.empty());
  FLSTORE_CHECK(k >= 1 && static_cast<std::size_t>(k) <= points.size());
  const std::size_t dim = points[0].dim();
  for (const auto& p : points) FLSTORE_CHECK(p.dim() == dim);

  const auto view = ops::pointers_to(points);

  KMeansResult res;
  res.centroids = seed_centroids(view, k, rng);
  res.assignment.assign(points.size(), 0);

  // dist[c][i] = l2_distance(points[i], centroid c): one pass per centroid.
  std::vector<std::vector<double>> dist(static_cast<std::size_t>(k),
                                        std::vector<double>(points.size()));
  // Whether the tolerance check stops the loop after a step whose inertia
  // went from `prev` to `cur`.
  const auto stops = [&opts](double prev, double cur) {
    if (!(prev < std::numeric_limits<double>::max())) return false;
    const double rel = prev > 0.0 ? (prev - cur) / prev : 0.0;
    return rel >= 0.0 && rel < opts.tolerance;
  };
  double prev_inertia = std::numeric_limits<double>::max();
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    // Assignment step.
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      ops::l2_distance_many(res.centroids[c], view, dist[c]);
    }
    // From the second step on, whether every point kept its cluster.
    bool repeated = iter > 0;
    double inertia = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      std::int32_t best_c = 0;
      for (std::int32_t c = 0; c < k; ++c) {
        const double d = dist[static_cast<std::size_t>(c)][i];
        if (d * d < best) {
          best = d * d;
          best_c = c;
        }
      }
      repeated = repeated && res.assignment[i] == best_c;
      res.assignment[i] = best_c;
      inertia += best;
    }
    res.inertia = inertia;

    // Update step. A repeated assignment would rebuild every centroid bit
    // for bit (same members in the same order; an empty cluster keeps its
    // centroid either way), so it is skipped.
    if (!repeated) {
      std::vector<std::vector<double>> acc(
          static_cast<std::size_t>(k), std::vector<double>(dim, 0.0));
      std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto c = static_cast<std::size_t>(res.assignment[i]);
        ++counts[c];
        for (std::size_t d = 0; d < dim; ++d) {
          acc[c][d] += static_cast<double>(points[i][d]);
        }
      }
      for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
        if (counts[c] == 0) continue;  // keep previous centroid
        for (std::size_t d = 0; d < dim; ++d) {
          res.centroids[c][d] =
              static_cast<float>(acc[c][d] / static_cast<double>(counts[c]));
        }
      }
    }

    if (stops(prev_inertia, inertia)) {
      res.converged = true;
      break;
    }
    // With the centroids unchanged, the next step would find the same
    // distances, assignment and inertia, and its check would see the
    // inertia repeat. Return what it would, without running it.
    if (repeated && iter + 1 < opts.max_iterations &&
        stops(inertia, inertia)) {
      res.iterations = iter + 2;
      res.converged = true;
      break;
    }
    prev_inertia = inertia;
  }
  return res;
}

}  // namespace flstore
