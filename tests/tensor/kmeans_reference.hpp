// k-means written the straightforward way, as the reference the tests hold
// flstore::kmeans to bit for bit: one ops::l2_distance per point-centroid
// pair, and k-means++ seeding that recomputes each point's minimum over
// every chosen centroid on every draw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "tensor/kmeans.hpp"
#include "tensor/ops.hpp"

namespace flstore {

inline KMeansResult reference_kmeans(const std::vector<Tensor>& points,
                                     std::int32_t k, Rng& rng,
                                     const KMeansOptions& opts = {}) {
  const std::size_t n = points.size();
  const auto kk = static_cast<std::size_t>(k);
  const std::size_t dim = points[0].dim();
  constexpr double kMax = std::numeric_limits<double>::max();

  KMeansResult res;
  res.centroids.push_back(points[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
  std::vector<double> d2(n, 0.0);
  while (res.centroids.size() < kk) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = kMax;
      for (const auto& c : res.centroids) {
        const double d = ops::l2_distance(points[i], c);
        best = std::min(best, d * d);
      }
      d2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      res.centroids.push_back(points[0]);
      continue;
    }
    double r = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      r -= d2[i];
      if (r <= 0.0) {
        chosen = i;
        break;
      }
    }
    res.centroids.push_back(points[chosen]);
  }

  res.assignment.assign(n, 0);
  double prev_inertia = kMax;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = kMax;
      std::int32_t best_c = 0;
      for (std::int32_t c = 0; c < k; ++c) {
        const double d = ops::l2_distance(
            points[i], res.centroids[static_cast<std::size_t>(c)]);
        if (d * d < best) {
          best = d * d;
          best_c = c;
        }
      }
      res.assignment[i] = best_c;
      inertia += best;
    }
    res.inertia = inertia;

    std::vector<std::vector<double>> acc(kk, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(kk, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) {
        acc[c][d] += static_cast<double>(points[i][d]);
      }
    }
    for (std::size_t c = 0; c < kk; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d) {
        res.centroids[c][d] =
            static_cast<float>(acc[c][d] / static_cast<double>(counts[c]));
      }
    }

    if (prev_inertia < kMax) {
      const double rel =
          prev_inertia > 0.0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0.0 && rel < opts.tolerance) {
        res.converged = true;
        break;
      }
    }
    prev_inertia = inertia;
  }
  return res;
}

}  // namespace flstore
