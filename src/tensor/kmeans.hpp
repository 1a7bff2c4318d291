// Lloyd's k-means over tensors. Used by the Clustering, Personalization and
// Sched-Cluster workloads (Auxo/TiFL-style grouping of client updates).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace flstore {

struct KMeansResult {
  std::vector<Tensor> centroids;        // size k
  std::vector<std::int32_t> assignment; // size n, values in [0, k)
  double inertia = 0.0;                 // sum of squared distances
  int iterations = 0;
  bool converged = false;
};

struct KMeansOptions {
  int max_iterations = 50;
  double tolerance = 1e-6;  // relative inertia improvement to keep going
};

/// Runs k-means with k-means++-style seeding (deterministic given rng).
/// Requires 1 <= k <= points.size() and equal dimensions.
///
/// Lloyd steps run until one improves the inertia by a relative amount in
/// [0, tolerance) (converged) or max_iterations steps have run. A step whose
/// assignment repeats the previous step's leaves every centroid as it was,
/// so the next step would find the same inertia and stop on an improvement
/// of exactly 0. kmeans stops there without running that confirming step
/// and returns what it would: the same centroids, assignment and inertia,
/// converged, with the step counted in `iterations`. It does so only when
/// max_iterations allows that step and the tolerance is positive.
[[nodiscard]] KMeansResult kmeans(const std::vector<Tensor>& points,
                                  std::int32_t k, Rng& rng,
                                  const KMeansOptions& opts = {});

}  // namespace flstore
