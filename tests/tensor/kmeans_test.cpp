#include "tensor/kmeans.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>
#include <string>

#include "common/error.hpp"
#include "kmeans_reference.hpp"
#include "tensor/ops.hpp"

namespace flstore {
namespace {

// Three well-separated blobs in 8-D.
std::vector<Tensor> blobs(Rng& rng, int per_cluster, double sep) {
  std::vector<Tensor> pts;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      auto t = ops::random_normal(8, rng, 0.0, 0.3);
      t[0] += static_cast<float>(sep * c);
      pts.push_back(std::move(t));
    }
  }
  return pts;
}

TEST(KMeans, RecoversSeparatedClusters) {
  Rng rng(1);
  const auto pts = blobs(rng, 20, 10.0);
  const auto res = kmeans(pts, 3, rng);
  // All points of one blob share a label, labels differ across blobs.
  std::set<std::int32_t> labels;
  for (int c = 0; c < 3; ++c) {
    const auto first = res.assignment[static_cast<std::size_t>(c * 20)];
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(res.assignment[static_cast<std::size_t>(c * 20 + i)], first);
    }
    labels.insert(first);
  }
  EXPECT_EQ(labels.size(), 3U);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(2);
  const auto pts = blobs(rng, 15, 5.0);
  Rng r1(3), r2(3);
  const auto k1 = kmeans(pts, 1, r1);
  const auto k3 = kmeans(pts, 3, r2);
  EXPECT_LT(k3.inertia, k1.inertia);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  Rng rng(4);
  std::vector<Tensor> pts;
  for (int i = 0; i < 5; ++i) pts.push_back(ops::random_normal(4, rng));
  const auto res = kmeans(pts, 5, rng);
  EXPECT_NEAR(res.inertia, 0.0, 1e-9);
}

TEST(KMeans, SingleClusterCentroidIsMean) {
  Rng rng(5);
  std::vector<Tensor> pts;
  for (int i = 0; i < 10; ++i) pts.push_back(ops::random_normal(4, rng));
  const auto res = kmeans(pts, 1, rng);
  const auto m = ops::mean(pts);
  EXPECT_LT(ops::l2_distance(res.centroids[0], m), 1e-4);
}

TEST(KMeans, AssignmentInRange) {
  Rng rng(6);
  const auto pts = blobs(rng, 10, 2.0);
  const auto res = kmeans(pts, 4, rng);
  EXPECT_EQ(res.assignment.size(), pts.size());
  for (const auto a : res.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
  }
}

TEST(KMeans, DeterministicGivenSeed) {
  Rng rng_a(7), rng_b(7);
  Rng data(8);
  const auto pts = blobs(data, 10, 3.0);
  const auto a = kmeans(pts, 3, rng_a);
  const auto b = kmeans(pts, 3, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, RejectsBadK) {
  Rng rng(9);
  std::vector<Tensor> pts{ops::random_normal(4, rng)};
  EXPECT_THROW((void)kmeans(pts, 0, rng), InternalError);
  EXPECT_THROW((void)kmeans(pts, 2, rng), InternalError);
  EXPECT_THROW((void)kmeans({}, 1, rng), InternalError);
}

TEST(KMeans, IdenticalPointsDoNotCrash) {
  Rng rng(10);
  std::vector<Tensor> pts(6, Tensor(4, 1.0F));
  const auto res = kmeans(pts, 2, rng);
  EXPECT_NEAR(res.inertia, 0.0, 1e-12);
}

// Parameterized: inertia is monotone non-increasing in k on the same data.
class KMeansMonotone : public ::testing::TestWithParam<int> {};

TEST_P(KMeansMonotone, InertiaNonIncreasingInK) {
  Rng data(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto pts = blobs(data, 12, 4.0);
  double prev = -1.0;
  for (int k = 1; k <= 5; ++k) {
    Rng rng(42);
    const auto res = kmeans(pts, k, rng);
    if (prev >= 0.0) {
      // Allow tiny slack: Lloyd's is a local optimum, but with kmeans++ and
      // separated blobs the trend must hold.
      EXPECT_LE(res.inertia, prev * 1.05);
    }
    prev = res.inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansMonotone, ::testing::Range(0, 5));

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dim() == b.dim() &&
         std::memcmp(a.span().data(), b.span().data(),
                     a.dim() * sizeof(float)) == 0;
}

void expect_same_result(const KMeansResult& got, const KMeansResult& want) {
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (std::size_t c = 0; c < got.centroids.size(); ++c) {
    EXPECT_TRUE(same_bits(got.centroids[c], want.centroids[c]))
        << "centroid " << c;
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
            std::bit_cast<std::uint64_t>(want.inertia));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

/// Runs kmeans and the one-distance-per-pair reference from the same seed
/// for every k in 1..n, and checks both leave the Rng in the same state.
void expect_matches_reference(const std::vector<Tensor>& pts,
                              std::uint64_t seed) {
  for (std::int32_t k = 1; k <= static_cast<std::int32_t>(pts.size()); ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Rng rng(seed);
    Rng ref_rng(seed);
    expect_same_result(kmeans(pts, k, rng), reference_kmeans(pts, k, ref_rng));
    EXPECT_EQ(rng.uniform(), ref_rng.uniform());
  }
}

// Seeds x point counts x dims: every block and remainder of the multi-point
// distance kernel, and every k for each point set.
class KMeansReference : public ::testing::TestWithParam<int> {};

TEST_P(KMeansReference, BitIdenticalForEveryK) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng data(seed * 7919 + 3);
  for (const std::size_t dim : {1, 7, 33}) {
    for (std::size_t n = 1; n <= 13; ++n) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" + std::to_string(n));
      std::vector<Tensor> pts;
      for (std::size_t i = 0; i < n; ++i) {
        auto t = ops::random_normal(dim, data);
        t[0] += static_cast<float>(4 * (i % 3));
        pts.push_back(std::move(t));
      }
      expect_matches_reference(pts, seed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansReference, ::testing::Range(0, 12));

TEST(KMeansReference, BitIdenticalWhenPointsCoincide) {
  // All points equal: every draw after the first takes the total <= 0
  // branch. Three distinct points among eight: it is taken once the three
  // are chosen.
  const std::vector<Tensor> same(6, Tensor(5, 1.5F));
  Rng data(11);
  const std::vector<Tensor> distinct{ops::random_normal(5, data),
                                     ops::random_normal(5, data),
                                     ops::random_normal(5, data)};
  std::vector<Tensor> repeated;
  for (std::size_t i = 0; i < 8; ++i) repeated.push_back(distinct[i % 3]);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_matches_reference(same, seed);
    expect_matches_reference(repeated, seed);
  }
}

}  // namespace
}  // namespace flstore
