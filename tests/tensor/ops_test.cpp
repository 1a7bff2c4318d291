#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace flstore {
namespace {

Tensor t3(float a, float b, float c) {
  return Tensor(std::vector<float>{a, b, c});
}

TEST(Ops, DotBasic) {
  EXPECT_DOUBLE_EQ(ops::dot(t3(1, 2, 3), t3(4, 5, 6)), 32.0);
}

TEST(Ops, DotDimMismatchThrows) {
  EXPECT_THROW((void)ops::dot(Tensor(3), Tensor(4)), InternalError);
}

TEST(Ops, Norms) {
  EXPECT_DOUBLE_EQ(ops::l2_norm(t3(3, 4, 0)), 5.0);
  EXPECT_DOUBLE_EQ(ops::l2_distance(t3(1, 1, 1), t3(1, 1, 1)), 0.0);
  EXPECT_DOUBLE_EQ(ops::l2_distance(t3(0, 0, 0), t3(3, 4, 0)), 5.0);
}

TEST(Ops, CosineIdenticalIsOne) {
  const auto v = t3(0.5, -2, 1);
  EXPECT_NEAR(ops::cosine_similarity(v, v), 1.0, 1e-6);
}

TEST(Ops, CosineOppositeIsMinusOne) {
  const auto v = t3(1, 2, 3);
  auto w = v;
  ops::scale(w, -1.0);
  EXPECT_NEAR(ops::cosine_similarity(v, w), -1.0, 1e-6);
}

TEST(Ops, CosineOrthogonalIsZero) {
  EXPECT_NEAR(ops::cosine_similarity(t3(1, 0, 0), t3(0, 1, 0)), 0.0, 1e-9);
}

TEST(Ops, CosineZeroVectorIsZero) {
  EXPECT_DOUBLE_EQ(ops::cosine_similarity(t3(0, 0, 0), t3(1, 2, 3)), 0.0);
}

TEST(Ops, CosineScaleInvariant) {
  const auto a = t3(1, 2, 3);
  auto b = t3(2, -1, 0.5);
  const double before = ops::cosine_similarity(a, b);
  ops::scale(b, 42.0);
  EXPECT_NEAR(ops::cosine_similarity(a, b), before, 1e-6);
}

TEST(Ops, AxpyAndAddSub) {
  auto y = t3(1, 1, 1);
  ops::axpy(2.0, t3(1, 2, 3), y);
  EXPECT_EQ(y, t3(3, 5, 7));
  EXPECT_EQ(ops::add(t3(1, 2, 3), t3(1, 1, 1)), t3(2, 3, 4));
  EXPECT_EQ(ops::sub(t3(1, 2, 3), t3(1, 1, 1)), t3(0, 1, 2));
}

TEST(Ops, MeanOfTensors) {
  const auto m = ops::mean({t3(0, 0, 0), t3(2, 4, 6)});
  EXPECT_EQ(m, t3(1, 2, 3));
}

TEST(Ops, WeightedMeanRespectsWeights) {
  const auto m = ops::weighted_mean({t3(0, 0, 0), t3(4, 4, 4)}, {3.0, 1.0});
  EXPECT_EQ(m, t3(1, 1, 1));
}

TEST(Ops, WeightedMeanRejectsBadInput) {
  EXPECT_THROW((void)ops::weighted_mean({}, {}), InternalError);
  EXPECT_THROW((void)ops::weighted_mean({t3(1, 1, 1)}, {0.0}), InternalError);
  EXPECT_THROW((void)ops::weighted_mean({t3(1, 1, 1)}, {1.0, 1.0}),
               InternalError);
}

TEST(Ops, MeanIdempotentOnIdenticalInputs) {
  const auto v = t3(1.5, -2.25, 0.125);  // exactly representable
  EXPECT_EQ(ops::mean({v, v, v}), v);
}

TEST(Ops, RandomNormalDeterministicPerSeed) {
  Rng a(9), b(9);
  EXPECT_EQ(ops::random_normal(16, a), ops::random_normal(16, b));
}

TEST(Ops, Argmax) {
  EXPECT_EQ(ops::argmax(t3(1, 5, 3)), 1U);
  EXPECT_EQ(ops::argmax(t3(7, 7, 7)), 0U);  // first on ties
  EXPECT_THROW((void)ops::argmax(Tensor{}), InternalError);
}

TEST(Ops, TopKOrderedDescending) {
  const auto idx = ops::top_k({0.1, 0.9, 0.5, 0.7}, 3);
  EXPECT_EQ(idx, (std::vector<std::size_t>{1, 3, 2}));
}

TEST(Ops, TopKStableOnTies) {
  const auto idx = ops::top_k({0.5, 0.5, 0.5}, 2);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1}));
}

TEST(Ops, QuantizeBoundsError) {
  Rng rng(3);
  const auto t = ops::random_normal(128, rng);
  const auto q8 = ops::quantize(t, 8);
  EXPECT_DOUBLE_EQ(q8.compression_ratio, 4.0);
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < t.dim(); ++i) {
    max_abs = std::max(max_abs, std::abs(t[i]));
  }
  // Error bounded by half a quantization step.
  const double step = max_abs / 127.0;
  EXPECT_LE(q8.max_abs_error, step * 0.51);
}

TEST(Ops, QuantizeMoreBitsLessError) {
  Rng rng(4);
  const auto t = ops::random_normal(256, rng);
  const auto q4 = ops::quantize(t, 4);
  const auto q8 = ops::quantize(t, 8);
  EXPECT_LT(q8.max_abs_error, q4.max_abs_error);
}

TEST(Ops, QuantizeZeroTensorExact) {
  const auto q = ops::quantize(Tensor(16, 0.0F), 8);
  EXPECT_DOUBLE_EQ(q.max_abs_error, 0.0);
}

// Property sweep: triangle inequality for l2_distance on random tensors.
class TriangleInequality : public ::testing::TestWithParam<int> {};

TEST_P(TriangleInequality, Holds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto a = ops::random_normal(64, rng);
  const auto b = ops::random_normal(64, rng);
  const auto c = ops::random_normal(64, rng);
  EXPECT_LE(ops::l2_distance(a, c),
            ops::l2_distance(a, b) + ops::l2_distance(b, c) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleInequality, ::testing::Range(0, 20));

// Property sweep: cosine is always in [-1, 1].
class CosineRange : public ::testing::TestWithParam<int> {};

TEST_P(CosineRange, Bounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 1);
  const auto a = ops::random_normal(32, rng, 0.0, 10.0);
  const auto b = ops::random_normal(32, rng, 5.0, 0.01);
  const double c = ops::cosine_similarity(a, b);
  EXPECT_GE(c, -1.0);
  EXPECT_LE(c, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosineRange, ::testing::Range(0, 20));

TEST(Ops, CosineFromCachedPartsIsBitIdenticalAndSymmetric) {
  Rng rng(31);
  std::vector<Tensor> ts{Tensor(24)};  // a zero vector takes the eps branch
  for (int i = 0; i < 5; ++i) ts.push_back(ops::random_normal(24, rng));
  for (const auto& a : ts) {
    for (const auto& b : ts) {
      const double c = ops::cosine_similarity(a, b);
      EXPECT_EQ(ops::cosine_from(ops::dot(a, b), ops::l2_norm(a),
                                 ops::l2_norm(b)),
                c);
      EXPECT_EQ(ops::cosine_similarity(b, a), c);
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// 0-16 operands run every block size and remainder of the *_many kernels;
// dims 0, 1, 7 and 779 run the two-element step, its odd tail, and neither.
class ManyKernels : public ::testing::TestWithParam<int> {};

TEST_P(ManyKernels, EqualSinglePairKernelsBitForBit) {
  const auto dim = static_cast<std::size_t>(GetParam());
  Rng rng(dim + 1);
  const auto a = ops::random_normal(dim, rng);
  std::vector<Tensor> pool;
  for (int j = 0; j < 15; ++j) pool.push_back(ops::random_normal(dim, rng));
  pool.push_back(a);  // a with itself: the squared norm, and distance 0
  const auto all = ops::pointers_to(pool);
  for (std::size_t n = 0; n <= all.size(); ++n) {
    SCOPED_TRACE("operands " + std::to_string(n));
    const auto bs = std::span(all).last(n);
    std::vector<double> dots(n), dists(n);
    ops::dot_many(a, bs, dots);
    ops::l2_distance_many(a, bs, dists);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(bits(dots[j]), bits(ops::dot(a, *bs[j]))) << j;
      EXPECT_EQ(bits(dists[j]), bits(ops::l2_distance(a, *bs[j]))) << j;
    }
  }
}

TEST_P(ManyKernels, CosineEqualsItsPartsBitForBit) {
  const auto dim = static_cast<std::size_t>(GetParam());
  Rng rng(dim + 2);
  const auto a = ops::random_normal(dim, rng);
  const auto b = ops::random_normal(dim, rng, 0.5, 2.0);
  for (const auto* y : {&b, &a}) {
    EXPECT_EQ(bits(ops::cosine_similarity(a, *y)),
              bits(ops::cosine_from(ops::dot(a, *y), ops::l2_norm(a),
                                    ops::l2_norm(*y))));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ManyKernels,
                         ::testing::Values(0, 1, 7, 779));

TEST(Ops, ManyKernelsRejectMismatchedShapes) {
  const Tensor a(4);
  const Tensor b(5);
  const std::vector<const Tensor*> bs{&a, &b};
  std::vector<double> out(2);
  EXPECT_THROW(ops::dot_many(a, bs, out), InternalError);
  EXPECT_THROW(ops::l2_distance_many(a, bs, out), InternalError);
  EXPECT_THROW(
      ops::dot_many(a, std::span(bs).first(1), std::span(out).first(0)),
      InternalError);
  EXPECT_THROW((void)ops::cosine_similarity(a, b), InternalError);
}

TEST(Ops, WeightedMeanOverBorrowedTensorsMatchesCopies) {
  Rng rng(32);
  const std::vector<Tensor> ts{ops::random_normal(17, rng),
                               ops::random_normal(17, rng),
                               ops::random_normal(17, rng)};
  const std::vector<double> w{3.0, 0.5, 1.0};
  const std::vector<const Tensor*> view{&ts[0], &ts[1], &ts[2]};
  EXPECT_EQ(ops::weighted_mean_borrowed(view, w), ops::weighted_mean(ts, w));
}

}  // namespace
}  // namespace flstore
