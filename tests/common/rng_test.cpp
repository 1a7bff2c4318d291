#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "../property_seeds.hpp"
#include "common/error.hpp"

namespace flstore {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentDrawCount) {
  // The fork itself advances the parent, but two forks with different salts
  // from identically seeded parents must agree.
  Rng p1(7);
  Rng p2(7);
  Rng c1 = p1.fork(3);
  Rng c2 = p2.fork(3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(250, 10);
  EXPECT_EQ(sample.size(), 10U);
  std::set<std::int32_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10U);
  for (const auto v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 250);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::int32_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 5U);
}

TEST(Rng, SampleCoversPoolOverManyDraws) {
  Rng rng(19);
  std::set<std::int32_t> seen;
  for (int i = 0; i < 300; ++i) {
    for (const auto v : rng.sample_without_replacement(20, 3)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 20U);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution z(100, 0.9);
  double sum = 0.0;
  for (int i = 0; i < z.size(); ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroMostLikely) {
  ZipfDistribution z(50, 1.0);
  for (int i = 1; i < z.size(); ++i) {
    EXPECT_GE(z.pmf(0), z.pmf(i));
  }
}

TEST(Zipf, SamplesMatchPmfSkew) {
  ZipfDistribution z(10, 1.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(z(rng))];
  // Empirical frequency of rank 0 should be near its pmf.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.pmf(0), 0.02);
  // Monotone-ish decay: rank 0 clearly beats rank 9.
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfDistribution z(4, 0.0);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(z.pmf(i), 0.25, 1e-9);
}

TEST(Zipf, SamplesAlwaysInRange) {
  ZipfDistribution z(7, 1.2);
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const auto r = z(rng);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 7);
  }
}

TEST(Zipf, MaterializedCdfRejectsPopulationBeyondInt32) {
  // The CDF is O(n) memory and int32-ranked; an oversized population must
  // fail loudly (and point at ZipfSampler) instead of truncating.
  EXPECT_THROW(ZipfDistribution(std::int64_t{1} << 32, 0.9), InvalidArgument);
}

TEST(ZipfSampler, AgreesWithMaterializedCdfAtSmallN) {
  // Rejection-inversion and the exact CDF target the same distribution:
  // empirical head frequencies from the sampler must match the pmf.
  const ZipfDistribution exact(10, 1.0);
  const ZipfSampler sampler(10, 1.0);
  Rng rng(37);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto r = sampler(rng);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 10);
    ++counts[static_cast<std::size_t>(r)];
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<std::size_t>(i)]) / n,
                exact.pmf(i), 0.02);
  }
}

TEST(ZipfSampler, HandlesPopulationsFarBeyondInt32) {
  // 5 billion ranks — no CDF could hold this; setup and draws stay O(1).
  const std::int64_t n = std::int64_t{5'000'000'000};
  const ZipfSampler sampler(n, 1.1);
  Rng rng(41);
  std::int64_t max_seen = -1;
  for (int i = 0; i < 20000; ++i) {
    const auto r = sampler(rng);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, n);
    max_seen = std::max(max_seen, r);
  }
  // The tail is thin but present: some draw should land beyond int32 range.
  EXPECT_GT(max_seen, std::int64_t{std::numeric_limits<std::int32_t>::max()});
}

TEST(ZipfSampler, ExponentZeroIsRoughlyUniform) {
  const ZipfSampler sampler(1000, 0.0);
  Rng rng(43);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(sampler(rng));
  // Uniform over {0..999} has mean 499.5.
  EXPECT_NEAR(sum / n, 499.5, 15.0);
}

TEST(ZipfSampler, DeterministicGivenEqualRngState) {
  const ZipfSampler sampler(1'000'000, 0.9);
  Rng a(47), b(47);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(sampler(a), sampler(b));
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

// --- Mt19937_64 against std::mt19937_64 ------------------------------------

void expect_same_outputs(Mt19937_64 got, std::mt19937_64 want, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_EQ(got(), want()) << "output " << i;
  }
}

TEST(Mt19937_64, MatchesStdEngineForEverySeed) {
  // 1,000 outputs span three refills after the first.
  constexpr int kOutputs = 1000;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_outputs(Mt19937_64(seed), std::mt19937_64(seed), kOutputs);
  }
  std::mt19937_64 seeds(2024);
  for (int i = 0; i < 64; ++i) {
    const auto seed = seeds();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_outputs(Mt19937_64(seed), std::mt19937_64(seed), kOutputs);
  }
}

TEST(Mt19937_64, TenThousandthOutputIsTheStandardsCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937_64, whose seed is 5489, produces 9981545732273789042.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) (void)engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937_64, CopiesBeforeAndAfterTheFirstOutputMatch) {
  // Seeding is lazy: a copy taken before the first output seeds on its own
  // first output, and a copy taken mid-state continues from there.
  const Mt19937_64 fresh(77);
  expect_same_outputs(fresh, std::mt19937_64(77), 700);
  Mt19937_64 drawn(77);
  std::mt19937_64 want(77);
  for (int i = 0; i < 400; ++i) ASSERT_EQ(drawn(), want());
  expect_same_outputs(drawn, want, 700);
}

// --- The canonical draw at its edges ----------------------------------------

TEST(RngCanonical, ClampsOutputsThatRoundToOne) {
  // 2^64 - 1025 rounds down to 2^64 - 2048, whose quotient is already the
  // largest double below 1. 2^64 - 1024 ties to even, up to 2^64, so it and
  // every larger output would read exactly 1 without the clamp.
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(Rng::canonical(kTop - 1024), below_one);
  EXPECT_EQ(static_cast<double>(kTop - 1023) * 0x1p-64, 1.0);
  EXPECT_EQ(Rng::canonical(kTop - 1023), below_one);
  EXPECT_EQ(Rng::canonical(kTop), below_one);
}

#if defined(__GLIBCXX__)

// std::generate_canonical and the std distributions are libstdc++'s here,
// the implementations the repo's digests were recorded with.

/// Returns one chosen output on every call, so std::generate_canonical and
/// Rng::canonical see the same bits.
struct ScriptedEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() const { return value; }
  result_type value = 0;
};

void expect_canonical_matches_std(std::uint64_t bits) {
  ScriptedEngine engine{bits};
  const double want = std::generate_canonical<double, 53>(engine);
  const double got = Rng::canonical(bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << "bits=" << bits;
  EXPECT_GE(got, 0.0);
  EXPECT_LT(got, 1.0);
}

TEST(RngCanonical, MatchesGenerateCanonicalAtTheEdges) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t bits :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) - 1,
        std::uint64_t{1} << 53, (std::uint64_t{1} << 53) + 1,
        (std::uint64_t{1} << 63) - 1, std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + 1, kTop - 1024, kTop - 1023, kTop}) {
    expect_canonical_matches_std(bits);
  }
  std::mt19937_64 random(99);
  for (int i = 0; i < 100000; ++i) expect_canonical_matches_std(random());
}

// --- Rng against the std distributions it replaced --------------------------

/// Rng as it was built on std::mt19937_64 and the std distributions, line
/// for line: the oracle the branch-free draws must match bit for bit.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}
  StdRng fork(std::uint64_t salt) {
    return StdRng(engine_() ^ (salt * 0x9E3779B97F4A7C15ULL));
  }
  double uniform() { return unit_(engine_); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }
  double normal(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }
  bool bernoulli(double p) { return uniform() < p; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }
  std::vector<std::int32_t> sample_without_replacement(std::int32_t n,
                                                       std::int32_t k) {
    std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
    for (std::int32_t i = 0; i < k; ++i) {
      const auto j = static_cast<std::size_t>(uniform_int(i, n - 1));
      std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
    }
    idx.resize(static_cast<std::size_t>(k));
    return idx;
  }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T, std::size_t N>
T pick(std::mt19937_64& script, const T (&options)[N]) {
  return options[script() % N];
}

class RngOracle : public ::testing::TestWithParam<int> {};

TEST_P(RngOracle, EveryCallMatchesTheStdDistributions) {
  // One random script of calls, made on both generators call for call.
  std::mt19937_64 script(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  const std::uint64_t seed = script();
  Rng got(seed);
  StdRng want(seed);
  constexpr double kMeans[] = {0.0, 1.5, -3.25, -1e6, 7e-3};
  // std::normal_distribution asserts stddev > 0 under _GLIBCXX_ASSERTIONS;
  // without them it computes mean + 0 * variate, as Rng::normal does.
#if defined(_GLIBCXX_ASSERTIONS)
  constexpr double kStddevs[] = {1.0, 0.3, 2.5, 1e-9};
#else
  constexpr double kStddevs[] = {1.0, 0.3, 2.5, 1e-9, 0.0};
#endif
  constexpr double kRates[] = {0.5, 4.0, 1e3, 1e-4};
  constexpr double kProbabilities[] = {0.0, 0.3, 0.999, 1.0};
  constexpr std::int64_t kLows[] = {0, -5, 1000,
                                    std::numeric_limits<std::int64_t>::min()};
  constexpr std::int64_t kSpans[] = {0, 1, 6, 1000, 1LL << 40,
                                     std::numeric_limits<std::int64_t>::max()};
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step=" + std::to_string(step));
    switch (script() % 10) {
      case 0:
        ASSERT_EQ(bits_of(got.uniform()), bits_of(want.uniform()));
        break;
      case 1: {
        const double lo = pick(script, kMeans);
        const double hi = lo + pick(script, kRates);
        ASSERT_EQ(bits_of(got.uniform(lo, hi)), bits_of(want.uniform(lo, hi)));
        break;
      }
      case 2: {
        constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
        std::int64_t lo = pick(script, kLows);
        // The span is clamped so that hi stays in range.
        std::int64_t hi = lo + std::min(pick(script, kSpans),
                                        kMax - std::max<std::int64_t>(lo, 0));
        if (script() % 8 == 0) {  // the whole int64 range
          lo = std::numeric_limits<std::int64_t>::min();
          hi = kMax;
        }
        ASSERT_EQ(got.uniform_int(lo, hi), want.uniform_int(lo, hi));
        break;
      }
      case 3:
      case 4: {
        const double mean = pick(script, kMeans);
        const double stddev = pick(script, kStddevs);
        ASSERT_EQ(bits_of(got.normal(mean, stddev)),
                  bits_of(want.normal(mean, stddev)));
        break;
      }
      case 5: {
        const double rate = pick(script, kRates);
        ASSERT_EQ(bits_of(got.exponential(rate)),
                  bits_of(want.exponential(rate)));
        break;
      }
      case 6: {
        const double p = pick(script, kProbabilities);
        ASSERT_EQ(got.bernoulli(p), want.bernoulli(p));
        break;
      }
      case 7: {
        // Carry on down the children; some forks come before any draw.
        const std::uint64_t salt = script();
        got = got.fork(salt);
        want = want.fork(salt);
        break;
      }
      case 8: {
        std::vector<int> a(script() % 24);
        std::iota(a.begin(), a.end(), 0);
        auto b = a;
        got.shuffle(a);
        want.shuffle(b);
        ASSERT_EQ(a, b);
        break;
      }
      default: {
        const auto n = static_cast<std::int32_t>(script() % 60);
        const auto k = static_cast<std::int32_t>(
            script() % (static_cast<std::uint64_t>(n) + 1));
        ASSERT_EQ(got.sample_without_replacement(n, k),
                  want.sample_without_replacement(n, k));
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RngOracle,
    ::testing::Range(0, flstore::testing::property_test_seeds()));

TEST(RngLazySeeding, CopiesAndForksBeforeTheFirstDrawMatchEagerOnes) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                                   std::uint64_t{0xC105}}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng fresh(seed);
    StdRng eager(seed);
    Rng copy = fresh;  // copied before either has drawn
    StdRng eager_copy = eager;
    Rng child = fresh.fork(9);  // the fork is the parent's first draw
    StdRng eager_child = eager.fork(9);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(bits_of(copy.normal(0.0, 1.0)),
                bits_of(eager_copy.normal(0.0, 1.0)));
      ASSERT_EQ(bits_of(child.uniform()), bits_of(eager_child.uniform()));
      ASSERT_EQ(bits_of(fresh.uniform()), bits_of(eager.uniform()));
    }
  }
}

#endif  // defined(__GLIBCXX__)

}  // namespace
}  // namespace flstore
