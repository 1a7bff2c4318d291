// Deterministic randomness for the whole simulation.
//
// Every stochastic component takes an Rng (or a seed) explicitly; there is no
// global generator, so experiments are reproducible and components can be
// re-seeded independently (e.g. the fault injector vs. the trace generator).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flstore {

/// MT19937-64: a UniformRandomBitGenerator whose output sequence equals
/// std::mt19937_64's for every seed (the standard fixes all of its
/// parameters). Two differences from libstdc++'s engine, neither visible in
/// the outputs:
/// - the refill picks the twist matrix with a mask, where libstdc++'s
///   `(y & 1) ? a : 0` compiles to a branch that mispredicts on random bits
///   half the time;
/// - seeding is lazy: the constructor stores the seed in an otherwise zeroed
///   state, and the first output fills the rest. An engine that never draws
///   (a PolicyEngine's, outside kTailoredRandom) costs no seeding, and a
///   copy taken before the first draw copies no indeterminate values.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  explicit Mt19937_64(result_type seed) noexcept : state_{seed} {}

  result_type operator()() noexcept {
    if (pos_ >= kStateWords) [[unlikely]] refill();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateWords = 312;
  /// pos_ until the first output: refill() seeds the state before twisting.
  static constexpr std::size_t kUnseeded = kStateWords + 1;

  /// Seeds the state if it is not yet, then regenerates all 312 words.
  void refill() noexcept;

  std::array<result_type, kStateWords> state_;
  std::size_t pos_ = kUnseeded;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child stream; used to give each subsystem its own
  /// generator so adding draws in one place does not perturb another.
  [[nodiscard]] Rng fork(std::uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9E3779B97F4A7C15ULL));
  }

  [[nodiscard]] double uniform() { return canonical(); }
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// One N(mean, stddev) draw: the polar method as a fresh
  /// std::normal_distribution<double> runs it, bit for bit. It discards the
  /// second variate, so every draw costs a full rejection loop (two or more
  /// engine outputs plus a log and a sqrt). Keeping the spare variate would
  /// change every seeded tensor, figure and digest in the repo, so hot paths
  /// that redraw the same seeded values memoize them instead
  /// (workloads::probe_batch). Bit-identity fixes the arithmetic, not what
  /// the engine and the conversion to double cost: both are branch-free.
  [[nodiscard]] double normal(double mean, double stddev);
  /// Exponential inter-arrival time with the given rate (events/sec).
  [[nodiscard]] double exponential(double rate);
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) uniformly.
  [[nodiscard]] std::vector<std::int32_t> sample_without_replacement(
      std::int32_t n, std::int32_t k);

  /// std::generate_canonical<double, 53> over the one engine output `bits`,
  /// as libstdc++ computes it: the correctly rounded double(bits) * 2^-64,
  /// clamped to the largest double below 1 (bits >= 2^64 - 1024 round up to
  /// 2^64). The conversion adds two exactly converted 32-bit halves, so it
  /// rounds once and never branches on the random sign bit, as GCC's
  /// uint64_t conversion does. The product by 2^32 is exact, so a fused
  /// multiply-add gives the same bits.
  [[nodiscard]] static double canonical(std::uint64_t bits) noexcept {
    const auto hi = static_cast<double>(static_cast<std::uint32_t>(bits >> 32));
    const auto lo = static_cast<double>(static_cast<std::uint32_t>(bits));
    constexpr double kBelowOne = 0x1.fffffffffffffp-1;
    return std::min((hi * 0x1p32 + lo) * 0x1p-64, kBelowOne);
  }

 private:
  /// The one uniform [0, 1) draw that uniform(), normal() and exponential()
  /// take, equal to std::generate_canonical<double, 53>(std::mt19937_64&).
  [[nodiscard]] double canonical() { return canonical(engine_()); }

  Mt19937_64 engine_;
};

/// Zipfian sampler over ranks {0, ..., n-1}: P(rank i) ∝ 1/(i+1)^s.
///
/// Used by the fault injector: measurement studies on AWS Lambda observed
/// Zipf-distributed reclamation across function instances (InfiniCache,
/// FAST'20), which the paper adopts for its fault-tolerance experiments.
///
/// Setup is O(n) (a materialized CDF) and draws are O(log n), so this is
/// the right tool for small, long-lived rank spaces. It rejects n beyond
/// int32 range outright — million-to-billion-client populations go through
/// ZipfSampler below, which needs no table at all.
class ZipfDistribution {
 public:
  /// Takes int64 so an oversized population fails the explicit check here
  /// instead of being silently truncated at an implicit conversion.
  ZipfDistribution(std::int64_t n, double exponent);

  [[nodiscard]] std::int32_t operator()(Rng& rng) const;
  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(cdf_.size());
  }
  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::int32_t rank) const;

 private:
  std::vector<double> cdf_;  // inclusive cumulative probabilities
};

/// O(1)-memory Zipf sampler over ranks {0, ..., n-1} for populations far
/// beyond what a materialized CDF can hold (n up to int64 range).
///
/// Rejection-inversion after Hörmann & Derflinger, "Rejection-inversion to
/// generate variates from monotone discrete distributions" (the algorithm
/// behind Apache Commons' RejectionInversionZipfSampler): invert the
/// integral of a continuous majorizing function h, then accept/reject the
/// rounded rank. Constant setup, expected O(1) draws per sample, no state
/// proportional to n — this is what lets ArrivalStream synthesize 1M+
/// distinct clients without per-client state.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double exponent);

  [[nodiscard]] std::int64_t operator()(Rng& rng) const;
  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  // Integral of the majorizing function h(x) = x^-s over [1.5 - 1, x], its
  // pointwise value, and the integral's inverse — all in closed form via
  // the log1p/expm1 helpers so the s -> 1 limit stays exact.
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  std::int64_t n_ = 1;
  double exponent_ = 1.0;
  double h_integral_x1_ = 0.0;  ///< h_integral(1.5) - 1
  double h_integral_n_ = 0.0;   ///< h_integral(n + 0.5)
  double s_ = 0.0;              ///< shortcut acceptance threshold
};

}  // namespace flstore
