#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "common/error.hpp"

namespace flstore {

void Mt19937_64::refill() noexcept {
  constexpr std::size_t kShift = 156;  // the standard's m
  constexpr result_type kMatrixA = 0xB5026F5AA96619E9ULL;
  constexpr result_type kUpperMask = ~result_type{0} << 31;
  constexpr result_type kLowerMask = ~kUpperMask;
  if (pos_ == kUnseeded) {
    for (std::size_t i = 1; i < kStateWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }
  // Word k mixes words k and k + 1 with word k + m, all indices mod n. The
  // mask applies the twist matrix when y is odd without a branch.
  const auto twist = [this](std::size_t k, std::size_t next,
                            std::size_t far) {
    const result_type y =
        (state_[k] & kUpperMask) | (state_[next] & kLowerMask);
    state_[k] =
        state_[far] ^ (y >> 1) ^ ((result_type{0} - (y & 1U)) & kMatrixA);
  };
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) twist(k, k + 1, k + kShift);
  for (; k < kStateWords - 1; ++k) twist(k, k + 1, k + kShift - kStateWords);
  twist(kStateWords - 1, 0, kShift - 1);
  pos_ = 0;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FLSTORE_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  // libstdc++'s std::normal_distribution<double>::operator() on a fresh
  // distribution, expression for expression.
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * canonical() - 1.0;
    y = 2.0 * canonical() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

double Rng::exponential(double rate) {
  FLSTORE_CHECK(rate > 0.0);
  return -std::log(1.0 - canonical()) / rate;
}

std::vector<std::int32_t> Rng::sample_without_replacement(std::int32_t n,
                                                          std::int32_t k) {
  FLSTORE_CHECK(k >= 0 && k <= n);
  // Partial Fisher-Yates over an index vector: O(n) setup, O(k) draws.
  std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (std::int32_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(uniform_int(i, n - 1));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

ZipfDistribution::ZipfDistribution(std::int64_t n, double exponent) {
  FLSTORE_CHECK(n > 0);
  if (n > static_cast<std::int64_t>(
              std::numeric_limits<std::int32_t>::max())) {
    throw InvalidArgument(
        "ZipfDistribution: population " + std::to_string(n) +
        " exceeds the int32 rank space (and an O(n) CDF would not fit "
        "either); use ZipfSampler for large populations");
  }
  FLSTORE_CHECK(exponent >= 0.0);
  cdf_.resize(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (std::int32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i) + 1.0, exponent);
    cdf_[static_cast<std::size_t>(i)] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

std::int32_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::int32_t>(it - cdf_.begin());
}

double ZipfDistribution::pmf(std::int32_t rank) const {
  FLSTORE_CHECK(rank >= 0 && rank < size());
  const auto i = static_cast<std::size_t>(rank);
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

namespace {

// log(1 + x) / x and (exp(x) - 1) / x with their Taylor limits at 0, so
// h_integral and its inverse stay continuous through exponent == 1.
double zipf_helper1(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

double zipf_helper2(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0)));
}

}  // namespace

ZipfSampler::ZipfSampler(std::int64_t n, double exponent)
    : n_(n), exponent_(exponent) {
  FLSTORE_CHECK(n > 0);
  FLSTORE_CHECK(exponent >= 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return zipf_helper2((1.0 - exponent_) * log_x) * log_x;
}

double ZipfSampler::h(double x) const {
  return std::exp(-exponent_ * std::log(x));
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - exponent_);
  // Limit borderline cases to the domain of log1p (t can undershoot -1 by
  // rounding for x near the lower integration bound).
  if (t < -1.0) t = -1.0;
  return std::exp(zipf_helper1(t) * x);
}

std::int64_t ZipfSampler::operator()(Rng& rng) const {
  // Ranks here are 1-based (the classical Zipf support); shifted to the
  // 0-based rank space of ZipfDistribution on return.
  for (;;) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    std::int64_t k = static_cast<std::int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    // Accept either in the shortcut band around the inverse (where the
    // majorizer is tight) or by the exact rejection test.
    if (static_cast<double>(k) - x <= s_ ||
        u >= h_integral(static_cast<double>(k) + 0.5) - h(static_cast<double>(k))) {
      return k - 1;
    }
  }
}

}  // namespace flstore
