#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace flstore::ops {

double dot(const Tensor& a, const Tensor& b) {
  FLSTORE_CHECK(a.dim() == b.dim());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double l2_norm(const Tensor& a) { return std::sqrt(dot(a, a)); }

double l2_distance(const Tensor& a, const Tensor& b) {
  FLSTORE_CHECK(a.dim() == b.dim());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  return cosine_from(dot(a, b), l2_norm(a), l2_norm(b));
}

double cosine_from(double dot, double norm_a, double norm_b) {
  constexpr double kEps = 1e-12;
  if (norm_a < kEps || norm_b < kEps) return 0.0;
  return std::clamp(dot / (norm_a * norm_b), -1.0, 1.0);
}

void axpy(double alpha, const Tensor& x, Tensor& y) {
  FLSTORE_CHECK(x.dim() == y.dim());
  for (std::size_t i = 0; i < x.dim(); ++i) {
    y[i] += static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

void scale(Tensor& t, double alpha) {
  for (std::size_t i = 0; i < t.dim(); ++i) {
    t[i] = static_cast<float>(static_cast<double>(t[i]) * alpha);
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  FLSTORE_CHECK(a.dim() == b.dim());
  Tensor out(a.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  FLSTORE_CHECK(a.dim() == b.dim());
  Tensor out(a.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) out[i] = a[i] - b[i];
  return out;
}

Tensor mean(const std::vector<Tensor>& ts) {
  FLSTORE_CHECK(!ts.empty());
  std::vector<double> w(ts.size(), 1.0);
  return weighted_mean(ts, w);
}

Tensor weighted_mean(const std::vector<Tensor>& ts,
                     const std::vector<double>& weights) {
  std::vector<const Tensor*> view;
  view.reserve(ts.size());
  for (const auto& t : ts) view.push_back(&t);
  return weighted_mean_borrowed(view, weights);
}

Tensor weighted_mean_borrowed(std::span<const Tensor* const> ts,
                              std::span<const double> weights) {
  FLSTORE_CHECK(!ts.empty());
  FLSTORE_CHECK(ts.size() == weights.size());
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  FLSTORE_CHECK(total > 0.0);
  // Accumulate in double to avoid float cancellation across many clients.
  std::vector<double> acc(ts[0]->dim(), 0.0);
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const Tensor& t = *ts[k];
    FLSTORE_CHECK(t.dim() == acc.size());
    FLSTORE_CHECK(weights[k] >= 0.0);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] += weights[k] * static_cast<double>(t[i]);
    }
  }
  Tensor out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i] / total);
  }
  return out;
}

Tensor random_normal(std::size_t dim, Rng& rng, double mean, double stddev) {
  Tensor t(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    t[i] = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

std::size_t argmax(const Tensor& t) {
  FLSTORE_CHECK(!t.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.dim(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

std::vector<std::size_t> top_k(const std::vector<double>& scores,
                               std::size_t k) {
  FLSTORE_CHECK(k <= scores.size());
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&scores](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  idx.resize(k);
  return idx;
}

QuantizationResult quantize(const Tensor& t, int bits) {
  FLSTORE_CHECK(bits >= 1 && bits <= 16);
  QuantizationResult res;
  res.compression_ratio = 32.0 / static_cast<double>(bits);
  res.dequantized = Tensor(t.dim());
  float max_abs = 0.0F;
  for (std::size_t i = 0; i < t.dim(); ++i) {
    max_abs = std::max(max_abs, std::abs(t[i]));
  }
  if (max_abs == 0.0F) return res;
  const double levels = static_cast<double>((1 << (bits - 1)) - 1);
  const double step = static_cast<double>(max_abs) / std::max(levels, 1.0);
  for (std::size_t i = 0; i < t.dim(); ++i) {
    const double q = std::round(static_cast<double>(t[i]) / step) * step;
    res.dequantized[i] = static_cast<float>(q);
    res.max_abs_error =
        std::max(res.max_abs_error, std::abs(q - static_cast<double>(t[i])));
  }
  return res;
}

}  // namespace flstore::ops
