#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace flstore::ops {

namespace {

// One pass over `a` for N results: out[j] = sum over i of term(a[i],
// b[j][i]), each with its own accumulator added in index order. The N add
// chains are independent, so their latencies overlap. Each step forms two
// elements' terms before adding them, still in index order, which lets the
// compiler convert and multiply neighbouring elements as one vector.
template <std::size_t N, typename Term>
void reduce_block(const Tensor& a, const Tensor* const* bs, double* out,
                  Term term) {
  std::array<const float*, N> b;
  for (std::size_t j = 0; j < N; ++j) {
    FLSTORE_CHECK(bs[j]->dim() == a.dim());
    b[j] = bs[j]->span().data();
  }
  const float* x = a.span().data();
  const std::size_t dim = a.dim();
  std::array<double, N> acc{};
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    std::array<double, N> t0;
    std::array<double, N> t1;
    for (std::size_t j = 0; j < N; ++j) {
      t0[j] = term(static_cast<double>(x[i]), static_cast<double>(b[j][i]));
      t1[j] = term(static_cast<double>(x[i + 1]),
                   static_cast<double>(b[j][i + 1]));
    }
    for (std::size_t j = 0; j < N; ++j) acc[j] += t0[j];
    for (std::size_t j = 0; j < N; ++j) acc[j] += t1[j];
  }
  if (i < dim) {
    for (std::size_t j = 0; j < N; ++j) {
      acc[j] += term(static_cast<double>(x[i]), static_cast<double>(b[j][i]));
    }
  }
  for (std::size_t j = 0; j < N; ++j) out[j] = acc[j];
}

template <typename Term>
void reduce_many(const Tensor& a, std::span<const Tensor* const> bs,
                 std::span<double> out, Term term) {
  FLSTORE_CHECK(out.size() == bs.size());
  std::size_t j = 0;
  for (; j + 8 <= bs.size(); j += 8) {
    reduce_block<8>(a, &bs[j], &out[j], term);
  }
  if (j + 4 <= bs.size()) {
    reduce_block<4>(a, &bs[j], &out[j], term);
    j += 4;
  }
  switch (bs.size() - j) {
    case 3: reduce_block<3>(a, &bs[j], &out[j], term); break;
    case 2: reduce_block<2>(a, &bs[j], &out[j], term); break;
    case 1: reduce_block<1>(a, &bs[j], &out[j], term); break;
    default: break;
  }
}

}  // namespace

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

void dot_many(const Tensor& a, std::span<const Tensor* const> bs,
              std::span<double> out) {
  reduce_many(a, bs, out, [](double x, double y) { return x * y; });
}

void l2_distance_many(const Tensor& a, std::span<const Tensor* const> bs,
                      std::span<double> out) {
  reduce_many(a, bs, out, [](double x, double y) {
    const double d = x - y;
    return d * d;
  });
  for (double& d : out) d = std::sqrt(d);
}

std::vector<const Tensor*> pointers_to(const std::vector<Tensor>& ts) {
  std::vector<const Tensor*> out;
  out.reserve(ts.size());
  for (const auto& t : ts) out.push_back(&t);
  return out;
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  FLSTORE_CHECK(a.dim() == b.dim());
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < a.dim(); ++i) {
    const double x = static_cast<double>(a[i]);
    const double y = static_cast<double>(b[i]);
    ab += x * y;
    aa += x * x;
    bb += y * y;
  }
  return cosine_from(ab, std::sqrt(aa), std::sqrt(bb));
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
  return weighted_mean_borrowed(pointers_to(ts), weights);
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
