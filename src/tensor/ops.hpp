// Numeric kernels used by the non-training workloads. All functions check
// dimension agreement with FLSTORE_CHECK — a silent shape bug would corrupt
// every downstream experiment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace flstore::ops {

[[nodiscard]] double dot(const Tensor& a, const Tensor& b);
[[nodiscard]] double l2_norm(const Tensor& a);
[[nodiscard]] double l2_distance(const Tensor& a, const Tensor& b);

/// out[j] = dot(a, *bs[j]) and out[j] = l2_distance(a, *bs[j]), bit for bit:
/// each result keeps its own accumulator and adds in index order, exactly as
/// the single-pair kernel does. Several results advance per pass over `a`,
/// so their floating-point add latencies overlap instead of forming one
/// serial chain. `out` must have bs.size() elements.
void dot_many(const Tensor& a, std::span<const Tensor* const> bs,
              std::span<double> out);
void l2_distance_many(const Tensor& a, std::span<const Tensor* const> bs,
                      std::span<double> out);
/// &ts[0], ..., &ts[n - 1]: the borrowed view the *_many kernels and
/// weighted_mean_borrowed take.
[[nodiscard]] std::vector<const Tensor*> pointers_to(
    const std::vector<Tensor>& ts);

/// Cosine similarity in [-1, 1]; returns 0 when either vector is ~zero.
/// Bit-identical to cosine_from(dot(a, b), l2_norm(a), l2_norm(b)); the three
/// sums run in one loop.
[[nodiscard]] double cosine_similarity(const Tensor& a, const Tensor& b);
/// cosine_similarity from precomputed parts. Pairwise kernels compute each
/// norm once and each unordered pair's dot once; IEEE multiplication commutes
/// exactly, so dot(a, b) == dot(b, a) and the (i, j) and (j, i) cosines are
/// the same value.
[[nodiscard]] double cosine_from(double dot, double norm_a, double norm_b);

/// y += alpha * x
void axpy(double alpha, const Tensor& x, Tensor& y);
void scale(Tensor& t, double alpha);
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);

/// Arithmetic mean of a non-empty set of equally sized tensors.
[[nodiscard]] Tensor mean(const std::vector<Tensor>& ts);
/// Weighted mean with non-negative weights summing to a positive value.
[[nodiscard]] Tensor weighted_mean(const std::vector<Tensor>& ts,
                                   const std::vector<double>& weights);
/// The same over borrowed tensors, for callers that average a subset of a
/// larger set: nothing is copied, and the result is bit-identical to the
/// overload above on copies of the same tensors in the same order.
[[nodiscard]] Tensor weighted_mean_borrowed(
    std::span<const Tensor* const> ts, std::span<const double> weights);

/// i.i.d. N(mean, stddev) tensor. Costs one Rng::normal per element, which
/// is not cheap (see Rng::normal); hot paths that redraw the same seeded
/// tensors memoize them (workloads::probe_batch) rather than change this.
[[nodiscard]] Tensor random_normal(std::size_t dim, Rng& rng,
                                   double mean = 0.0, double stddev = 1.0);

/// Index of the maximum element (first on ties). Tensor must be non-empty.
[[nodiscard]] std::size_t argmax(const Tensor& t);

/// Indices of the k largest values in descending order.
[[nodiscard]] std::vector<std::size_t> top_k(const std::vector<double>& scores,
                                             std::size_t k);

/// Uniform symmetric quantization to `bits` (simulated: returns the
/// dequantized tensor plus the achieved compression ratio 32/bits).
struct QuantizationResult {
  Tensor dequantized;
  double compression_ratio = 1.0;
  double max_abs_error = 0.0;
};
[[nodiscard]] QuantizationResult quantize(const Tensor& t, int bits);

}  // namespace flstore::ops
