// P1 family: serving the aggregated model.
//
// Inference runs a probe batch through the latest aggregated model (the
// materialized proxy: per-probe score = tanh(<model, probe>)), which is the
// "model serving" workload the paper adds for foundation-model support
// (Appendix D) and evaluates in every figure.
#include <cmath>

#include "common/error.hpp"
#include "tensor/ops.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {
namespace {

constexpr int kProbeBatch = 16;

class InferenceWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kInference;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::RoundDirectory& dir) const override {
    const auto r = std::min(req.round, dir.latest_round());
    return {MetadataKey::aggregate(r)};
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    if (in.aggregates.empty()) {
      throw InvalidArgument("inference needs the aggregated model");
    }
    const auto& model = in.aggregates.front().model;
    FLSTORE_CHECK(!model.empty());

    // Probe batch seeded by the request round: deterministic results.
    const auto probes = probe_batch(
        0xF00D ^ static_cast<std::uint64_t>(req.round + 1), model.dim(),
        kProbeBatch);
    std::vector<double> dots(probes->size());
    ops::dot_many(model, ops::pointers_to(*probes), dots);
    WorkloadOutput out;
    double positive = 0.0;
    for (const double d : dots) {
      const double score = std::tanh(d / static_cast<double>(model.dim()));
      if (score > 0.0) positive += 1.0;
    }
    out.scalar = positive / kProbeBatch;
    out.summary = "served " + std::to_string(kProbeBatch) +
                  " samples, positive rate " + std::to_string(out.scalar);

    out.work = scan_work(in);
    // Forward passes at the real model's per-sample cost.
    out.work.flops += static_cast<double>(kProbeBatch) *
                      in.model->gflops_forward * 1e9;
    out.result_bytes = 4 * units::KB;
    return out;
  }
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_p1_workloads() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<InferenceWorkload>());
  return out;
}
}  // namespace detail

}  // namespace flstore::workloads
