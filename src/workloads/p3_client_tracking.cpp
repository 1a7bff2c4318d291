// P3 family: per-client tracking across rounds — Reputation (EMA of
// alignment + telemetry) and Provenance (lineage hash chaining). One request
// covers one (client, round) step; the P3 caching policy prefetches the
// client's neighbouring participation rounds (Fig 6, example 2).
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "workloads/workload.hpp"

namespace flstore::workloads {
namespace {

class ReputationWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kReputation;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::RoundDirectory&) const override {
    FLSTORE_CHECK(req.client != kNoClient);
    return {MetadataKey::update(req.client, req.round),
            MetadataKey::metrics(req.client, req.round),
            MetadataKey::aggregate(req.round)};
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    if (in.updates.empty() || in.aggregates.empty()) {
      throw InvalidArgument("reputation needs the client update + aggregate");
    }
    const auto& update = in.updates.front();
    FLSTORE_CHECK(update.client == req.client);

    // Alignment with the round consensus dominates; telemetry (timeliness)
    // modulates. The caller chains the scalar across rounds as an EMA.
    const double alignment =
        ops::cosine_similarity(update.delta, in.aggregates.front().model);
    double timeliness = 1.0;
    if (!in.metrics.empty()) {
      const auto& m = in.metrics.front();
      timeliness = 1.0 / (1.0 + (m.train_time_s + m.upload_time_s) / 600.0);
    }
    WorkloadOutput out;
    out.clients = {req.client};
    out.scalar = 0.7 * alignment + 0.3 * (2.0 * timeliness - 1.0);
    out.per_client = {out.scalar};
    if (out.scalar > 0.0) out.selected = {req.client};

    std::ostringstream s;
    s << "client " << req.client << " round " << req.round << " reputation "
      << out.scalar << " (alignment " << alignment << ")";
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += 4.0 * logical_params(in);
    out.result_bytes = 2 * units::KB;
    return out;
  }
};

class ProvenanceWorkload final : public Workload {
 public:
  [[nodiscard]] fed::WorkloadType type() const noexcept override {
    return fed::WorkloadType::kProvenance;
  }

  [[nodiscard]] std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::RoundDirectory&) const override {
    FLSTORE_CHECK(req.client != kNoClient);
    return {MetadataKey::update(req.client, req.round)};
  }

  [[nodiscard]] WorkloadOutput execute(const fed::NonTrainingRequest& req,
                                       const WorkloadInput& in) const override {
    if (in.updates.empty()) {
      throw InvalidArgument("provenance needs the client update");
    }
    const auto& update = in.updates.front();
    if (update.client != req.client || update.round != req.round) {
      throw InvalidArgument("provenance record does not match the request");
    }
    // Lineage entry: content hash of the update's delta, chained with
    // (client, round). Re-running on the same history yields the same chain,
    // which is the reproducibility property Baracaldo et al. audit.
    const auto floats = update.delta.span();
    const auto content = checksum(
        std::span(reinterpret_cast<const std::uint8_t*>(floats.data()),
                  floats.size_bytes()));
    const std::uint64_t link =
        content ^ (static_cast<std::uint64_t>(update.round) << 32) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(update.client));

    WorkloadOutput out;
    out.clients = {req.client};
    out.scalar = static_cast<double>(link % 1000000007ULL);
    out.per_client = {out.scalar};
    std::ostringstream s;
    s << "lineage link for client " << req.client << " round " << req.round
      << ": " << std::hex << link;
    out.summary = s.str();
    out.work = scan_work(in);
    out.work.flops += logical_params(in);  // one hashing pass
    out.result_bytes = 1 * units::KB;
    return out;
  }
};

}  // namespace

namespace detail {
std::vector<std::unique_ptr<Workload>> make_p3_client_tracking() {
  std::vector<std::unique_ptr<Workload>> out;
  out.push_back(std::make_unique<ReputationWorkload>());
  out.push_back(std::make_unique<ProvenanceWorkload>());
  return out;
}
}  // namespace detail

}  // namespace flstore::workloads
