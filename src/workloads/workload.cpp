#include "workloads/workload.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/fl_job.hpp"
#include "tensor/ops.hpp"

namespace flstore::workloads {

namespace detail {
// Family files register their implementations through these factories.
std::vector<std::unique_ptr<Workload>> make_p1_workloads();
std::vector<std::unique_ptr<Workload>> make_p2_round_analytics();
std::vector<std::unique_ptr<Workload>> make_p2_debug_incentives();
std::vector<std::unique_ptr<Workload>> make_p3_client_tracking();
std::vector<std::unique_ptr<Workload>> make_p4_metadata();
}  // namespace detail

namespace {

class Registry {
 public:
  Registry() {
    auto absorb = [this](std::vector<std::unique_ptr<Workload>> ws) {
      for (auto& w : ws) {
        const auto type = w->type();
        FLSTORE_CHECK(!by_type_.contains(type));
        by_type_.emplace(type, std::move(w));
      }
    };
    absorb(detail::make_p1_workloads());
    absorb(detail::make_p2_round_analytics());
    absorb(detail::make_p2_debug_incentives());
    absorb(detail::make_p3_client_tracking());
    absorb(detail::make_p4_metadata());
  }

  [[nodiscard]] const Workload& get(fed::WorkloadType type) const {
    const auto it = by_type_.find(type);
    if (it == by_type_.end()) {
      throw InvalidArgument(std::string("no workload registered for ") +
                            fed::to_string(type));
    }
    return *it->second;
  }

 private:
  std::unordered_map<fed::WorkloadType, std::unique_ptr<Workload>> by_type_;
};

}  // namespace

const Workload& workload_for(fed::WorkloadType type) {
  static const Registry registry;
  return registry.get(type);
}

ComputeWork scan_work(const WorkloadInput& in) {
  ComputeWork w;
  for (const auto& u : in.updates) {
    w.bytes_touched += static_cast<double>(u.logical_bytes);
  }
  for (const auto& a : in.aggregates) {
    w.bytes_touched += static_cast<double>(a.logical_bytes);
  }
  w.bytes_touched += static_cast<double>(fed::kMetricsLogicalBytes) *
                     static_cast<double>(in.metrics.size());
  w.bytes_touched += static_cast<double>(fed::kRoundInfoLogicalBytes) *
                     static_cast<double>(in.round_infos.size());
  return w;
}

double logical_params(const WorkloadInput& in) {
  FLSTORE_CHECK(in.model != nullptr);
  return static_cast<double>(in.model->parameters);
}

double median(std::vector<double> values) {
  FLSTORE_CHECK(!values.empty());
  const auto mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

std::shared_ptr<const std::vector<Tensor>> probe_batch(std::uint64_t seed,
                                                       std::size_t dim,
                                                       int count) {
  struct Slot {
    std::uint64_t seed = 0;
    std::size_t dim = 0;
    int count = 0;
    std::shared_ptr<const std::vector<Tensor>> batch;
  };
  // slots[0] is the most recently used; a miss evicts slots[1].
  thread_local std::array<Slot, 2> slots;
  const auto matches = [&](const Slot& s) {
    return s.batch != nullptr && s.seed == seed && s.dim == dim &&
           s.count == count;
  };
  if (matches(slots[0])) return slots[0].batch;
  if (matches(slots[1])) {
    std::swap(slots[0], slots[1]);
    return slots[0].batch;
  }
  FLSTORE_CHECK(count >= 0);
  Rng rng(seed);
  auto batch = std::make_shared<std::vector<Tensor>>();
  batch->reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    batch->push_back(ops::random_normal(dim, rng));
  }
  slots[1] = std::move(slots[0]);
  slots[0] = Slot{seed, dim, count, std::move(batch)};
  return slots[0].batch;
}

void absorb_blob(WorkloadInput& in, const MetadataKey& key,
                 std::span<const std::uint8_t> bytes) {
  switch (key.kind) {
    case ObjectKind::ClientUpdate:
      in.updates.push_back(fed::decode_update(bytes));
      break;
    case ObjectKind::AggregatedModel:
      in.aggregates.push_back(fed::decode_aggregate(bytes));
      break;
    case ObjectKind::ClientMetrics:
      in.metrics.push_back(fed::decode_metrics(bytes));
      break;
    case ObjectKind::RoundMetadata:
      in.round_infos.push_back(fed::decode_round_info(bytes));
      break;
  }
}

WorkloadInput input_from_job(const fed::FLJob& job,
                             const fed::NonTrainingRequest& req) {
  WorkloadInput in;
  in.model = &job.model();
  // Keys come grouped by round: regenerate each round once.
  std::optional<fed::RoundRecord> rec;
  for (const auto& key : workload_for(req.type).data_needs(req, job)) {
    if (!rec || rec->round != key.round) rec = job.make_round(key.round);
    switch (key.kind) {
      case ObjectKind::ClientUpdate:
        for (const auto& u : rec->updates) {
          if (u.client == key.client) in.updates.push_back(u);
        }
        break;
      case ObjectKind::AggregatedModel:
        in.aggregates.push_back({rec->round, rec->aggregate, rec->model_bytes});
        break;
      case ObjectKind::ClientMetrics:
        for (const auto& m : rec->metrics) {
          if (m.client == key.client) in.metrics.push_back(m);
        }
        break;
      case ObjectKind::RoundMetadata:
        in.round_infos.push_back(
            {rec->round, rec->hparams, rec->global_loss,
             static_cast<std::int32_t>(rec->updates.size())});
        break;
    }
  }
  return in;
}

}  // namespace flstore::workloads
