#include "workloads/workload.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/fl_job.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"

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

std::uint64_t output_digest(const WorkloadOutput& out) {
  std::uint64_t h = 0;
  const auto mix = [&h](const void* data, std::size_t size) {
    h = (h ^ checksum({static_cast<const std::uint8_t*>(data), size})) *
        0x9E3779B97F4A7C15ULL;
  };
  mix(out.summary.data(), out.summary.size());
  mix(out.clients.data(), out.clients.size() * sizeof(ClientId));
  mix(out.per_client.data(), out.per_client.size() * sizeof(double));
  mix(out.selected.data(), out.selected.size() * sizeof(ClientId));
  const double scalars[] = {out.scalar, out.work.bytes_touched,
                            out.work.flops};
  mix(scalars, sizeof scalars);
  mix(&out.result_bytes, sizeof out.result_bytes);
  return h;
}

namespace {

ProbeBatch draw_probes(const ProbeSpec& spec) {
  FLSTORE_CHECK(spec.count >= 0);
  Rng rng(spec.seed);
  auto batch = std::make_shared<std::vector<Tensor>>();
  batch->reserve(static_cast<std::size_t>(spec.count));
  for (int i = 0; i < spec.count; ++i) {
    batch->push_back(ops::random_normal(spec.dim, rng));
  }
  return batch;
}

/// Two probe-drawing workloads (inference, debugging) times two live rounds;
/// see probe_batch.
constexpr std::size_t kProbeSlots = 4;
/// A thread's memo, most recently used first; a slot without a batch is
/// empty.
using ProbeSlots = std::array<PreparedProbes, kProbeSlots>;

ProbeSlots& probe_slots() {
  thread_local ProbeSlots slots;
  return slots;
}

/// Make the slot holding `spec` the most recently used one, or else the
/// least recently used one, for the caller to fill: the slots before it
/// shift down by one. Returns the front slot.
PreparedProbes& to_front(ProbeSlots& slots, const ProbeSpec& spec) {
  auto it = std::find_if(slots.begin(), slots.end(), [&](const auto& s) {
    return s.batch != nullptr && s.spec == spec;
  });
  if (it == slots.end()) --it;
  std::rotate(slots.begin(), it, it + 1);
  return slots.front();
}

}  // namespace

ProbeBatch probe_batch(const ProbeSpec& spec) {
  auto& front = to_front(probe_slots(), spec);
  if (front.batch == nullptr || front.spec != spec) {
    front = {spec, draw_probes(spec)};
  }
  return front.batch;
}

std::vector<PreparedProbes> draw_round_probes(
    std::span<const fed::WorkloadType> types, RoundId round, std::size_t dim) {
  std::vector<PreparedProbes> out;
  for (const auto type : types) {
    const auto spec = workload_for(type).round_probes(round, dim);
    if (!spec.has_value()) continue;
    const bool drawn = std::any_of(
        out.begin(), out.end(),
        [&](const PreparedProbes& p) { return p.spec == *spec; });
    if (!drawn) out.push_back({*spec, draw_probes(*spec)});
  }
  return out;
}

void prime_probe_batches(std::span<const PreparedProbes> prepared) {
  for (const auto& p : prepared) to_front(probe_slots(), p.spec) = p;
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
