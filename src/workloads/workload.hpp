// Non-training workload interface.
//
// A workload declares its data needs (which metadata keys a request touches
// — Table 1's taxonomy made executable) and computes a real result from the
// materialized records, reporting a ComputeWork footprint that serving
// systems turn into execution time and cost.
//
// Implementations live in family files (p1_*.cpp ... p4_*.cpp) and register
// in the process-wide registry; `workload_for(type)` is the only lookup.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/compute_work.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "fed/codec.hpp"
#include "fed/directory.hpp"
#include "fed/metadata.hpp"
#include "fed/request.hpp"
#include "models/model_zoo.hpp"

namespace flstore::fed {
class FLJob;
}  // namespace flstore::fed

namespace flstore::workloads {

/// Decoded records a serving system hands to execute(). Vectors hold
/// whatever the request's data needs resolved to, in key order.
struct WorkloadInput {
  const ModelSpec* model = nullptr;  ///< the FL job's model (for flop costs)
  std::vector<fed::ClientUpdate> updates;
  std::vector<fed::AggregateRecord> aggregates;
  std::vector<fed::ClientMetrics> metrics;
  std::vector<fed::RoundInfo> round_infos;
};

struct WorkloadOutput {
  std::string summary;                ///< one-line human-readable result
  std::vector<ClientId> clients;      ///< clients `per_client` refers to
  std::vector<double> per_client;     ///< per-client score (workload-specific)
  std::vector<ClientId> selected;     ///< flagged / chosen clients
  double scalar = 0.0;                ///< headline metric
  ComputeWork work;                   ///< cost-model footprint
  units::Bytes result_bytes = 64 * units::KB;  ///< result object size
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual fed::WorkloadType type() const noexcept = 0;

  /// Metadata keys required to serve `req` (DESIGN.md §3 windows).
  [[nodiscard]] virtual std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::RoundDirectory& dir) const = 0;

  /// Run the workload. Throws InvalidArgument when the input is missing
  /// records the data needs promised.
  [[nodiscard]] virtual WorkloadOutput execute(
      const fed::NonTrainingRequest& req, const WorkloadInput& in) const = 0;
};

/// Registry lookup; every fed::WorkloadType has an implementation.
[[nodiscard]] const Workload& workload_for(fed::WorkloadType type);

// --- shared helpers for implementations ----------------------------------

/// bytes_touched = every input record is deserialized and scanned once.
[[nodiscard]] ComputeWork scan_work(const WorkloadInput& in);

/// The job model's parameter count as a double (flop formulas).
[[nodiscard]] double logical_params(const WorkloadInput& in);

/// Median of a non-empty vector (copies; inputs are small).
[[nodiscard]] double median(std::vector<double> values);

/// `count` probe tensors of `dim` i.i.d. N(0, 1) values drawn in order from
/// Rng(seed): bit-identical to calling ops::random_normal(dim, rng) `count`
/// times. The batch is a pure function of its arguments, and P1/P2 requests
/// keep asking for the newest round's batch, so it is memoized in two
/// thread_local most-recently-used slots: no lock, and at most two batches
/// per thread (128 KB for 16 probes at the largest materialized dim, 1024).
/// Two slots suffice because ShardedStore runs each tenant's timeline as one
/// pool task, so a thread serves one tenant at a time, and that tenant's live
/// keys are its inference and debugging batches for the newest round.
/// A returned batch stays valid after its slot is reused.
[[nodiscard]] std::shared_ptr<const std::vector<Tensor>> probe_batch(
    std::uint64_t seed, std::size_t dim, int count);

/// Decode a stored blob into the right WorkloadInput bucket based on the
/// key's kind. Shared by every serving system (FLStore and the baselines),
/// so they all run identical workload semantics.
void absorb_blob(WorkloadInput& in, const MetadataKey& key,
                 std::span<const std::uint8_t> bytes);

/// The input `req` needs, resolved straight from `job`'s regenerated round
/// records with no storage or codec in between: the ground truth tests and
/// benches run workloads against.
[[nodiscard]] WorkloadInput input_from_job(const fed::FLJob& job,
                                           const fed::NonTrainingRequest& req);

}  // namespace flstore::workloads
