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

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/compute_work.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "fed/codec.hpp"
#include "fed/fl_job.hpp"
#include "fed/metadata.hpp"
#include "fed/request.hpp"
#include "models/model_zoo.hpp"

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

/// The identity of a probe batch: `count` tensors of `dim` i.i.d. N(0, 1)
/// values, drawn in order from Rng(seed).
struct ProbeSpec {
  std::uint64_t seed = 0;
  std::size_t dim = 0;
  int count = 0;
  friend bool operator==(const ProbeSpec&, const ProbeSpec&) = default;
};

using ProbeBatch = std::shared_ptr<const std::vector<Tensor>>;

/// A batch drawn with a round, ahead of the requests that will ask for it.
struct PreparedProbes {
  ProbeSpec spec;
  ProbeBatch batch;
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

/// A 64-bit digest of every field of `out`, bit for bit: two runs that
/// served the same outputs record the same digests.
[[nodiscard]] std::uint64_t output_digest(const WorkloadOutput& out);

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual fed::WorkloadType type() const noexcept = 0;

  /// Metadata keys required to serve `req`: its round's objects, or a
  /// window of recent rounds for the across-round and metadata families.
  [[nodiscard]] virtual std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req, const fed::FLJob& dir) const = 0;

  /// Run the workload. Throws InvalidArgument when the input is missing
  /// records the data needs promised.
  [[nodiscard]] virtual WorkloadOutput execute(
      const fed::NonTrainingRequest& req, const WorkloadInput& in) const = 0;

  /// The per-round seeded input execute() draws for a request about `round`
  /// of a model materialized at `dim`: its probe batch, or nullopt for a
  /// workload that draws none. This is the one place a workload's seed
  /// formula lives; the serving plane draws the batch with the round, off
  /// the critical path (draw_round_probes).
  [[nodiscard]] virtual std::optional<ProbeSpec> round_probes(
      RoundId /*round*/, std::size_t /*dim*/) const {
    return std::nullopt;
  }
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

/// The batch `spec` names: bit-identical to calling
/// ops::random_normal(spec.dim, rng) `spec.count` times on Rng(spec.seed).
/// Drawing a batch costs count * dim polar rejection loops, and a memo hit
/// saves all of it. The batch is a pure function of `spec`, and P1/P2
/// requests keep asking for the newest round's batch, so it is memoized in
/// four thread_local most-recently-used slots: no lock, and at most four
/// batches per thread (64 KB each for 16 probes at the largest materialized
/// dim, 1024). Four suffice because ShardedStore runs each tenant's timeline
/// as one pool task, so a timeline thread serves one tenant at a time, and
/// that tenant's live batches are its inference and debugging batches for
/// two rounds: the one just ingested, which the timeline primes at its
/// ingest, and the one before, which requests still queued from it ask for.
/// A helper thread computes outputs for any tenant and round, so it does not
/// rely on the memo's history: each of its tasks primes its own round's
/// batches just before it executes. A returned batch stays valid after its
/// slot is reused.
[[nodiscard]] ProbeBatch probe_batch(const ProbeSpec& spec);

/// The batches requests of `types` about `round` of a model materialized at
/// `dim` will ask for: one fresh draw per distinct batch a type's
/// round_probes() names, bypassing the memo (the serving plane calls this on
/// a spare thread, whose memo no request reads). Types that draw none add
/// nothing, so a mix without inference or debugging prepares no batch.
[[nodiscard]] std::vector<PreparedProbes> draw_round_probes(
    std::span<const fed::WorkloadType> types, RoundId round, std::size_t dim);

/// Make this thread's probe_batch() find `prepared` without drawing: each
/// batch becomes the most recently used slot.
void prime_probe_batches(std::span<const PreparedProbes> prepared);

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
