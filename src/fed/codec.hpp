// Binary encode/decode between metadata records and stored blobs.
//
// Everything that flows through the object store, the cloud cache or a
// function memory is a blob produced here, so corruption anywhere in those
// paths surfaces as a checksum failure at decode time. The frame checksum
// and a carried tensor's own checksum are both XXH64 (flstore::checksum),
// which replaced FNV-1a: every served request decodes several KB-scale
// frames, and FNV-1a's one serial multiply per byte made that decode a
// quarter of serving CPU.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/blob.hpp"
#include "common/ids.hpp"
#include "fed/metadata.hpp"

namespace flstore::fed {

[[nodiscard]] Blob encode_update(const ClientUpdate& u);
[[nodiscard]] ClientUpdate decode_update(std::span<const std::uint8_t> bytes);

[[nodiscard]] Blob encode_aggregate(RoundId round, const Tensor& model,
                                    units::Bytes logical_bytes);
struct AggregateRecord {
  RoundId round = kNoRound;
  Tensor model;
  units::Bytes logical_bytes = 0;
};
[[nodiscard]] AggregateRecord decode_aggregate(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] Blob encode_metrics(const ClientMetrics& m);
[[nodiscard]] ClientMetrics decode_metrics(std::span<const std::uint8_t> bytes);

struct RoundInfo {
  RoundId round = kNoRound;
  Hyperparameters hparams;
  double global_loss = 0.0;
  std::int32_t num_participants = 0;
};
[[nodiscard]] Blob encode_round_info(const RoundInfo& info);
[[nodiscard]] RoundInfo decode_round_info(std::span<const std::uint8_t> bytes);

/// Logical stored size of the tiny metadata records (scalars + framing).
/// Client metrics and round info are KB-scale — that asymmetry against
/// multi-hundred-MB updates is exactly what policy P4 exploits.
inline constexpr units::Bytes kMetricsLogicalBytes = 2 * units::KB;
inline constexpr units::Bytes kRoundInfoLogicalBytes = 4 * units::KB;

/// Logical bytes one round stores — the objects encode_round emits: every
/// participant's update and metrics, the aggregate, and the round metadata.
[[nodiscard]] constexpr units::Bytes round_logical_bytes(
    units::Bytes model_bytes, std::int64_t participants) noexcept {
  return static_cast<units::Bytes>(participants) *
             (model_bytes + kMetricsLogicalBytes) +
         model_bytes + kRoundInfoLogicalBytes;
}

/// One stored object of a round: its key, its blob, and the logical size
/// latency and cost are computed from. The blob is immutable and shared, so
/// every cache shard that holds the object holds these same bytes: a round
/// is encoded once however many shards ingest it.
struct EncodedObject {
  MetadataKey key;
  std::shared_ptr<const Blob> blob;
  units::Bytes logical_bytes = 0;
};

/// Every object a finished round stores, in storage order: each
/// participant's update then its metrics, then the aggregate, then the
/// round metadata. Backup batches and cold-tier insertion follow this order.
[[nodiscard]] std::vector<EncodedObject> encode_round(
    const RoundRecord& record);

}  // namespace flstore::fed
