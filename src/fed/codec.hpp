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
#include <span>
#include <vector>

#include "fed/metadata.hpp"

namespace flstore::fed {

using Blob = std::vector<std::uint8_t>;

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

}  // namespace flstore::fed
