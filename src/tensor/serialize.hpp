// Byte-level serialization of tensors with an integrity checksum.
//
// The persistent object store holds serialized blobs; the checksum catches
// corruption bugs in cache/spill paths (a real concern when the same object
// flows through function memory, replicas and the cold store).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace flstore {

using Blob = std::vector<std::uint8_t>;

/// FNV-1a 64-bit checksum of a byte range.
[[nodiscard]] std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// FNV-1a of `bytes` and of its sub-range [inner_offset, inner_offset +
/// inner_len), in one pass. The two multiply chains are independent, so the
/// inner one runs in the outer one's latency shadow. Equal to
/// {checksum(bytes), checksum(bytes.subspan(inner_offset, inner_len))}.
struct FusedChecksum {
  std::uint64_t outer = 0;
  std::uint64_t inner = 0;
};
[[nodiscard]] FusedChecksum checksum_fused(std::span<const std::uint8_t> bytes,
                                           std::size_t inner_offset,
                                           std::size_t inner_len);

/// Layout: magic(4) | dim(u64) | payload(dim * f32, little-endian) | crc(u64).
[[nodiscard]] Blob serialize_tensor(const Tensor& t);

/// Throws InvalidArgument on malformed input or checksum mismatch.
[[nodiscard]] Tensor deserialize_tensor(std::span<const std::uint8_t> bytes);

/// deserialize_tensor for a tensor blob stored at frame[offset, offset +
/// len) inside an enclosing frame whose own checksum is `frame_crc` over all
/// of `frame`. Both checksums are computed in one pass (checksum_fused) and
/// both are compared before the payload is copied. Throws InvalidArgument on
/// a malformed blob or either mismatch.
[[nodiscard]] Tensor deserialize_nested_tensor(
    std::span<const std::uint8_t> frame, std::size_t offset, std::size_t len,
    std::uint64_t frame_crc);

/// Size in bytes that serialize_tensor would produce for a given dimension.
[[nodiscard]] std::size_t serialized_size(std::size_t dim) noexcept;

}  // namespace flstore
