#include "tensor/serialize.hpp"

#include <cstring>

#include "common/error.hpp"

namespace flstore {

namespace {
constexpr std::uint8_t kMagic[4] = {'F', 'L', 'T', '1'};
constexpr std::size_t kHeader = sizeof(kMagic) + sizeof(std::uint64_t);
constexpr std::size_t kOverhead = kHeader + sizeof(std::uint64_t);

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const auto b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
T read_raw(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

/// Checks a tensor blob's framing (size, magic, dim) and returns its dim.
std::size_t checked_dim(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kOverhead) {
    throw InvalidArgument("tensor blob too small");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw InvalidArgument("tensor blob bad magic");
  }
  // Derive the dim the blob can hold instead of sizing from the stored dim:
  // dim * sizeof(float) can wrap for a corrupted dim.
  const auto dim = read_raw<std::uint64_t>(bytes, sizeof(kMagic));
  const auto payload = bytes.size() - kOverhead;
  if (payload % sizeof(float) != 0 || dim != payload / sizeof(float)) {
    throw InvalidArgument("tensor blob size mismatch");
  }
  return static_cast<std::size_t>(dim);
}

std::uint64_t stored_crc(std::span<const std::uint8_t> bytes) {
  return read_raw<std::uint64_t>(bytes, bytes.size() - sizeof(std::uint64_t));
}

Tensor copy_payload(std::span<const std::uint8_t> bytes, std::size_t dim) {
  Tensor t(dim);
  if (dim > 0) {
    std::memcpy(t.span().data(), bytes.data() + kHeader, dim * sizeof(float));
  }
  return t;
}
}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  return fnv1a(kFnvOffset, bytes);
}

FusedChecksum checksum_fused(std::span<const std::uint8_t> bytes,
                             std::size_t inner_offset, std::size_t inner_len) {
  FLSTORE_CHECK(inner_offset <= bytes.size() &&
                inner_len <= bytes.size() - inner_offset);
  std::uint64_t outer = fnv1a(kFnvOffset, bytes.first(inner_offset));
  std::uint64_t inner = kFnvOffset;
  for (const auto b : bytes.subspan(inner_offset, inner_len)) {
    outer ^= b;
    inner ^= b;
    outer *= kFnvPrime;
    inner *= kFnvPrime;
  }
  outer = fnv1a(outer, bytes.subspan(inner_offset + inner_len));
  return {outer, inner};
}

std::size_t serialized_size(std::size_t dim) noexcept {
  return kOverhead + dim * sizeof(float);
}

Blob serialize_tensor(const Tensor& t) {
  // Sized upfront and filled with memcpy: one allocation, and no
  // vector::insert growth paths (which GCC 12's -O3 stringop-overflow
  // analysis flags spuriously).
  Blob out(serialized_size(t.dim()));
  std::size_t off = 0;
  const auto put = [&out, &off](const void* p, std::size_t n) {
    if (n > 0) std::memcpy(out.data() + off, p, n);
    off += n;
  };
  put(kMagic, sizeof(kMagic));
  const auto dim = static_cast<std::uint64_t>(t.dim());
  put(&dim, sizeof(dim));
  put(t.span().data(), t.dim() * sizeof(float));
  const std::uint64_t crc = checksum(std::span(out.data(), off));
  put(&crc, sizeof(crc));
  FLSTORE_CHECK(off == out.size());
  return out;
}

Tensor deserialize_tensor(std::span<const std::uint8_t> bytes) {
  const auto dim = checked_dim(bytes);
  const auto body = bytes.first(bytes.size() - sizeof(std::uint64_t));
  if (checksum(body) != stored_crc(bytes)) {
    throw InvalidArgument("tensor blob checksum mismatch");
  }
  return copy_payload(bytes, dim);
}

Tensor deserialize_nested_tensor(std::span<const std::uint8_t> frame,
                                 std::size_t offset, std::size_t len,
                                 std::uint64_t frame_crc) {
  FLSTORE_CHECK(offset <= frame.size() && len <= frame.size() - offset);
  const auto blob = frame.subspan(offset, len);
  const auto dim = checked_dim(blob);
  const auto sums =
      checksum_fused(frame, offset, len - sizeof(std::uint64_t));
  if (sums.outer != frame_crc) {
    throw InvalidArgument("enclosing frame checksum mismatch");
  }
  if (sums.inner != stored_crc(blob)) {
    throw InvalidArgument("tensor blob checksum mismatch");
  }
  return copy_payload(blob, dim);
}

}  // namespace flstore
