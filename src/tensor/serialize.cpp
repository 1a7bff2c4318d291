#include "tensor/serialize.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace flstore {

namespace {
constexpr std::uint8_t kMagic[4] = {'F', 'L', 'T', '1'};
constexpr std::size_t kHeader = sizeof(kMagic) + sizeof(std::uint64_t);
constexpr std::size_t kOverhead = kHeader + sizeof(std::uint64_t);

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

// XXH64 (github.com/Cyan4973/xxHash, doc/xxhash_spec.md), seed 0.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// The spec reads input words little-endian; memcpy reads them natively.
static_assert(std::endian::native == std::endian::little);

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t checksum(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  const auto load64 = [&p] {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    return v;
  };
  std::uint64_t h = kPrime5;
  if (left >= 32) {
    // Four independent lanes per 32-byte stripe.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; left >= 32; left -= 32) {
      v1 = xxh_round(v1, load64());
      v2 = xxh_round(v2, load64());
      v3 = xxh_round(v3, load64());
      v4 = xxh_round(v4, load64());
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; left >= 8; left -= 8) {
    h = std::rotl(h ^ xxh_round(0, load64()), 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    left -= 4;
    h = std::rotl(h ^ (static_cast<std::uint64_t>(v) * kPrime1), 23) * kPrime2 +
        kPrime3;
  }
  for (; left > 0; --left) {
    h = std::rotl(h ^ (*p++ * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
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
  if (checksum(frame) != frame_crc) {
    throw InvalidArgument("enclosing frame checksum mismatch");
  }
  if (checksum(blob.first(len - sizeof(std::uint64_t))) != stored_crc(blob)) {
    throw InvalidArgument("tensor blob checksum mismatch");
  }
  return copy_payload(blob, dim);
}

}  // namespace flstore
