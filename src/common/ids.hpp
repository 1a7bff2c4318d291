// Strong identifier vocabulary shared across the whole system.
//
// FL metadata is addressed by (client, round, kind). The CacheEngine maps
// such keys onto serverless function instances, the persistent object store
// maps them onto object names, and workloads declare their data needs as
// lists of them (Table 1 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace flstore {

using ClientId = std::int32_t;    ///< index into the client pool; -1 = none
using RoundId = std::int32_t;     ///< training round, 0-based; -1 = none
using FunctionId = std::int32_t;  ///< serverless function instance; -1 = none
using RequestId = std::uint64_t;  ///< non-training request, unique per trace
using JobId = std::int32_t;       ///< FL job (multi-tenancy)

inline constexpr ClientId kNoClient = -1;
inline constexpr RoundId kNoRound = -1;
inline constexpr FunctionId kNoFunction = -1;

/// What a stored object contains. Sizes differ wildly: model state is
/// hundreds of MB, scalar metadata a few KB (policy P4 exploits this).
enum class ObjectKind : std::uint8_t {
  ClientUpdate,     ///< one client's model update for one round
  AggregatedModel,  ///< FedAvg output of one round
  RoundMetadata,    ///< round hyperparameters + global training stats
  ClientMetrics,    ///< one client's scalar metrics for one round (tiny)
};

[[nodiscard]] constexpr const char* to_string(ObjectKind k) noexcept {
  switch (k) {
    case ObjectKind::ClientUpdate: return "client_update";
    case ObjectKind::AggregatedModel: return "aggregated_model";
    case ObjectKind::RoundMetadata: return "round_metadata";
    case ObjectKind::ClientMetrics: return "client_metrics";
  }
  return "?";
}

namespace detail {

/// |v| as unsigned (INT32_MIN included).
[[nodiscard]] constexpr std::uint32_t magnitude(std::int32_t v) noexcept {
  return v < 0 ? 0U - static_cast<std::uint32_t>(v)
               : static_cast<std::uint32_t>(v);
}

/// Characters printf's "%0<width>d" prints for `v`: the sign and the
/// digits, zero-padded to at least `width`.
[[nodiscard]] constexpr std::size_t padded_length(std::int32_t v,
                                                  std::size_t width) noexcept {
  std::size_t len = v < 0 ? 2 : 1;
  for (auto m = magnitude(v); m >= 10; m /= 10) ++len;
  return std::max(len, width);
}

/// Write `v` as printf's "%0<width>d" into the `len` = padded_length(v,
/// width) characters at `out`; returns the end of what it wrote.
inline char* write_padded(char* out, std::int32_t v, std::size_t len) noexcept {
  char* p = out + len;
  auto m = magnitude(v);
  do {
    *--p = static_cast<char>('0' + m % 10);
    m /= 10;
  } while (m != 0);
  char* const digits_start = v < 0 ? out + 1 : out;
  while (p > digits_start) *--p = '0';
  if (v < 0) *out = '-';
  return out + len;
}

}  // namespace detail

/// Addressable unit of FL metadata. Client is kNoClient for round-level
/// objects (aggregated model, round metadata).
struct MetadataKey {
  ObjectKind kind = ObjectKind::ClientUpdate;
  ClientId client = kNoClient;
  RoundId round = kNoRound;

  friend bool operator==(const MetadataKey&, const MetadataKey&) = default;
  friend auto operator<=>(const MetadataKey&, const MetadataKey&) = default;

  [[nodiscard]] static MetadataKey update(ClientId c, RoundId r) {
    return {ObjectKind::ClientUpdate, c, r};
  }
  [[nodiscard]] static MetadataKey aggregate(RoundId r) {
    return {ObjectKind::AggregatedModel, kNoClient, r};
  }
  [[nodiscard]] static MetadataKey metadata(RoundId r) {
    return {ObjectKind::RoundMetadata, kNoClient, r};
  }
  [[nodiscard]] static MetadataKey metrics(ClientId c, RoundId r) {
    return {ObjectKind::ClientMetrics, c, r};
  }

  /// Stable object-store name, e.g. "r000042/client_update/c0017": byte
  /// for byte what printf's "r%06d/%s/c%04d" of (round, kind, client)
  /// gives, formatted by hand into one allocation (the pool keys every
  /// cached object by this name, so it sits on every put and evict).
  [[nodiscard]] std::string object_name() const {
    const std::string_view kind_name = to_string(kind);
    const auto round_len = detail::padded_length(round, 6);
    const auto client_len = detail::padded_length(client, 4);
    std::string name(round_len + kind_name.size() + client_len + 4, '\0');
    char* p = name.data();
    *p++ = 'r';
    p = detail::write_padded(p, round, round_len);
    *p++ = '/';
    p = std::copy(kind_name.begin(), kind_name.end(), p);
    *p++ = '/';
    *p++ = 'c';
    (void)detail::write_padded(p, client, client_len);
    return name;
  }
};

struct MetadataKeyHash {
  [[nodiscard]] std::size_t operator()(const MetadataKey& k) const noexcept {
    // FNV-1a over the three fields; cheap and well distributed for the
    // small dense id spaces we use.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(k.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.client)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.round)));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace flstore
