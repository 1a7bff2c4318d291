// Property-based tests: CacheEngine invariants under randomized operation
// sequences (parameterized over seeds), plus the victim-selection oracle:
// the O(log n) eviction index must pick exactly the victim the old O(n)
// full-index scan would have picked (made deterministic by the
// (pinned, score, key) total order) in all four eviction modes.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>

#include "core/cache_engine.hpp"

namespace flstore::core {
namespace {

using units::MB;

// ---------------------------------------------------------------------------
// Victim-selection oracle: a shadow model of the engine's per-entry
// bookkeeping plus the reference O(n) scan.

struct ShadowEntry {
  std::uint64_t last_access = 0;
  std::uint64_t inserted = 0;
  std::uint64_t accesses = 0;
  bool pinned = false;
  units::Bytes bytes = 0;
};

struct ModeUnderTest {
  const char* name;
  PolicyMode order;
  bool round_aware;
};

constexpr ModeUnderTest kModes[] = {
    {"LRU", PolicyMode::kLru, false},
    {"LFU", PolicyMode::kLfu, false},
    {"FIFO", PolicyMode::kFifo, false},
    {"round-aware", PolicyMode::kLru, true},
};

/// The old evict_victim, spelled out: full scan, smallest score wins;
/// pinned entries only when nothing unpinned remains; ties break on key.
std::optional<MetadataKey> oracle_victim(
    const std::map<MetadataKey, ShadowEntry>& entries,
    const ModeUnderTest& mode) {
  std::optional<MetadataKey> best_key;
  std::tuple<bool, std::uint64_t, std::uint64_t, MetadataKey> best{};
  for (const auto& [key, e] : entries) {
    std::uint64_t primary = 0;
    std::uint64_t secondary = 0;
    if (mode.round_aware) {
      primary = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(key.round) + (1LL << 32));
      secondary = e.last_access;
    } else if (mode.order == PolicyMode::kLfu) {
      primary = e.accesses;
      secondary = e.last_access;
    } else if (mode.order == PolicyMode::kFifo) {
      primary = e.inserted;
    } else {
      primary = e.last_access;
    }
    const auto cand = std::make_tuple(e.pinned, primary, secondary, key);
    if (!best_key.has_value() || cand < best) {
      best = cand;
      best_key = key;
    }
  }
  return best_key;
}

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, InvariantsHoldUnderRandomOps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
  ServerlessCachePool pool(
      ServerlessCachePool::Config{1 * units::GB, 1, 0}, runtime);
  const units::Bytes capacity = 500 * MB;
  CacheEngine engine(CacheEngine::Config{capacity, PolicyMode::kLru}, pool);

  const auto blob = std::make_shared<const Blob>(Blob{1, 2, 3});
  std::uint64_t lookups = 0;
  double now = 0.0;

  for (int op = 0; op < 600; ++op) {
    now += 1.0;
    const MetadataKey key = MetadataKey::update(
        static_cast<ClientId>(rng.uniform_int(0, 9)),
        static_cast<RoundId>(rng.uniform_int(0, 19)));
    const auto action = rng.uniform_int(0, 2);
    if (action == 0) {
      const auto size = static_cast<units::Bytes>(
          rng.uniform_int(1, 120)) * MB;
      (void)engine.cache_object(key, blob, size, now);
    } else if (action == 1) {
      (void)engine.lookup(key, now);
      ++lookups;
    } else {
      (void)engine.evict(key);
    }

    // Invariant 1: capacity is never exceeded.
    ASSERT_LE(engine.cached_bytes(), capacity);
    // Invariant 2: lookups are fully classified.
    ASSERT_EQ(engine.hits() + engine.misses(), lookups);
  }
  // Invariant 3: draining the index leaves zero bytes.
  for (ClientId c = 0; c < 10; ++c) {
    for (RoundId r = 0; r < 20; ++r) {
      (void)engine.evict(MetadataKey::update(c, r));
    }
  }
  EXPECT_EQ(engine.cached_bytes(), 0U);
  EXPECT_EQ(engine.object_count(), 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 12));

class VictimOracleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VictimOracleFuzz, VictimChoiceMatchesFullScanOracleInAllModes) {
  for (const auto& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 11);
    FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
    ServerlessCachePool pool(
        ServerlessCachePool::Config{1 * units::GB, 1, 0}, runtime);
    const units::Bytes capacity = 500 * MB;
    CacheEngine engine(
        CacheEngine::Config{capacity, mode.order, mode.round_aware}, pool);

    // Shadow model mirroring the engine's per-entry bookkeeping. The
    // eviction sequence is replayed against the oracle, so any divergence
    // in victim choice shows up as a membership mismatch too.
    std::map<MetadataKey, ShadowEntry> shadow;
    units::Bytes shadow_bytes = 0;
    std::uint64_t clock = 0;
    const auto blob = std::make_shared<const Blob>(Blob{1});

    const auto shadow_remove = [&](const MetadataKey& k) {
      const auto it = shadow.find(k);
      ASSERT_NE(it, shadow.end());
      shadow_bytes -= it->second.bytes;
      shadow.erase(it);
    };

    for (int op = 0; op < 500; ++op) {
      const double now = static_cast<double>(op);
      const auto client = static_cast<ClientId>(rng.uniform_int(0, 7));
      const auto round = static_cast<RoundId>(rng.uniform_int(0, 15));
      const MetadataKey key = rng.bernoulli(0.5)
                                  ? MetadataKey::update(client, round)
                                  : MetadataKey::metrics(client, round);
      const auto action = rng.uniform_int(0, 9);
      if (action <= 4) {  // insert / refresh
        const auto size =
            static_cast<units::Bytes>(rng.uniform_int(1, 120)) * MB;
        const bool pinned = rng.bernoulli(0.25);
        if (const auto it = shadow.find(key); it != shadow.end()) {
          ++clock;
          it->second.last_access = clock;
          ++it->second.accesses;
          it->second.pinned = it->second.pinned || pinned;
          ASSERT_TRUE(engine.cache_object(key, blob, size, now, 0.0, pinned));
        } else {
          // Replay the capacity evictions the engine is about to perform,
          // each against the O(n) scan oracle; the per-op membership sweep
          // below catches any divergence in victim choice.
          while (shadow_bytes + size > capacity && !shadow.empty()) {
            const auto victim = oracle_victim(shadow, mode);
            ASSERT_TRUE(victim.has_value());
            shadow_remove(*victim);
          }
          ++clock;
          shadow.emplace(key, ShadowEntry{clock, clock, 1, pinned, size});
          shadow_bytes += size;
          ASSERT_TRUE(engine.cache_object(key, blob, size, now, 0.0, pinned));
        }
      } else if (action <= 7) {  // lookup
        ++clock;
        if (const auto it = shadow.find(key); it != shadow.end()) {
          it->second.last_access = clock;
          ++it->second.accesses;
          ASSERT_TRUE(engine.lookup(key, now).hit);
        } else {
          ASSERT_FALSE(engine.lookup(key, now).hit);
        }
      } else {  // explicit evict (window maintenance honours pins)
        const bool include_pinned = action == 8;
        const auto it = shadow.find(key);
        const bool expect =
            it != shadow.end() && (include_pinned || !it->second.pinned);
        ASSERT_EQ(engine.evict(key, include_pinned), expect);
        if (expect) shadow_remove(key);
      }

      // The engine agrees with the shadow model after every operation:
      // same membership, same bytes, same next victim.
      ASSERT_EQ(engine.object_count(), shadow.size());
      ASSERT_EQ(engine.cached_bytes(), shadow_bytes);
      ASSERT_EQ(engine.peek_victim(), oracle_victim(shadow, mode));
      ASSERT_LE(engine.cached_bytes(), capacity);
      for (const auto& kv : shadow) {
        ASSERT_TRUE(engine.contains(kv.first));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VictimOracleFuzz, ::testing::Range(0, 10));

class PoolFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PoolFuzz, ReplicaGroupsSurviveRandomFaultsAndRepairs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
  const int replicas = 3;
  ServerlessCachePool pool(
      ServerlessCachePool::Config{1 * units::GB, replicas, 0}, runtime);
  const auto blob = std::make_shared<const Blob>(Blob{9});
  const auto group = pool.put("obj", blob, 100 * units::MB);
  ASSERT_TRUE(group.has_value());

  for (int step = 0; step < 100; ++step) {
    if (rng.bernoulli(0.4)) {
      (void)pool.reclaim_member(*group,
                                static_cast<int>(rng.uniform_int(0, replicas - 1)));
    } else {
      (void)pool.repair(*group);
    }
    // Invariant: as long as one member is warm, the object is readable and
    // failover delay is bounded by (replicas-1) timeouts.
    if (pool.group_alive(*group)) {
      const auto access = pool.get(*group, "obj");
      ASSERT_TRUE(access.ok);
      ASSERT_LE(access.failover_delay_s, 0.5 * (replicas - 1) + 1e-9);
    } else {
      ASSERT_FALSE(pool.get(*group, "obj").ok);
      // Dead groups cannot repair from nothing.
      ASSERT_FALSE(pool.repair(*group));
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace flstore::core
