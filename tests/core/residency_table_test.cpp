// ResidencyTable: the Cache Engine's lock-free membership index. A shadow-
// oracle property sweep over the table alone (runs long enough to force
// growth and tombstone purges) and through a CacheEngine (every index
// mutation — inserts, capacity evictions, explicit evicts, drop_group and
// stale-entry erasure — must keep the table equal to the index), the packed
// key range, and a concurrent churn test: readers probing with no lock must
// always find keys that stay resident and never find keys never inserted.
// Seeds widen via PROPERTY_TEST_SEEDS (see tests/property_seeds.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "../property_seeds.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cache_engine.hpp"
#include "core/residency_table.hpp"

namespace flstore::core {
namespace {

using units::MB;

/// A key universe with every kind and the -1 ids that round-level objects
/// use, so the packing's shift-by-one is on every run's path.
MetadataKey universe_key(int i) {
  const auto kind = static_cast<ObjectKind>(i % 4);
  const int n = i / 4;
  if (kind == ObjectKind::AggregatedModel ||
      kind == ObjectKind::RoundMetadata) {
    return MetadataKey{kind, kNoClient, static_cast<RoundId>(n - 1)};
  }
  return MetadataKey{kind, static_cast<ClientId>(n % 37),
                     static_cast<RoundId>(n / 37 - 1)};
}

class ResidencyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ResidencyFuzz, TableMatchesShadowSetThroughGrowthAndPurges) {
  constexpr int kUniverse = 4000;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  ResidencyTable table;
  std::set<MetadataKey> shadow;
  std::vector<MetadataKey> live;  // the shadow again, for uniform erases
  const auto random_key = [&] {
    return universe_key(static_cast<int>(rng.uniform_int(0, kUniverse - 1)));
  };
  // After every op: every resident key is found (a purge or growth moves
  // them all), the touched key and a random one agree with the shadow, and
  // a key outside the universe is never found.
  const auto check = [&](const MetadataKey& touched) {
    for (const auto& key : shadow) ASSERT_TRUE(table.contains(key));
    ASSERT_EQ(table.contains(touched), shadow.contains(touched));
    const auto probe = random_key();
    ASSERT_EQ(table.contains(probe), shadow.contains(probe));
    ASSERT_FALSE(table.contains(MetadataKey::update(1000, 1000)));
    ASSERT_EQ(table.size(), shadow.size());
  };

  // Fill (growth), then balanced churn over a universe far larger than the
  // live set: inserts of fresh keys take empty slots, erases of resident
  // keys leave tombstones, and the tombstones crowd the array into purges.
  struct Phase {
    double insert_share;
    int ops;
  };
  for (const Phase phase :
       {Phase{0.8, 500}, Phase{0.5, 3000}, Phase{0.2, 800}, Phase{0.8, 500},
        Phase{0.5, 3000}}) {
    for (int op = 0; op < phase.ops; ++op) {
      MetadataKey key = random_key();
      if (rng.bernoulli(phase.insert_share)) {
        if (!shadow.contains(key)) {
          table.insert(key);
          shadow.insert(key);
          live.push_back(key);
        }
      } else if (!live.empty()) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        key = live[at];
        live[at] = live.back();
        live.pop_back();
        table.erase(key);
        shadow.erase(key);
      }
      check(key);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (int i = 0; i < kUniverse; ++i) {
      const auto key = universe_key(i);
      ASSERT_EQ(table.contains(key), shadow.contains(key)) << "key " << i;
    }
  }
  EXPECT_GT(table.capacity(), 16U);  // grew
  EXPECT_GT(table.purges(), 0U);     // purged in place
}

TEST_P(ResidencyFuzz, EngineResidencyMatchesIndexUnderEveryMutation) {
  constexpr int kUniverse = 300;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
  ServerlessCachePool pool(
      ServerlessCachePool::Config{1 * units::GB, 1, 0}, runtime);
  CacheEngine::Config cfg;
  cfg.capacity = 2000 * MB;  // capacity evictions
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP2)] = 600 * MB;
  CacheEngine engine(cfg, pool);
  const auto blob = std::make_shared<const Blob>(Blob{1});

  for (int op = 0; op < 1500; ++op) {
    const double now = static_cast<double>(op);
    const auto key =
        universe_key(static_cast<int>(rng.uniform_int(0, kUniverse - 1)));
    const auto action = rng.uniform_int(0, 19);
    if (action < 9) {
      const auto size =
          static_cast<units::Bytes>(rng.uniform_int(1, 200)) * MB;
      const auto cls = rng.bernoulli(0.3)
                           ? std::optional(fed::PolicyClass::kP2)
                           : std::nullopt;
      (void)engine.cache_object(key, blob, size, now, 0.0, rng.bernoulli(0.2),
                                rng.bernoulli(0.2), cls);
    } else if (action < 14) {
      (void)engine.lookup(key, now);  // erases entries whose group died
    } else if (action < 17) {
      (void)engine.evict(key, rng.bernoulli(0.5));
    } else if (action < 19 && pool.group_count() > 0) {
      // A group death: told to the engine (drop_group), or silent (only a
      // later lookup finds the stale entry and erases it).
      const auto group = static_cast<GroupId>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.group_count()) - 1));
      if (pool.group_alive(group)) {
        (void)pool.reclaim_member(group, 0);
        if (action == 17) (void)engine.drop_group(group);
      }
    } else {
      std::array<units::Bytes, fed::kPolicyClassCount> budgets{};
      budgets[fed::class_index(fed::PolicyClass::kP2)] =
          static_cast<units::Bytes>(rng.uniform_int(100, 800)) * MB;
      engine.set_class_capacity(budgets);
    }
    for (int i = 0; i < kUniverse; ++i) {
      const auto k = universe_key(i);
      ASSERT_EQ(engine.residency().contains(k), engine.contains(k))
          << "op " << op << " key " << i;
    }
    ASSERT_EQ(engine.residency().size(), engine.object_count());
  }
  EXPECT_GT(engine.forced_evictions(), 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ResidencyFuzz,
    ::testing::Range(0, flstore::testing::property_test_seeds()));

TEST(ResidencyTable, PacksMinusOneAndRejectsIdsOutsideThePackedRange) {
  constexpr ClientId kLastId = (1 << 28) - 2;
  ResidencyTable table;
  const MetadataKey edge{ObjectKind::ClientMetrics, kLastId, kLastId};
  const auto aggregate = MetadataKey::aggregate(kNoRound);
  ASSERT_TRUE(ResidencyTable::packable(edge));
  ASSERT_TRUE(ResidencyTable::packable(aggregate));
  table.insert(edge);
  table.insert(aggregate);
  EXPECT_TRUE(table.contains(edge));
  EXPECT_TRUE(table.contains(aggregate));
  EXPECT_FALSE(table.contains(MetadataKey::metadata(kNoRound)));

  for (const auto& bad :
       {MetadataKey::update(kLastId + 1, 0), MetadataKey::update(0, -2),
        MetadataKey::update(std::numeric_limits<ClientId>::max(), 0),
        MetadataKey{static_cast<ObjectKind>(200), 0, 0}}) {
    EXPECT_FALSE(ResidencyTable::packable(bad));
    EXPECT_FALSE(table.contains(bad));
    EXPECT_THROW(table.insert(bad), InternalError);
  }
  EXPECT_EQ(table.size(), 2U);

  // The engine refuses such a key before anything changes.
  FunctionRuntime runtime(FunctionRuntime::Config{}, PricingCatalog::aws());
  ServerlessCachePool pool(
      ServerlessCachePool::Config{1 * units::GB, 1, 0}, runtime);
  CacheEngine engine(CacheEngine::Config{}, pool);
  EXPECT_THROW((void)engine.cache_object(MetadataKey::update(0, -2),
                                         std::make_shared<const Blob>(), MB,
                                         0.0),
               InternalError);
  EXPECT_EQ(engine.object_count(), 0U);
  EXPECT_EQ(pool.group_count(), 0U);
}

// One writer churns keys through insert/erase cycles — tombstones force
// purge after purge — while readers probe with no lock. Keys inserted before
// the readers start and never erased must always be found; keys never
// inserted must never be.
TEST(ResidencyTable, ConcurrentReadersSeeStableKeysThroughChurn) {
  constexpr int kStable = 64;
  constexpr int kChurn = 512;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kPurges = 400;
  const auto stable = [](int i) { return MetadataKey::update(i, 0); };
  // Fresh keys every cycle, so inserts land on empty slots and the
  // tombstones they leave pile up until a purge.
  const auto churn = [](int i, int cycle) {
    return MetadataKey::update(i, 1 + cycle);
  };
  const auto absent = [](int i) { return MetadataKey::metrics(i, 0); };

  ResidencyTable table;
  for (int i = 0; i < kStable; ++i) table.insert(stable(i));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> lost{0};
  std::atomic<std::uint64_t> phantom{0};
  std::atomic<std::uint64_t> probes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t n = 0;
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < kStable; ++i) {
          if (!table.contains(stable(i))) {
            lost.fetch_add(1, std::memory_order_relaxed);
          }
          if (table.contains(absent(i))) {
            phantom.fetch_add(1, std::memory_order_relaxed);
          }
          n += 2;
        }
      }
      probes.fetch_add(n, std::memory_order_relaxed);
    });
  }
  // Writer: the test thread. Purges run only here, so their count is exact.
  for (int cycle = 0; table.purges() < kPurges; ++cycle) {
    for (int i = 0; i < kChurn; ++i) table.insert(churn(i, cycle));
    for (int i = 0; i < kChurn; ++i) table.erase(churn(i, cycle));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(lost.load(), 0U);
  EXPECT_EQ(phantom.load(), 0U);
  EXPECT_GT(probes.load(), 0U);
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kStable));
  for (int i = 0; i < kStable; ++i) EXPECT_TRUE(table.contains(stable(i)));
}

}  // namespace
}  // namespace flstore::core
