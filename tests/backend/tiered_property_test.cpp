// Shadow-model property test for TieredColdStore: randomized op sequences
// (put / batched put / get / remove / flush / bounded flush_window / crash)
// replayed against a flat in-memory oracle, in both write modes and under
// fast-tier capacity pressure — asserting contents, the occupancy ledger,
// the dirty window, and fee monotonicity match after every operation.
// Modeled on the cache engine's peek_victim oracle test; seeds widen via
// PROPERTY_TEST_SEEDS (see tests/property_seeds.hpp).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "../property_seeds.hpp"
#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/tiered_cold_store.hpp"
#include "common/rng.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

using units::MB;

/// The flat oracle: per name, the current (acked) version and the durable
/// (last-flushed) version. In write-through mode every accepted put is
/// durable immediately; in write-back mode durability lags until a flush,
/// and a crash reverts to it.
struct OracleObject {
  Blob current;
  units::Bytes current_logical = 0;
  bool has_durable = false;
  Blob durable;
  units::Bytes durable_logical = 0;
  bool dirty = false;
  double dirty_since = 0.0;
};

struct TieredOracle {
  std::map<std::string, OracleObject> objects;

  void put(const std::string& name, Blob blob, units::Bytes logical,
           double now, bool write_back) {
    auto& obj = objects[name];
    obj.current = std::move(blob);
    obj.current_logical = logical;
    if (write_back) {
      if (!obj.dirty) {
        obj.dirty = true;
        obj.dirty_since = now;  // re-dirty keeps the original stamp
      }
    } else {
      obj.durable = obj.current;
      obj.durable_logical = logical;
      obj.has_durable = true;
    }
  }

  void remove(const std::string& name) { objects.erase(name); }

  /// Names flush_window(now, cutoff, max_objects) would drain, in the
  /// implementation's deterministic (since, name) order.
  std::vector<std::string> drain_set(double cutoff,
                                     std::size_t max_objects) const {
    std::vector<std::pair<std::pair<double, std::string>, std::string>> due;
    for (const auto& [name, obj] : objects) {
      if (obj.dirty && obj.dirty_since <= cutoff) {
        due.push_back({{obj.dirty_since, name}, name});
      }
    }
    std::sort(due.begin(), due.end());
    std::vector<std::string> names;
    for (const auto& entry : due) {
      if (max_objects > 0 && names.size() >= max_objects) break;
      names.push_back(entry.second);
    }
    return names;
  }

  void flush(const std::vector<std::string>& names) {
    for (const auto& name : names) {
      auto& obj = objects.at(name);
      obj.durable = obj.current;
      obj.durable_logical = obj.current_logical;
      obj.has_durable = true;
      obj.dirty = false;
    }
  }

  StorageBackend::CrashResult crash() {
    StorageBackend::CrashResult lost;
    for (auto it = objects.begin(); it != objects.end();) {
      auto& obj = it->second;
      if (!obj.dirty) {
        ++it;
        continue;
      }
      ++lost.lost_objects;
      lost.lost_bytes += obj.current_logical;
      if (obj.has_durable) {
        obj.current = obj.durable;
        obj.current_logical = obj.durable_logical;
        obj.dirty = false;
        ++it;
      } else {
        it = objects.erase(it);
      }
    }
    return lost;
  }

  [[nodiscard]] std::size_t dirty_count() const {
    std::size_t n = 0;
    for (const auto& [name, obj] : objects) n += obj.dirty ? 1 : 0;
    return n;
  }

  [[nodiscard]] units::Bytes dirty_bytes() const {
    units::Bytes bytes = 0;
    for (const auto& [name, obj] : objects) {
      if (obj.dirty) bytes += obj.current_logical;
    }
    return bytes;
  }

  [[nodiscard]] std::optional<double> oldest_dirty_since() const {
    std::optional<double> oldest;
    for (const auto& [name, obj] : objects) {
      if (obj.dirty && (!oldest || obj.dirty_since < *oldest)) {
        oldest = obj.dirty_since;
      }
    }
    return oldest;
  }

  /// Deduplicated logical occupancy: the deep tier's (durable) sizes plus
  /// dirty-only residents — exactly stored_logical_bytes()'s contract.
  [[nodiscard]] units::Bytes occupancy() const {
    units::Bytes bytes = 0;
    for (const auto& [name, obj] : objects) {
      bytes += obj.has_durable ? obj.durable_logical : obj.current_logical;
    }
    return bytes;
  }
};

std::string pool_name(int i) {
  std::string name;
  name.push_back('n');
  name += std::to_string(i);
  return name;
}

class TieredShadowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TieredShadowFuzz, ContentsLedgersAndFeesMatchAFlatOracle) {
  for (const bool write_back : {false, true}) {
    SCOPED_TRACE(write_back ? "write-back" : "write-through");
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13 +
            (write_back ? 1 : 0));

    // Write-through runs under fast-tier capacity pressure (fixed 1-node
    // cache, LRU-evicting, refusing oversized objects); write-back runs
    // over an auto-scaling SSD so the only loss channel is crash() — a
    // bounded write-back fast tier can drop acked data (dropped_dirty),
    // which no flat oracle can track and the directed tests cover.
    ObjectStoreBackend deep(sim::objstore_link(), PricingCatalog::aws());
    CloudCacheBackend::Config cache_cfg;
    cache_cfg.auto_scale = false;
    cache_cfg.nodes = 1;
    cache_cfg.link = sim::cloudcache_link();
    CloudCacheBackend cache(cache_cfg, PricingCatalog::aws());
    LocalSsdBackend::Config ssd_cfg;
    ssd_cfg.link = sim::local_ssd_link();
    LocalSsdBackend ssd(ssd_cfg, PricingCatalog::aws());
    TieredColdStore::Config cfg;
    cfg.write_mode = write_back ? TieredColdStore::WriteMode::kWriteBack
                                : TieredColdStore::WriteMode::kWriteThrough;
    StorageBackend* fast = write_back ? static_cast<StorageBackend*>(&ssd)
                                      : static_cast<StorageBackend*>(&cache);
    TieredColdStore tiered({fast, &deep}, cfg);

    TieredOracle oracle;
    constexpr int kPool = 12;
    std::uint64_t version = 0;
    double fees_before = 0.0;
    const auto huge = 2 * PricingCatalog::aws().cache_node_capacity;

    const auto make_blob = [&]() {
      ++version;
      return Blob{static_cast<std::uint8_t>(version & 0xFF),
                  static_cast<std::uint8_t>((version >> 8) & 0xFF)};
    };
    const auto pick_logical = [&]() -> units::Bytes {
      // Occasional oversized object: the bounded write-through fast tier
      // must refuse it (and invalidate its stale copy) without the
      // composition losing it.
      if (!write_back && rng.bernoulli(0.15)) return huge;
      return static_cast<units::Bytes>(rng.uniform_int(1, 8)) * MB;
    };

    for (int op = 0; op < 300; ++op) {
      const double now = static_cast<double>(op);
      const auto name =
          pool_name(static_cast<int>(rng.uniform_int(0, kPool - 1)));
      const auto action = rng.uniform_int(0, 11);
      if (action <= 4) {
        auto blob = make_blob();
        const auto logical = pick_logical();
        oracle.put(name, blob, logical, now, write_back);
        ASSERT_TRUE(
            tiered.put(name, std::move(blob), logical, now).accepted);
      } else if (action == 5) {
        std::vector<PutRequest> batch;
        const auto count = rng.uniform_int(1, 3);
        for (int k = 0; k < count; ++k) {
          const auto batch_name =
              pool_name(static_cast<int>(rng.uniform_int(0, kPool - 1)));
          auto blob = make_blob();
          const auto logical = pick_logical();
          // Later duplicates of one name in a batch overwrite earlier
          // ones, same as sequential puts.
          oracle.put(batch_name, blob, logical, now, write_back);
          batch.push_back(PutRequest{batch_name, std::move(blob), logical});
        }
        const auto res = tiered.put_batch(std::move(batch), now);
        ASSERT_EQ(res.stored, static_cast<std::size_t>(count));
      } else if (action <= 7) {
        const auto got = tiered.get(name, now);
        const auto it = oracle.objects.find(name);
        ASSERT_EQ(got.found, it != oracle.objects.end());
        if (got.found) {
          ASSERT_EQ(*got.blob, it->second.current);
          ASSERT_EQ(got.logical_bytes, it->second.current_logical);
        }
      } else if (action == 8) {
        const bool expect = oracle.objects.contains(name);
        oracle.remove(name);
        ASSERT_EQ(tiered.remove(name, now), expect);
      } else if (action == 9) {
        const auto expected = oracle.drain_set(
            std::numeric_limits<double>::infinity(), 0);
        const auto res = tiered.flush(now);
        ASSERT_EQ(res.drained, expected.size());
        ASSERT_EQ(res.refused, 0U);  // unbounded deep tier never refuses
        units::Bytes expected_bytes = 0;
        for (const auto& drained : expected) {
          expected_bytes += oracle.objects.at(drained).current_logical;
        }
        ASSERT_EQ(res.drained_bytes, expected_bytes);
        oracle.flush(expected);
      } else if (action == 10) {
        const double cutoff =
            now - static_cast<double>(rng.uniform_int(0, 10));
        const auto max_objects =
            static_cast<std::size_t>(rng.uniform_int(0, 2));
        const auto expected = oracle.drain_set(cutoff, max_objects);
        const auto res = tiered.flush_window(now, cutoff, max_objects);
        ASSERT_EQ(res.drained, expected.size());
        oracle.flush(expected);
      } else {
        const auto expected = oracle.crash();
        const auto lost = tiered.crash(now);
        ASSERT_EQ(lost.lost_objects, expected.lost_objects);
        ASSERT_EQ(lost.lost_bytes, expected.lost_bytes);
      }

      // The composition agrees with the flat oracle after every op.
      const double fees_now = tiered.stats().fees_usd;
      ASSERT_GE(fees_now, fees_before);  // fee monotonicity
      fees_before = fees_now;
      ASSERT_EQ(tiered.dirty_count(), oracle.dirty_count());
      ASSERT_EQ(tiered.stored_logical_bytes(), oracle.occupancy());
      const auto window = tiered.dirty_window();
      ASSERT_EQ(window.objects, oracle.dirty_count());
      ASSERT_EQ(window.bytes, oracle.dirty_bytes());
      const auto oldest = oracle.oldest_dirty_since();
      if (oldest.has_value()) {
        ASSERT_DOUBLE_EQ(window.oldest_since_s, *oldest);
      }
      ASSERT_EQ(tiered.dropped_dirty_count(), 0U);
      for (int i = 0; i < kPool; ++i) {
        ASSERT_EQ(tiered.contains(pool_name(i)),
                  oracle.objects.contains(pool_name(i)));
      }
      // Full content sweep every few ops (each probe books real gets).
      if (op % 5 == 4) {
        for (int i = 0; i < kPool; ++i) {
          const auto got = tiered.get(pool_name(i), now);
          const auto it = oracle.objects.find(pool_name(i));
          ASSERT_EQ(got.found, it != oracle.objects.end());
          if (got.found) {
            ASSERT_EQ(*got.blob, it->second.current);
            ASSERT_EQ(got.logical_bytes, it->second.current_logical);
          }
        }
        fees_before = tiered.stats().fees_usd;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TieredShadowFuzz,
    ::testing::Range(0, flstore::testing::property_test_seeds()));

}  // namespace
}  // namespace flstore::backend
