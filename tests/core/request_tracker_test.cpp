#include "core/request_tracker.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "../property_seeds.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace flstore::core {
namespace {

TEST(RequestTracker, LifecycleAndProgress) {
  RequestTracker t;
  t.begin(1, 10.0);
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.is_done(1));
  EXPECT_EQ(t.in_flight(), 1U);
  t.add_function(1, 5);
  t.add_function(1, 6);
  t.add_function(1, 5);  // duplicate ignored
  t.finish(1, 12.5);
  EXPECT_TRUE(t.is_done(1));
  EXPECT_EQ(t.in_flight(), 0U);
  const auto& e = t.get(1);
  EXPECT_EQ(e.functions, (std::vector<FunctionId>{5, 6}));
  EXPECT_DOUBLE_EQ(e.started_at, 10.0);
  EXPECT_DOUBLE_EQ(e.finished_at, 12.5);
}

TEST(RequestTracker, DuplicateBeginRejected) {
  RequestTracker t;
  t.begin(1, 0.0);
  EXPECT_THROW(t.begin(1, 1.0), InternalError);
}

TEST(RequestTracker, OperationsOnUnknownIdsRejected) {
  RequestTracker t;
  EXPECT_THROW(t.add_function(9, 1), InternalError);
  EXPECT_THROW(t.finish(9, 1.0), InternalError);
  EXPECT_THROW((void)t.get(9), InternalError);
}

TEST(RequestTracker, DoubleFinishRejected) {
  RequestTracker t;
  t.begin(1, 0.0);
  t.finish(1, 1.0);
  EXPECT_THROW(t.finish(1, 2.0), InternalError);
  EXPECT_THROW(t.add_function(1, 3), InternalError);
}

TEST(RequestTracker, GarbageCollectKeepsRecentAndInFlight) {
  RequestTracker t;
  t.begin(1, 0.0);
  t.finish(1, 5.0);
  t.begin(2, 10.0);  // in flight
  t.begin(3, 100.0);
  t.finish(3, 105.0);
  const auto removed = t.garbage_collect(/*now=*/150.0, /*horizon_s=*/60.0);
  EXPECT_EQ(removed, 1U);  // only request 1 is done and old
  EXPECT_FALSE(t.contains(1));
  EXPECT_TRUE(t.contains(2));
  EXPECT_TRUE(t.contains(3));
}

TEST(RequestTracker, FootprintMatchesSection55Scale) {
  // §5.5: "less than 0.19 MB" for 1000 concurrent requests, ~20.3 MB for
  // 100000. Our dictionary must stay within the same order of magnitude.
  RequestTracker t;
  for (RequestId id = 1; id <= 1000; ++id) {
    t.begin(id, 0.0);
    t.add_function(id, static_cast<FunctionId>(id % 7));
  }
  const auto bytes_1k = t.bookkeeping_bytes();
  EXPECT_LT(bytes_1k, 400U * 1024U);  // same order as 0.19 MB
  for (RequestId id = 1001; id <= 100000; ++id) {
    t.begin(id, 0.0);
    t.add_function(id, static_cast<FunctionId>(id % 7));
  }
  const auto bytes_100k = t.bookkeeping_bytes();
  EXPECT_LT(bytes_100k, 40U * 1024U * 1024U);
  EXPECT_GT(bytes_100k, bytes_1k * 50);
  // Finished entries also sit in the expiry index, which must be counted
  // and still fit the same bound.
  for (RequestId id = 1; id <= 100000; ++id) t.finish(id, 1.0);
  const auto bytes_100k_done = t.bookkeeping_bytes();
  EXPECT_LT(bytes_100k_done, 40U * 1024U * 1024U);
  EXPECT_GE(bytes_100k_done,
            bytes_100k + 100000U * (sizeof(double) + sizeof(RequestId)));
}

TEST(RequestTracker, GarbageCollectBoundaryIsInclusive) {
  RequestTracker t;
  t.begin(1, 0.0);
  t.finish(1, 10.0);
  t.begin(2, 0.0);
  t.finish(2, 10.5);
  EXPECT_EQ(t.garbage_collect(/*now=*/69.5, /*horizon_s=*/60.0), 0U);
  EXPECT_EQ(t.garbage_collect(/*now=*/70.0, /*horizon_s=*/60.0), 1U);
  EXPECT_FALSE(t.contains(1));
  EXPECT_TRUE(t.contains(2));
  EXPECT_EQ(t.garbage_collect(/*now=*/10.5, /*horizon_s=*/0.0), 1U);
  EXPECT_EQ(t.total_tracked(), 0U);
}

TEST(RequestTracker, AbandonReleasesAnInFlightEntry) {
  RequestTracker t;
  t.begin(1, 0.0);
  t.add_function(1, 4);
  t.abandon(1);
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.in_flight(), 0U);
  t.begin(1, 2.0);  // the id is free again
  t.finish(1, 3.0);
  EXPECT_THROW(t.abandon(1), InternalError);  // finished: GC owns it now
  EXPECT_THROW(t.abandon(9), InternalError);
  EXPECT_EQ(t.garbage_collect(/*now=*/3.0, /*horizon_s=*/0.0), 1U);
}

// Differential property test: the expiry-indexed tracker against the
// full-scan garbage collector it replaced. Finish times come from a
// quarter-second grid, so ties are exact and `finished_at + horizon == now`
// boundaries are hit; finish times are not monotone in begin order; the
// horizon (including 0) changes from call to call.
struct OracleEntry {
  bool done = false;
  double finished_at = 0.0;
};

std::size_t oracle_garbage_collect(std::map<RequestId, OracleEntry>& entries,
                                   double now, double horizon_s) {
  std::size_t removed = 0;
  for (auto it = entries.begin(); it != entries.end();) {
    if (it->second.done && it->second.finished_at + horizon_s <= now) {
      it = entries.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

class RequestTrackerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RequestTrackerFuzz, GarbageCollectMatchesFullScanOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  RequestTracker t;
  std::map<RequestId, OracleEntry> oracle;
  std::size_t oracle_in_flight = 0;
  std::vector<RequestId> free_ids;  // collected or abandoned: reusable
  RequestId next_id = 1;
  double now = 0.0;
  const auto grid = [&](std::int64_t lo, std::int64_t hi) {
    return 0.25 * static_cast<double>(rng.uniform_int(lo, hi));
  };
  const auto pick = [&](bool done) -> std::optional<RequestId> {
    std::vector<RequestId> ids;
    for (const auto& [id, e] : oracle) {
      if (e.done == done) ids.push_back(id);
    }
    if (ids.empty()) return std::nullopt;
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };

  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.uniform_int(0, 99);
    if (op < 35) {  // begin, sometimes reusing a freed id
      RequestId id = next_id;
      if (!free_ids.empty() && rng.bernoulli(0.3)) {
        id = free_ids.back();
        free_ids.pop_back();
      } else {
        ++next_id;
      }
      t.begin(id, now);
      oracle[id] = OracleEntry{};
      ++oracle_in_flight;
    } else if (op < 45) {
      if (const auto id = pick(/*done=*/false)) {
        t.add_function(*id, static_cast<FunctionId>(rng.uniform_int(0, 5)));
      }
    } else if (op < 75) {  // finish at a latency not tied to begin order
      if (const auto id = pick(/*done=*/false)) {
        const double at = now + grid(0, 40);
        t.finish(*id, at);
        oracle[*id] = OracleEntry{true, at};
        --oracle_in_flight;
      }
    } else if (op < 80) {
      if (const auto id = pick(/*done=*/false)) {
        t.abandon(*id);
        oracle.erase(*id);
        --oracle_in_flight;
        free_ids.push_back(*id);
      }
    } else {
      double horizon = 0.0;
      if (rng.bernoulli(0.7)) horizon = grid(1, 24);
      double gc_now = now;
      if (const auto id = pick(/*done=*/true); id && rng.bernoulli(0.4)) {
        gc_now = oracle[*id].finished_at + horizon;  // exact boundary
      }
      std::vector<RequestId> before;
      for (const auto& [id, _] : oracle) before.push_back(id);
      const auto want = oracle_garbage_collect(oracle, gc_now, horizon);
      const auto got = t.garbage_collect(gc_now, horizon);
      ASSERT_EQ(got, want) << "step " << step;
      for (const auto id : before) {
        const bool survives = oracle.contains(id);
        ASSERT_EQ(t.contains(id), survives) << "id " << id << " step " << step;
        if (survives) {
          ASSERT_EQ(t.is_done(id), oracle[id].done);
        } else {
          free_ids.push_back(id);
        }
      }
      ASSERT_EQ(t.total_tracked(), oracle.size());
      ASSERT_EQ(t.in_flight(), oracle_in_flight);
    }
    now += grid(0, 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RequestTrackerFuzz,
    ::testing::Range(0, flstore::testing::property_test_seeds()));

}  // namespace
}  // namespace flstore::core
