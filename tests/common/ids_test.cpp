#include "common/ids.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <unordered_set>

namespace flstore {
namespace {

TEST(MetadataKey, FactoryHelpers) {
  const auto u = MetadataKey::update(3, 7);
  EXPECT_EQ(u.kind, ObjectKind::ClientUpdate);
  EXPECT_EQ(u.client, 3);
  EXPECT_EQ(u.round, 7);

  const auto a = MetadataKey::aggregate(9);
  EXPECT_EQ(a.kind, ObjectKind::AggregatedModel);
  EXPECT_EQ(a.client, kNoClient);

  const auto m = MetadataKey::metadata(2);
  EXPECT_EQ(m.kind, ObjectKind::RoundMetadata);
}

TEST(MetadataKey, EqualityAndOrdering) {
  EXPECT_EQ(MetadataKey::update(1, 2), MetadataKey::update(1, 2));
  EXPECT_NE(MetadataKey::update(1, 2), MetadataKey::update(1, 3));
  EXPECT_NE(MetadataKey::update(1, 2), MetadataKey::aggregate(2));
  EXPECT_LT(MetadataKey::update(1, 2), MetadataKey::update(2, 2));
}

TEST(MetadataKey, ObjectNamesUnique) {
  std::unordered_set<std::string> names;
  for (RoundId r = 0; r < 20; ++r) {
    for (ClientId c = 0; c < 20; ++c) {
      names.insert(MetadataKey::update(c, r).object_name());
    }
    for (ClientId c = 0; c < 20; ++c) {
      names.insert(MetadataKey::metrics(c, r).object_name());
    }
    names.insert(MetadataKey::aggregate(r).object_name());
    names.insert(MetadataKey::metadata(r).object_name());
  }
  EXPECT_EQ(names.size(), 2U * 20U * 20U + 40U);
}

TEST(MetadataKey, ObjectNameStable) {
  EXPECT_EQ(MetadataKey::update(17, 42).object_name(),
            "r000042/client_update/c0017");
}

// object_name() is formatted by hand; pool names, cold-store names and
// everything built from them depend on it printing exactly what
// "r%06d/%s/c%04d" prints, signs, padding and over-wide ids included.
TEST(MetadataKey, ObjectNameMatchesPrintfFormat) {
  constexpr std::int32_t kIds[] = {std::numeric_limits<std::int32_t>::min(),
                                   -1000000,
                                   -10000,
                                   -1,
                                   0,
                                   9,
                                   9999,
                                   10000,
                                   999999,
                                   1000000,
                                   std::numeric_limits<std::int32_t>::max()};
  constexpr ObjectKind kKinds[] = {
      ObjectKind::ClientUpdate, ObjectKind::AggregatedModel,
      ObjectKind::RoundMetadata, ObjectKind::ClientMetrics};
  for (const auto kind : kKinds) {
    for (const auto round : kIds) {
      for (const auto client : kIds) {
        char expected[64];
        std::snprintf(expected, sizeof expected, "r%06d/%s/c%04d", round,
                      to_string(kind), client);
        EXPECT_EQ((MetadataKey{kind, client, round}.object_name()),
                  expected);
      }
    }
  }
}

TEST(MetadataKeyHash, FewCollisionsOnDenseGrid) {
  MetadataKeyHash h;
  std::unordered_set<std::size_t> hashes;
  int total = 0;
  for (RoundId r = 0; r < 100; ++r) {
    for (ClientId c = 0; c < 50; ++c) {
      hashes.insert(h(MetadataKey::update(c, r)));
      ++total;
    }
  }
  // FNV over 5000 distinct keys should be collision-free in 64-bit space.
  EXPECT_EQ(hashes.size(), static_cast<std::size_t>(total));
}

}  // namespace
}  // namespace flstore
