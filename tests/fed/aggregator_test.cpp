#include "fed/aggregator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace flstore::fed {
namespace {

ClientUpdate make_update(ClientId c, RoundId r, std::vector<float> v,
                         std::int32_t samples) {
  ClientUpdate u;
  u.client = c;
  u.round = r;
  u.delta = Tensor(std::move(v));
  u.num_samples = samples;
  return u;
}

TEST(FedAvg, EqualWeightsIsMean) {
  const std::vector<ClientUpdate> ups{
      make_update(0, 1, {0, 0}, 100),
      make_update(1, 1, {2, 4}, 100),
  };
  const auto agg = fedavg(ups);
  EXPECT_NEAR(agg[0], 1.0, 1e-6);
  EXPECT_NEAR(agg[1], 2.0, 1e-6);
}

TEST(FedAvg, WeightsBySampleCount) {
  const std::vector<ClientUpdate> ups{
      make_update(0, 1, {0, 0}, 300),
      make_update(1, 1, {4, 4}, 100),
  };
  const auto agg = fedavg(ups);
  EXPECT_NEAR(agg[0], 1.0, 1e-6);
}

TEST(FedAvg, MixedRoundsRejected) {
  const std::vector<ClientUpdate> ups{
      make_update(0, 1, {0, 0}, 100),
      make_update(1, 2, {2, 4}, 100),
  };
  EXPECT_THROW((void)fedavg(ups), InternalError);
}

TEST(FedAvg, EmptyRejected) { EXPECT_THROW((void)fedavg({}), InternalError); }

TEST(FedAvg, ExcludingClientsChangesResult) {
  const std::vector<ClientUpdate> ups{
      make_update(0, 1, {0, 0}, 100),
      make_update(1, 1, {4, 4}, 100),
      make_update(2, 1, {8, 8}, 100),
  };
  const auto all = fedavg(ups);
  const auto without2 = fedavg_excluding(ups, {2});
  EXPECT_NEAR(all[0], 4.0, 1e-6);
  EXPECT_NEAR(without2[0], 2.0, 1e-6);
}

TEST(FedAvg, BorrowedViewMatchesCopiedDeltasBitForBit) {
  Rng rng(9);
  std::vector<ClientUpdate> ups;
  for (ClientId c = 0; c < 6; ++c) {
    auto u = make_update(c, 3, {}, 50 * c);  // client 0 has zero samples
    u.delta = ops::random_normal(40, rng);
    ups.push_back(std::move(u));
  }
  std::vector<const ClientUpdate*> view;
  for (const auto& u : ups) view.push_back(&u);
  for (ClientId skip = 0; skip < 6; ++skip) {
    std::vector<Tensor> deltas;
    std::vector<double> weights;
    for (const auto& u : ups) {
      if (u.client == skip) continue;
      deltas.push_back(u.delta);
      weights.push_back(static_cast<double>(std::max(u.num_samples, 1)));
    }
    const auto want = ops::weighted_mean(deltas, weights);
    EXPECT_EQ(fedavg_excluding(view, {skip}), want) << "skip " << skip;
    EXPECT_EQ(fedavg_excluding(ups, {skip}), want) << "skip " << skip;
  }
}

TEST(FedAvg, ExcludingEveryoneRejected) {
  const std::vector<ClientUpdate> ups{make_update(0, 1, {1, 1}, 100)};
  EXPECT_THROW((void)fedavg_excluding(ups, {0}), InternalError);
}

TEST(FedAvg, ZeroSampleClientsGetMinimumWeight) {
  const std::vector<ClientUpdate> ups{
      make_update(0, 1, {0, 0}, 0),
      make_update(1, 1, {2, 2}, 0),
  };
  const auto agg = fedavg(ups);  // both clamped to weight 1
  EXPECT_NEAR(agg[0], 1.0, 1e-6);
}

}  // namespace
}  // namespace flstore::fed
