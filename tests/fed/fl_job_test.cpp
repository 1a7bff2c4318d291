#include "fed/fl_job.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/aggregator.hpp"
#include "tensor/ops.hpp"

namespace flstore::fed {
namespace {

FLJobConfig small_config() {
  FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 40;
  cfg.clients_per_round = 8;
  cfg.rounds = 30;
  cfg.malicious_fraction = 0.1;
  cfg.seed = 77;
  return cfg;
}

TEST(FLJob, ParticipantsDeterministicAndValid) {
  const FLJob job(small_config());
  const auto p1 = job.participants(5);
  const auto p2 = job.participants(5);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 8U);
  std::set<ClientId> uniq(p1.begin(), p1.end());
  EXPECT_EQ(uniq.size(), 8U);
  for (const auto c : p1) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 40);
  }
}

TEST(FLJob, ParticipantsVaryAcrossRounds) {
  const FLJob job(small_config());
  int identical = 0;
  for (RoundId r = 0; r + 1 < 20; ++r) {
    if (job.participants(r) == job.participants(r + 1)) ++identical;
  }
  EXPECT_LT(identical, 3);
}

TEST(FLJob, OutOfRangeRoundsEmpty) {
  const FLJob job(small_config());
  EXPECT_TRUE(job.participants(-1).empty());
  EXPECT_TRUE(job.participants(30).empty());
  EXPECT_EQ(job.latest_round(), 29);
}

TEST(FLJob, MakeRoundConsistent) {
  const FLJob job(small_config());
  const auto rec = job.make_round(3);
  EXPECT_EQ(rec.round, 3);
  EXPECT_EQ(rec.updates.size(), 8U);
  EXPECT_EQ(rec.metrics.size(), 8U);
  EXPECT_EQ(rec.participants(), job.participants(3));
  EXPECT_EQ(rec.model_bytes, job.model().object_bytes);
  for (const auto& u : rec.updates) {
    EXPECT_EQ(u.round, 3);
    EXPECT_EQ(u.delta.dim(), job.model().materialized_dim());
    EXPECT_EQ(u.logical_bytes, job.model().object_bytes);
  }
  // Aggregate equals FedAvg of the updates.
  const auto agg = fedavg(rec.updates);
  EXPECT_LT(ops::l2_distance(agg, rec.aggregate), 1e-6);
}

TEST(FLJob, MakeRoundDeterministic) {
  const FLJob job(small_config());
  const auto a = job.make_round(7);
  const auto b = job.make_round(7);
  EXPECT_EQ(a.updates, b.updates);
}

TEST(FLJob, MaliciousClientsPlantedAtExpectedRate) {
  const FLJob job(small_config());
  const auto mal = job.malicious_clients();
  EXPECT_EQ(mal.size(), 4U);  // ceil(0.1 * 40)
  for (const auto c : mal) EXPECT_TRUE(job.client(c).malicious());
}

TEST(FLJob, GlobalDirectionCorrelatesAcrossNearbyRounds) {
  const FLJob job(small_config());
  const auto d0 = job.global_direction(10);
  const auto d1 = job.global_direction(11);
  EXPECT_GT(ops::cosine_similarity(d0, d1), 0.8);
}

// global_direction as it was computed before its base and drift were
// memoized: both drawn afresh on every call.
Tensor direction_reference(const FLJobConfig& cfg, std::size_t dim,
                           RoundId r) {
  Rng base_rng(cfg.seed ^ 0xD1FEC710ULL);
  auto base = ops::random_normal(dim, base_rng);
  ops::scale(base, 1.0 / ops::l2_norm(base));
  Rng drift_rng(cfg.seed ^
                ((static_cast<std::uint64_t>(r) / 25 + 1) * 0x5EEDBEEFULL));
  auto drift = ops::random_normal(dim, drift_rng);
  ops::scale(drift, 1.0 / ops::l2_norm(drift));
  ops::axpy(0.35, drift, base);
  ops::scale(base, 1.0 / ops::l2_norm(base));
  const double progress =
      static_cast<double>(r) / static_cast<double>(cfg.rounds);
  ops::scale(base, std::exp(-1.0 * progress) + 0.2);
  return base;
}

TEST(FLJob, GlobalDirectionMatchesUnmemoizedReference) {
  auto cfg = small_config();
  cfg.rounds = 60;
  const FLJob job(cfg);
  const auto dim = job.model().materialized_dim();
  // Block edges on both sides, a revisit of an earlier block, and the last
  // round, whose block is partial.
  for (const RoundId r : {0, 24, 25, 49, 50, 3, 59}) {
    SCOPED_TRACE("round " + std::to_string(r));
    EXPECT_EQ(job.global_direction(r), direction_reference(cfg, dim, r));
  }
  EXPECT_THROW((void)job.global_direction(cfg.rounds), InternalError);
}

TEST(FLJob, ConcurrentMakeRoundEqualsSerial) {
  auto cfg = small_config();
  cfg.rounds = 60;
  const FLJob serial(cfg);
  const FLJob shared(cfg);
  constexpr int kThreads = 4;
  // Each thread makes every round, starting at its own offset, so the
  // threads race on the participant and direction memos of `shared`.
  std::vector<std::vector<RoundRecord>> made(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& out = made[static_cast<std::size_t>(t)];
      out.resize(static_cast<std::size_t>(cfg.rounds));
      for (RoundId i = 0; i < cfg.rounds; ++i) {
        const RoundId r = (i + 15 * t) % cfg.rounds;
        out[static_cast<std::size_t>(r)] = shared.make_round(r);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (RoundId r = 0; r < cfg.rounds; ++r) {
    const auto want = serial.make_round(r);
    for (int t = 0; t < kThreads; ++t) {
      const auto& got = made[static_cast<std::size_t>(t)]
                           [static_cast<std::size_t>(r)];
      SCOPED_TRACE("thread " + std::to_string(t) + " round " +
                   std::to_string(r));
      EXPECT_EQ(got.updates, want.updates);
      EXPECT_EQ(got.metrics, want.metrics);
      EXPECT_EQ(got.aggregate, want.aggregate);
      EXPECT_EQ(got.hparams, want.hparams);
      EXPECT_EQ(got.global_loss, want.global_loss);
    }
  }
}

TEST(FLJob, ParticipatedEqualsFindOverParticipants) {
  const FLJob job(small_config());
  const auto& cfg = job.config();
  // Out-of-range rounds included: no participants, so nobody participated.
  for (RoundId r = -1; r <= cfg.rounds; ++r) {
    const auto parts = job.participants(r);
    for (ClientId c = -1; c <= cfg.pool_size; ++c) {
      EXPECT_EQ(job.participated(c, r),
                std::find(parts.begin(), parts.end(), c) != parts.end())
          << "client " << c << " round " << r;
    }
  }
}

TEST(FLJob, HyperparametersStepDecay) {
  FLJobConfig cfg = small_config();
  cfg.rounds = 1000;
  const FLJob job(cfg);
  EXPECT_DOUBLE_EQ(job.hyperparameters(0).learning_rate, 0.05);
  EXPECT_DOUBLE_EQ(job.hyperparameters(250).learning_rate, 0.025);
  EXPECT_DOUBLE_EQ(job.hyperparameters(999).learning_rate, 0.05 * 0.125);
}

TEST(FLJob, DirectoryParticipationHelpers) {
  const FLJob job(small_config());
  const auto parts = job.participants(4);
  const auto c = parts.front();
  EXPECT_TRUE(job.participated(c, 4));

  const auto window = job.participation_window(c, 29, 3);
  EXPECT_LE(window.size(), 3U);
  for (const auto r : window) EXPECT_TRUE(job.participated(c, r));
  // Window is ascending.
  for (std::size_t i = 1; i < window.size(); ++i) {
    EXPECT_LT(window[i - 1], window[i]);
  }

  const auto next = job.next_participation(c, 4);
  if (next.has_value()) {
    EXPECT_GT(*next, 4);
    EXPECT_TRUE(job.participated(c, *next));
    for (RoundId r = 5; r < *next; ++r) EXPECT_FALSE(job.participated(c, r));
  }
}

TEST(FLJob, InvalidConfigRejected) {
  FLJobConfig cfg = small_config();
  cfg.clients_per_round = 100;  // > pool
  EXPECT_THROW(FLJob{cfg}, InternalError);
  cfg = small_config();
  cfg.model = "unknown_model";
  EXPECT_THROW(FLJob{cfg}, InvalidArgument);
  cfg = small_config();
  cfg.rounds = 0;
  EXPECT_THROW(FLJob{cfg}, InternalError);
}

TEST(FLJob, MaliciousUpdatesAreCosineOutliers) {
  // The planted structure must be recoverable: a robust score (median
  // cosine to the other updates — what the malicious-filter workload uses)
  // separates poisoners from honest clients even when several poisoners
  // land in the same round and skew the FedAvg mean.
  FLJobConfig cfg = small_config();
  cfg.malicious_fraction = 0.1;
  const FLJob job(cfg);
  for (RoundId r : {2, 10, 25}) {
    const auto rec = job.make_round(r);
    const auto n = rec.updates.size();
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> cosines;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        cosines.push_back(
            ops::cosine_similarity(rec.updates[i].delta, rec.updates[j].delta));
      }
      std::sort(cosines.begin(), cosines.end());
      const double median = cosines[cosines.size() / 2];
      const auto client = rec.updates[i].client;
      if (job.client(client).malicious()) {
        EXPECT_LT(median, 0.0) << "round " << r << " client " << client;
      } else {
        EXPECT_GT(median, 0.2) << "round " << r << " client " << client;
      }
    }
  }
}

}  // namespace
}  // namespace flstore::fed
