// End-to-end semantics of every workload against the planted FL structure.
#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "fed/fl_job.hpp"
#include "workload_fixture.hpp"

namespace flstore::workloads {
namespace {

using fed::FLJob;
using fed::WorkloadType;

class WorkloadFixture : public ::testing::Test, protected WorkloadJob {
 protected:
  WorkloadFixture() : WorkloadJob("resnet18") {}
};

TEST_F(WorkloadFixture, RegistryCoversAllTypes) {
  for (const auto t :
       {WorkloadType::kInference, WorkloadType::kPersonalization,
        WorkloadType::kClustering, WorkloadType::kMaliciousFilter,
        WorkloadType::kCosineSimilarity, WorkloadType::kIncentives,
        WorkloadType::kSchedulingCluster, WorkloadType::kSchedulingPerf,
        WorkloadType::kDebugging, WorkloadType::kReputation,
        WorkloadType::kProvenance, WorkloadType::kHyperparamTracking}) {
    EXPECT_EQ(workload_for(t).type(), t);
  }
}

TEST_F(WorkloadFixture, DataNeedsMatchTaxonomyKinds) {
  // P2 workloads touch a full round of updates; P3 a single client; P4 only
  // small metadata objects.
  const auto p2 = workload_for(WorkloadType::kClustering)
                      .data_needs(request(WorkloadType::kClustering, 5), job_);
  EXPECT_EQ(p2.size(), 10U);
  for (const auto& k : p2) {
    EXPECT_EQ(k.kind, ObjectKind::ClientUpdate);
    EXPECT_EQ(k.round, 5);
  }

  const auto client = job_.participants(5).front();
  const auto p3 =
      workload_for(WorkloadType::kProvenance)
          .data_needs(request(WorkloadType::kProvenance, 5, client), job_);
  ASSERT_EQ(p3.size(), 1U);
  EXPECT_EQ(p3.front().client, client);

  const auto p4 = workload_for(WorkloadType::kSchedulingPerf)
                      .data_needs(request(WorkloadType::kSchedulingPerf, 20), job_);
  for (const auto& k : p4) {
    EXPECT_EQ(k.kind, ObjectKind::ClientMetrics);
    EXPECT_EQ(k.round, 20);
  }
  // Current-round telemetry only (Table 2's P4 accounting).
  EXPECT_EQ(p4.size(), 10U);

  const auto p4h =
      workload_for(WorkloadType::kHyperparamTracking)
          .data_needs(request(WorkloadType::kHyperparamTracking, 20), job_);
  EXPECT_EQ(p4h.size(), 10U);  // 10-round hyperparameter window
  for (const auto& k : p4h) {
    EXPECT_EQ(k.kind, ObjectKind::RoundMetadata);
  }
}

TEST_F(WorkloadFixture, InferenceServesLatestAggregate) {
  const auto req = request(WorkloadType::kInference, 12);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_GE(out.scalar, 0.0);
  EXPECT_LE(out.scalar, 1.0);
  EXPECT_GT(out.work.flops, 0.0);
  EXPECT_GT(out.work.bytes_touched, 0.0);
  EXPECT_NE(out.summary.find("served"), std::string::npos);
}

TEST_F(WorkloadFixture, InferenceDeterministic) {
  const auto req = request(WorkloadType::kInference, 12);
  const auto a = workload_for(req.type).execute(req, materialize(req));
  const auto b = workload_for(req.type).execute(req, materialize(req));
  EXPECT_DOUBLE_EQ(a.scalar, b.scalar);
}

TEST_F(WorkloadFixture, MaliciousFilterFlagsExactlyThePlantedClients) {
  // Sweep several rounds; flagged set must equal the planted poisoners
  // among that round's participants.
  for (RoundId r : {1, 7, 19, 33}) {
    const auto req = request(WorkloadType::kMaliciousFilter, r);
    const auto out = workload_for(req.type).execute(req, materialize(req));
    std::set<ClientId> expected;
    for (const auto c : job_.participants(r)) {
      if (job_.client(c).malicious()) expected.insert(c);
    }
    const std::set<ClientId> flagged(out.selected.begin(), out.selected.end());
    EXPECT_EQ(flagged, expected) << "round " << r;
  }
}

TEST_F(WorkloadFixture, CosineSimilarityBoundsAndPairSelection) {
  const auto req = request(WorkloadType::kCosineSimilarity, 9);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_GE(out.scalar, -1.0);
  EXPECT_LE(out.scalar, 1.0);
  EXPECT_EQ(out.selected.size(), 2U);  // most dissimilar pair
  EXPECT_NE(out.selected[0], out.selected[1]);
}

TEST_F(WorkloadFixture, ClusteringAssignsEveryParticipant) {
  const auto req = request(WorkloadType::kClustering, 14);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_EQ(out.clients.size(), 10U);
  EXPECT_EQ(out.per_client.size(), 10U);
  for (const auto a : out.per_client) {
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 3.0);
  }
  EXPECT_GE(out.scalar, 0.0);  // inertia
}

TEST_F(WorkloadFixture, ClusteringSeparatesMaliciousFromHonest) {
  // Poisoned updates point the other way; k-means must not mix them with
  // honest clients in the same cluster (for rounds containing both).
  for (RoundId r : {1, 7, 19}) {
    const auto req = request(WorkloadType::kClustering, r);
    const auto out = workload_for(req.type).execute(req, materialize(req));
    std::set<double> malicious_clusters, honest_clusters;
    for (std::size_t i = 0; i < out.clients.size(); ++i) {
      if (job_.client(out.clients[i]).malicious()) {
        malicious_clusters.insert(out.per_client[i]);
      } else {
        honest_clusters.insert(out.per_client[i]);
      }
    }
    if (malicious_clusters.empty()) continue;
    for (const auto mc : malicious_clusters) {
      EXPECT_FALSE(honest_clusters.contains(mc))
          << "round " << r << ": malicious share cluster " << mc;
    }
  }
}

TEST_F(WorkloadFixture, PersonalizationBuildsGroupModels) {
  const auto req = request(WorkloadType::kPersonalization, 21);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_EQ(out.clients.size(), 10U);
  EXPECT_NE(out.summary.find("personalized"), std::string::npos);
  EXPECT_GT(out.work.bytes_touched, 0.0);
}

TEST_F(WorkloadFixture, IncentivesPayHonestNotMalicious) {
  for (RoundId r : {7, 19, 33}) {
    const auto req = request(WorkloadType::kIncentives, r);
    const auto out = workload_for(req.type).execute(req, materialize(req));
    double total = 0.0;
    for (std::size_t i = 0; i < out.clients.size(); ++i) {
      total += out.per_client[i];
      if (job_.client(out.clients[i]).malicious()) {
        EXPECT_DOUBLE_EQ(out.per_client[i], 0.0)
            << "malicious client " << out.clients[i] << " was paid, round " << r;
      }
    }
    EXPECT_NEAR(total, 100.0, 1e-6) << "budget fully distributed, round " << r;
  }
}

TEST_F(WorkloadFixture, SchedulingClusterSelectsConsensusTier) {
  const auto req = request(WorkloadType::kSchedulingCluster, 11);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_FALSE(out.selected.empty());
  // The scheduled tier contains no malicious clients (they oppose consensus).
  for (const auto c : out.selected) {
    EXPECT_FALSE(job_.client(c).malicious()) << "client " << c;
  }
}

TEST_F(WorkloadFixture, DebuggingFindsPoisonerWhenPresent) {
  for (RoundId r = 5; r < 40; ++r) {
    std::vector<ClientId> planted;
    for (const auto c : job_.participants(r)) {
      if (job_.client(c).malicious()) planted.push_back(c);
    }
    if (planted.size() != 1) continue;  // unambiguous rounds only
    const auto req = request(WorkloadType::kDebugging, r);
    const auto out = workload_for(req.type).execute(req, materialize(req));
    ASSERT_EQ(out.selected.size(), 1U);
    EXPECT_EQ(out.selected.front(), planted.front()) << "round " << r;
  }
}

TEST_F(WorkloadFixture, DebuggingIsTheHeaviestWorkload) {
  const auto dbg_req = request(WorkloadType::kDebugging, 20);
  const auto cos_req = request(WorkloadType::kCosineSimilarity, 20);
  const auto dbg = workload_for(dbg_req.type).execute(dbg_req, materialize(dbg_req));
  const auto cos = workload_for(cos_req.type).execute(cos_req, materialize(cos_req));
  EXPECT_GT(dbg.work.bytes_touched, cos.work.bytes_touched * 1.8);
  EXPECT_GT(dbg.work.flops, cos.work.flops);
}

TEST_F(WorkloadFixture, ReputationPositiveForHonestNegativeForMalicious) {
  for (RoundId r : {7, 19, 33}) {
    for (const auto c : job_.participants(r)) {
      const auto req = request(WorkloadType::kReputation, r, c);
      const auto out = workload_for(req.type).execute(req, materialize(req));
      if (job_.client(c).malicious()) {
        EXPECT_LT(out.scalar, 0.0) << "client " << c << " round " << r;
      } else {
        EXPECT_GT(out.scalar, 0.0) << "client " << c << " round " << r;
      }
    }
  }
}

TEST_F(WorkloadFixture, ProvenanceDeterministicChain) {
  const auto client = job_.participants(6).front();
  const auto req = request(WorkloadType::kProvenance, 6, client);
  const auto a = workload_for(req.type).execute(req, materialize(req));
  const auto b = workload_for(req.type).execute(req, materialize(req));
  EXPECT_DOUBLE_EQ(a.scalar, b.scalar);
}

TEST_F(WorkloadFixture, ProvenanceLinkCoversEveryFloatOfTheDelta) {
  const auto client = job_.participants(6).front();
  const auto req = request(WorkloadType::kProvenance, 6, client);
  const auto& w = workload_for(req.type);
  auto in = materialize(req);
  const auto link = w.execute(req, in).summary;  // the link, in hex
  auto& delta = in.updates.front().delta;
  for (std::size_t i = 0; i < delta.dim(); ++i) {
    const float saved = delta[i];
    delta[i] = std::nextafter(saved, std::numeric_limits<float>::infinity());
    EXPECT_NE(w.execute(req, in).summary, link) << "float " << i;
    delta[i] = saved;
  }
  EXPECT_EQ(w.execute(req, in).summary, link);
}

TEST_F(WorkloadFixture, ProvenanceRejectsMismatchedRecord) {
  const auto client = job_.participants(6).front();
  const auto req = request(WorkloadType::kProvenance, 6, client);
  auto in = materialize(req);
  in.updates.front().round = 7;  // wrong round sneaks in
  EXPECT_THROW((void)workload_for(req.type).execute(req, in), InvalidArgument);
}

TEST_F(WorkloadFixture, SchedulingPerfPrefersHighLossFastClients) {
  const auto req = request(WorkloadType::kSchedulingPerf, 25);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  EXPECT_FALSE(out.selected.empty());
  EXPECT_LE(out.selected.size(), 10U);
  // Utilities are reported sorted descending.
  for (std::size_t i = 1; i < out.per_client.size(); ++i) {
    EXPECT_GE(out.per_client[i - 1], out.per_client[i]);
  }
}

TEST_F(WorkloadFixture, HyperparamTrackingSeesLossImprovement) {
  const auto req = request(WorkloadType::kHyperparamTracking, 30);
  const auto out = workload_for(req.type).execute(req, materialize(req));
  // Early training on a 40-round job: loss falls, no plateau.
  EXPECT_GT(out.scalar, 0.02);
  EXPECT_NE(out.summary.find("keep lr"), std::string::npos);
}

TEST_F(WorkloadFixture, MissingInputsRejectedEverywhere) {
  const WorkloadInput empty{&job_.model(), {}, {}, {}, {}};
  for (const auto t :
       {WorkloadType::kInference, WorkloadType::kClustering,
        WorkloadType::kMaliciousFilter, WorkloadType::kCosineSimilarity,
        WorkloadType::kIncentives, WorkloadType::kDebugging,
        WorkloadType::kReputation, WorkloadType::kProvenance,
        WorkloadType::kSchedulingPerf, WorkloadType::kHyperparamTracking}) {
    EXPECT_THROW((void)workload_for(t).execute(request(t, 3, 0), empty),
                 InvalidArgument)
        << fed::to_string(t);
  }
}

TEST_F(WorkloadFixture, ComputeWorkScalesWithModelSize) {
  // The same workload on a bigger model touches more bytes and flops —
  // this is what drives the per-model differences in Figs 7/8.
  const FLJob big_job(workload_job_config("swin_v2_t"));

  const auto req = request(WorkloadType::kCosineSimilarity, 9);
  const auto& w = workload_for(req.type);

  auto materialize_for = [&](const FLJob& job) {
    WorkloadInput in;
    in.model = &job.model();
    const auto rec = job.make_round(req.round);
    in.updates = rec.updates;
    return in;
  };
  const auto small = w.execute(req, materialize_for(job_));
  const auto large = w.execute(req, materialize_for(big_job));
  EXPECT_GT(large.work.bytes_touched, small.work.bytes_touched * 2.0);
  EXPECT_GT(large.work.flops, small.work.flops * 2.0);
}

// Property sweep: every workload's reported work is strictly positive and
// result blobs stay small on every round.
class AllWorkloadsSweep
    : public WorkloadFixture,
      public ::testing::WithParamInterface<fed::WorkloadType> {};

TEST_P(AllWorkloadsSweep, WorkPositiveResultSmall) {
  const auto type = GetParam();
  ClientId client = kNoClient;
  if (fed::policy_class_for(type) == fed::PolicyClass::kP3) {
    client = job_.participants(15).front();
  }
  const auto req = request(type, 15, client);
  const auto out = workload_for(type).execute(req, materialize(req));
  EXPECT_GT(out.work.bytes_touched, 0.0);
  EXPECT_GT(out.work.flops, 0.0);
  EXPECT_LE(out.result_bytes, 64 * units::KB);
  EXPECT_FALSE(out.summary.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Types, AllWorkloadsSweep,
    ::testing::Values(
        fed::WorkloadType::kInference, fed::WorkloadType::kPersonalization,
        fed::WorkloadType::kClustering, fed::WorkloadType::kMaliciousFilter,
        fed::WorkloadType::kCosineSimilarity, fed::WorkloadType::kIncentives,
        fed::WorkloadType::kSchedulingCluster,
        fed::WorkloadType::kSchedulingPerf, fed::WorkloadType::kDebugging,
        fed::WorkloadType::kReputation, fed::WorkloadType::kProvenance,
        fed::WorkloadType::kHyperparamTracking),
    [](const auto& info) { return fed::to_string(info.param); });

}  // namespace
}  // namespace flstore::workloads
