// Differential tests for the workload kernels: every output field must be
// bit-identical to the straightforward computation — fresh Rng probes per
// request, one ops::dot per probe, ops::cosine_similarity on every ordered
// pair, copied deltas for every leave-one-out FedAvg, and k-means with one
// ops::l2_distance per point-centroid pair. The references below are that
// computation, written out in full; the workloads memoize probe batches,
// take many dots or distances per pass (ops::dot_many, l2_distance_many),
// reuse cached norms and average in place.
#include "workloads/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../tensor/kmeans_reference.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/aggregator.hpp"
#include "tensor/ops.hpp"
#include "workload_fixture.hpp"

namespace flstore::workloads {
namespace {

using fed::NonTrainingRequest;
using fed::WorkloadType;

constexpr RoundId kRounds[] = {1, 7, 15, 33};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(const std::vector<double>& vs) {
  std::vector<std::uint64_t> out;
  out.reserve(vs.size());
  for (const double v : vs) out.push_back(bits(v));
  return out;
}

void expect_bit_identical(const WorkloadOutput& got,
                          const WorkloadOutput& want) {
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_EQ(got.clients, want.clients);
  EXPECT_EQ(bits(got.per_client), bits(want.per_client));
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(bits(got.scalar), bits(want.scalar));
  EXPECT_EQ(bits(got.work.bytes_touched), bits(want.work.bytes_touched));
  EXPECT_EQ(bits(got.work.flops), bits(want.work.flops));
  EXPECT_EQ(got.result_bytes, want.result_bytes);
}

std::vector<Tensor> fresh_probes(std::uint64_t seed, std::size_t dim,
                                 int count) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int i = 0; i < count; ++i) out.push_back(ops::random_normal(dim, rng));
  return out;
}

double pairwise_flops(std::size_t n, double params) {
  return static_cast<double>(n * (n - 1) / 2) * 3.0 * params;
}

// --- references: the kernels computed without memo, cache or view ----------

WorkloadOutput ref_inference(const NonTrainingRequest& req,
                             const WorkloadInput& in) {
  const auto& model = in.aggregates.front().model;
  const auto probes = fresh_probes(
      0xF00D ^ static_cast<std::uint64_t>(req.round + 1), model.dim(), 16);
  WorkloadOutput out;
  double positive = 0.0;
  for (const auto& probe : probes) {
    if (std::tanh(ops::dot(model, probe) /
                  static_cast<double>(model.dim())) > 0.0) {
      positive += 1.0;
    }
  }
  out.scalar = positive / 16;
  out.summary =
      "served 16 samples, positive rate " + std::to_string(out.scalar);
  out.work = scan_work(in);
  out.work.flops += 16.0 * in.model->gflops_forward * 1e9;
  out.result_bytes = 4 * units::KB;
  return out;
}

WorkloadOutput ref_debugging(const NonTrainingRequest& req,
                             const WorkloadInput& in) {
  std::vector<fed::ClientUpdate> target;
  for (const auto& u : in.updates) {
    if (u.round == req.round) target.push_back(u);
  }
  const auto dim = target.front().delta.dim();
  const auto probes = fresh_probes(
      0xDEB06 ^ static_cast<std::uint64_t>(req.round + 1), dim, 16);
  const double scale = std::sqrt(static_cast<double>(dim));
  std::vector<std::vector<double>> act(target.size(), std::vector<double>(16));
  std::vector<double> consensus(16, 0.0);
  for (std::size_t c = 0; c < target.size(); ++c) {
    for (std::size_t p = 0; p < 16; ++p) {
      act[c][p] = std::tanh(ops::dot(target[c].delta, probes[p]) / scale);
      consensus[p] += act[c][p];
    }
  }
  for (auto& v : consensus) v /= static_cast<double>(target.size());
  WorkloadOutput out;
  double worst = -1.0;
  ClientId suspect = kNoClient;
  for (std::size_t c = 0; c < target.size(); ++c) {
    double dev = 0.0;
    for (std::size_t p = 0; p < 16; ++p) {
      dev += (act[c][p] - consensus[p]) * (act[c][p] - consensus[p]);
    }
    dev = std::sqrt(dev);
    out.clients.push_back(target[c].client);
    out.per_client.push_back(dev);
    if (dev > worst) {
      worst = dev;
      suspect = target[c].client;
    }
  }
  out.selected = {suspect};
  std::vector<Tensor> round_means;
  for (RoundId r = std::max<RoundId>(0, req.round - 1); r <= req.round; ++r) {
    std::vector<Tensor> members;
    for (const auto& u : in.updates) {
      if (u.round == r) members.push_back(u.delta);
    }
    if (!members.empty()) round_means.push_back(ops::mean(members));
  }
  double drift = 0.0;
  for (std::size_t i = 1; i < round_means.size(); ++i) {
    drift += ops::l2_distance(round_means[i - 1], round_means[i]);
  }
  out.scalar = worst;
  std::ostringstream s;
  s << "suspect client " << suspect << " (deviation " << worst
    << "), window drift " << drift;
  out.summary = s.str();
  out.work = scan_work(in);
  const double params = logical_params(in);
  out.work.flops += static_cast<double>(target.size()) * 16 * 2.0 * params +
                    static_cast<double>(in.updates.size()) * params;
  out.result_bytes = 32 * units::KB;
  return out;
}

WorkloadOutput ref_cosine(const NonTrainingRequest&, const WorkloadInput& in) {
  const auto n = in.updates.size();
  WorkloadOutput out;
  double sum = 0.0;
  double min_cos = 1.0;
  std::size_t pairs = 0;
  ClientId a = kNoClient, b = kNoClient;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double c =
          ops::cosine_similarity(in.updates[i].delta, in.updates[j].delta);
      sum += c;
      ++pairs;
      if (c < min_cos) {
        min_cos = c;
        a = in.updates[i].client;
        b = in.updates[j].client;
      }
    }
  }
  out.scalar = pairs > 0 ? sum / static_cast<double>(pairs) : 1.0;
  if (a != kNoClient) out.selected = {a, b};
  std::ostringstream s;
  s << "mean pairwise cosine " << out.scalar << ", most dissimilar pair ("
    << a << "," << b << ") at " << min_cos;
  out.summary = s.str();
  out.work = scan_work(in);
  out.work.flops += pairwise_flops(n, logical_params(in));
  out.result_bytes = 16 * units::KB;
  return out;
}

WorkloadOutput ref_malicious(const NonTrainingRequest&,
                             const WorkloadInput& in) {
  const auto n = in.updates.size();
  WorkloadOutput out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> cosines;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      cosines.push_back(
          ops::cosine_similarity(in.updates[i].delta, in.updates[j].delta));
    }
    const double score = cosines.empty() ? 1.0 : median(std::move(cosines));
    out.clients.push_back(in.updates[i].client);
    out.per_client.push_back(score);
    if (score < 0.1) out.selected.push_back(in.updates[i].client);
  }
  out.scalar = static_cast<double>(out.selected.size());
  std::ostringstream s;
  s << "flagged " << out.selected.size() << "/" << n << " clients";
  out.summary = s.str();
  out.work = scan_work(in);
  out.work.flops += pairwise_flops(n, logical_params(in)) * 2.0;
  out.result_bytes = 8 * units::KB;
  return out;
}

WorkloadOutput ref_incentives(const NonTrainingRequest& req,
                              const WorkloadInput& in) {
  std::vector<fed::ClientUpdate> current;
  for (const auto& u : in.updates) {
    if (u.round == req.round) current.push_back(u);
  }
  WorkloadOutput out;
  double total_positive = 0.0;
  std::vector<double> contributions;
  for (const auto& u : current) {
    double contrib = ops::l2_norm(u.delta);
    if (current.size() > 1) {
      std::vector<Tensor> deltas;
      std::vector<double> weights;
      for (const auto& v : current) {
        if (v.client == u.client) continue;
        deltas.push_back(v.delta);
        weights.push_back(static_cast<double>(std::max(v.num_samples, 1)));
      }
      const auto rest = ops::weighted_mean(deltas, weights);
      contrib = ops::cosine_similarity(u.delta, rest) * ops::l2_norm(u.delta);
    }
    out.clients.push_back(u.client);
    contributions.push_back(contrib);
    if (contrib > 0.0) total_positive += contrib;
  }
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    const double payout = (contributions[i] > 0.0 && total_positive > 0.0)
                              ? 100.0 * contributions[i] / total_positive
                              : 0.0;
    out.per_client.push_back(payout);
    if (payout > 0.0) out.selected.push_back(out.clients[i]);
  }
  out.scalar = total_positive;
  std::ostringstream s;
  s << "paid " << out.selected.size() << "/" << current.size()
    << " clients from a " << 100.0 << "-unit budget";
  out.summary = s.str();
  out.work = scan_work(in);
  out.work.flops +=
      static_cast<double>(in.updates.size()) * 5.0 * logical_params(in);
  out.result_bytes = 8 * units::KB;
  return out;
}

/// The round's deltas and k = min(3, n) for the k-means workloads.
struct Clusters {
  std::vector<Tensor> points;
  std::int32_t k = 0;
  KMeansResult res;
};

Clusters ref_clusters(const WorkloadInput& in, std::uint64_t seed) {
  Clusters out;
  for (const auto& u : in.updates) out.points.push_back(u.delta);
  out.k =
      std::min<std::int32_t>(3, static_cast<std::int32_t>(out.points.size()));
  Rng rng(seed);
  out.res = reference_kmeans(out.points, out.k, rng);
  return out;
}

double kmeans_flops(const Clusters& c, double params) {
  return static_cast<double>(c.res.iterations) *
         static_cast<double>(c.points.size()) * static_cast<double>(c.k) *
         2.0 * params;
}

WorkloadOutput ref_clustering(const NonTrainingRequest& req,
                              const WorkloadInput& in) {
  const auto cl =
      ref_clusters(in, 0xC105ULL + static_cast<std::uint64_t>(req.round));
  WorkloadOutput out;
  for (std::size_t i = 0; i < in.updates.size(); ++i) {
    out.clients.push_back(in.updates[i].client);
    out.per_client.push_back(static_cast<double>(cl.res.assignment[i]));
  }
  out.scalar = cl.res.inertia;
  std::ostringstream s;
  s << "k=" << cl.k << " clusters, inertia " << cl.res.inertia << " after "
    << cl.res.iterations << " iterations";
  out.summary = s.str();
  out.work = scan_work(in);
  out.work.flops += kmeans_flops(cl, logical_params(in));
  out.result_bytes = 8 * units::KB;
  return out;
}

WorkloadOutput ref_personalization(const NonTrainingRequest& req,
                                   const WorkloadInput& in) {
  const auto cl =
      ref_clusters(in, 0x9E450 + static_cast<std::uint64_t>(req.round));
  std::vector<std::vector<fed::ClientUpdate>> groups(
      static_cast<std::size_t>(cl.k));
  for (std::size_t i = 0; i < in.updates.size(); ++i) {
    groups[static_cast<std::size_t>(cl.res.assignment[i])].push_back(
        in.updates[i]);
  }
  int built = 0;
  double blend_gap = 0.0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    const auto personalized = fed::fedavg(g);
    if (!in.aggregates.empty()) {
      blend_gap += ops::l2_distance(personalized, in.aggregates.front().model);
    }
    ++built;
  }
  WorkloadOutput out;
  for (std::size_t i = 0; i < in.updates.size(); ++i) {
    out.clients.push_back(in.updates[i].client);
    out.per_client.push_back(static_cast<double>(cl.res.assignment[i]));
  }
  out.scalar = built > 0 ? blend_gap / built : 0.0;
  std::ostringstream s;
  s << "built " << built << " personalized models, mean group-global gap "
    << out.scalar;
  out.summary = s.str();
  out.work = scan_work(in);
  const double params = logical_params(in);
  out.work.flops += kmeans_flops(cl, params) +
                    static_cast<double>(cl.points.size()) * params;
  out.result_bytes = 32 * units::KB;
  return out;
}

WorkloadOutput ref_scheduling_cluster(const NonTrainingRequest& req,
                                      const WorkloadInput& in) {
  const auto cl =
      ref_clusters(in, 0x71F1 + static_cast<std::uint64_t>(req.round));
  const auto& points = cl.points;
  const auto k = cl.k;
  const auto& res = cl.res;
  const auto consensus = ops::mean(points);
  std::vector<double> tier_score(static_cast<std::size_t>(k), 0.0);
  std::vector<int> tier_count(static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto t = static_cast<std::size_t>(res.assignment[i]);
    tier_score[t] += ops::cosine_similarity(points[i], consensus);
    ++tier_count[t];
  }
  std::size_t best_tier = 0;
  double best = -2.0;
  for (std::size_t t = 0; t < tier_score.size(); ++t) {
    if (tier_count[t] == 0) continue;
    if (tier_score[t] / tier_count[t] > best) {
      best = tier_score[t] / tier_count[t];
      best_tier = t;
    }
  }
  WorkloadOutput out;
  for (std::size_t i = 0; i < in.updates.size(); ++i) {
    out.clients.push_back(in.updates[i].client);
    out.per_client.push_back(static_cast<double>(res.assignment[i]));
    if (static_cast<std::size_t>(res.assignment[i]) == best_tier) {
      out.selected.push_back(in.updates[i].client);
    }
  }
  out.scalar = best;
  std::ostringstream s;
  s << "scheduled tier " << best_tier << " (" << out.selected.size()
    << " clients, consensus score " << best << ")";
  out.summary = s.str();
  out.work = scan_work(in);
  const double params = logical_params(in);
  out.work.flops +=
      kmeans_flops(cl, params) + pairwise_flops(points.size(), params) * 0.2;
  out.result_bytes = 4 * units::KB;
  return out;
}

using Reference = WorkloadOutput (*)(const NonTrainingRequest&,
                                     const WorkloadInput&);

/// The old-way reference of each kernel this file's workloads changed; the
/// other kernels are checked against their direct-record runs only.
Reference reference_for(WorkloadType type) {
  switch (type) {
    case WorkloadType::kInference: return ref_inference;
    case WorkloadType::kDebugging: return ref_debugging;
    case WorkloadType::kCosineSimilarity: return ref_cosine;
    case WorkloadType::kMaliciousFilter: return ref_malicious;
    case WorkloadType::kIncentives: return ref_incentives;
    case WorkloadType::kSchedulingCluster: return ref_scheduling_cluster;
    case WorkloadType::kClustering: return ref_clustering;
    case WorkloadType::kPersonalization: return ref_personalization;
    default: return nullptr;
  }
}

constexpr WorkloadType kAllTypes[] = {
    WorkloadType::kInference,         WorkloadType::kPersonalization,
    WorkloadType::kClustering,        WorkloadType::kMaliciousFilter,
    WorkloadType::kCosineSimilarity,  WorkloadType::kIncentives,
    WorkloadType::kSchedulingCluster, WorkloadType::kSchedulingPerf,
    WorkloadType::kDebugging,         WorkloadType::kReputation,
    WorkloadType::kProvenance,        WorkloadType::kHyperparamTracking};

/// `in` after every record went through its codec, as serving decodes it.
WorkloadInput via_blobs(const WorkloadInput& in) {
  WorkloadInput out;
  out.model = in.model;
  for (const auto& u : in.updates) {
    out.updates.push_back(fed::decode_update(fed::encode_update(u)));
  }
  for (const auto& a : in.aggregates) {
    out.aggregates.push_back(fed::decode_aggregate(
        fed::encode_aggregate(a.round, a.model, a.logical_bytes)));
  }
  for (const auto& m : in.metrics) {
    out.metrics.push_back(fed::decode_metrics(fed::encode_metrics(m)));
  }
  for (const auto& i : in.round_infos) {
    out.round_infos.push_back(
        fed::decode_round_info(fed::encode_round_info(i)));
  }
  return out;
}

class WorkloadKernels : public ::testing::TestWithParam<const char*>,
                        protected WorkloadJob {
 protected:
  WorkloadKernels() : WorkloadJob(GetParam()) {}

  /// A request for `type` at round `r`; P3 asks about a participant of `r`.
  NonTrainingRequest request_at(WorkloadType type, RoundId r) const {
    return request(type, r,
                   fed::policy_class_for(type) == fed::PolicyClass::kP3
                       ? job_.participants(r).front()
                       : kNoClient);
  }
};

TEST_P(WorkloadKernels, EveryOutputFieldMatchesTheReference) {
  int referenced = 0;
  for (const RoundId r : kRounds) {
    for (const auto type : kAllTypes) {
      SCOPED_TRACE(std::string(fed::to_string(type)) + " round " +
                   std::to_string(r));
      const auto req = request_at(type, r);
      const auto direct = materialize(req);
      const auto decoded = via_blobs(direct);
      const auto& w = workload_for(type);
      const auto out = w.execute(req, decoded);
      expect_bit_identical(out, w.execute(req, direct));
      if (const auto ref = reference_for(type)) {
        expect_bit_identical(out, ref(req, direct));
        ++referenced;
      }
    }
  }
  EXPECT_EQ(referenced, 8 * static_cast<int>(std::size(kRounds)));
}

TEST_P(WorkloadKernels, RepeatedRequestEqualsTheFirst) {
  // Run each round's probe workloads back to back, then again after the
  // other rounds have cycled through the memo: hits and misses agree.
  std::map<std::pair<int, RoundId>, WorkloadOutput> first;
  for (int pass = 0; pass < 2; ++pass) {
    for (const RoundId r : kRounds) {
      for (const auto type :
           {WorkloadType::kInference, WorkloadType::kDebugging,
            WorkloadType::kInference}) {
        const auto req = request_at(type, r);
        const auto out =
            workload_for(type).execute(req, via_blobs(materialize(req)));
        const auto key = std::make_pair(static_cast<int>(type), r);
        if (const auto it = first.find(key); it != first.end()) {
          SCOPED_TRACE(std::string(fed::to_string(type)) + " round " +
                       std::to_string(r) + " pass " + std::to_string(pass));
          expect_bit_identical(out, it->second);
        } else {
          first.emplace(key, out);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, WorkloadKernels,
    ::testing::Values("resnet18", "mobilenet_v3_small"),
    [](const auto& info) { return std::string(info.param); });

// --- probe_batch -------------------------------------------------------------

TEST(ProbeBatch, EqualsFreshDraws) {
  const auto batch = probe_batch({0xF00D ^ 8, 300, 16});
  EXPECT_EQ(*batch, fresh_probes(0xF00D ^ 8, 300, 16));
  EXPECT_TRUE(probe_batch({5, 64, 0})->empty());
}

TEST(ProbeBatch, InterleavedSeedsDimsAndCountsNeverAlias) {
  struct Call {
    std::uint64_t seed;
    std::size_t dim;
    int count;
  };
  // Hits, reorders and evictions (five batches for four slots), with every
  // pair of calls differing in exactly one of seed, dim and count somewhere
  // in the sequence.
  const Call calls[] = {{1, 256, 16}, {2, 256, 16}, {1, 256, 16}, {1, 512, 16},
                        {2, 256, 16}, {1, 256, 8},  {1, 256, 16}, {3, 256, 16},
                        {1, 512, 16}, {2, 256, 16}, {2, 256, 16}, {1, 256, 16}};
  for (const auto& c : calls) {
    SCOPED_TRACE("seed " + std::to_string(c.seed) + " dim " +
                 std::to_string(c.dim) + " count " + std::to_string(c.count));
    EXPECT_EQ(*probe_batch({c.seed, c.dim, c.count}),
              fresh_probes(c.seed, c.dim, c.count));
  }
}

TEST(ProbeBatch, ReturnedBatchOutlivesEviction) {
  const auto held = probe_batch({11, 128, 4});
  for (std::uint64_t s = 12; s < 16; ++s) (void)probe_batch({s, 128, 4});
  EXPECT_EQ(*held, fresh_probes(11, 128, 4));
}

TEST(ProbeBatch, PreparedBatchesEqualFreshDraws) {
  const WorkloadType types[] = {WorkloadType::kInference,
                                WorkloadType::kClustering,
                                WorkloadType::kDebugging,
                                WorkloadType::kInference};
  const auto prepared = draw_round_probes(types, 9, 300);
  // One batch per probe-drawing workload, duplicates drawn once.
  ASSERT_EQ(prepared.size(), 2U);
  EXPECT_EQ(prepared[0].spec, (ProbeSpec{0xF00D ^ 10, 300, 16}));
  EXPECT_EQ(prepared[1].spec, (ProbeSpec{0xDEB06 ^ 10, 300, 16}));
  for (const auto& p : prepared) {
    EXPECT_EQ(*p.batch, fresh_probes(p.spec.seed, p.spec.dim, p.spec.count));
  }
}

TEST(ProbeBatch, MixWithoutInferenceOrDebuggingPreparesNothing) {
  std::vector<WorkloadType> others;
  for (const auto type : fed::paper_workloads()) {
    if (type != WorkloadType::kInference && type != WorkloadType::kDebugging) {
      others.push_back(type);
    }
  }
  others.push_back(WorkloadType::kProvenance);
  others.push_back(WorkloadType::kHyperparamTracking);
  EXPECT_TRUE(draw_round_probes(others, 9, 300).empty());
  EXPECT_TRUE(draw_round_probes({}, 9, 300).empty());
}

TEST(ProbeBatch, PrimedRoundsAreServedWithoutDrawing) {
  const WorkloadType types[] = {WorkloadType::kInference,
                                WorkloadType::kDebugging};
  // Round 20's batches are live when round 21's are primed: requests still
  // queued from round 20 and new ones for round 21 must both find theirs.
  const auto current = draw_round_probes(types, 20, 256);
  const auto next = draw_round_probes(types, 21, 256);
  prime_probe_batches(current);
  prime_probe_batches(next);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto* round : {&current, &next}) {
      for (const auto& p : *round) {
        EXPECT_EQ(probe_batch(p.spec).get(), p.batch.get())
            << "seed " << p.spec.seed << " pass " << pass;
      }
    }
  }
}

TEST(ProbeBatch, ConcurrentCallersGetIdenticalBatches) {
  constexpr int kThreads = 4;
  constexpr int kCalls = 24;
  const std::uint64_t seeds[] = {0xF00D ^ 2, 0xDEB06 ^ 2, 0xF00D ^ 3};
  const std::size_t dims[] = {256, 681};
  std::vector<std::vector<Tensor>> want;
  for (const auto seed : seeds) {
    for (const auto dim : dims) want.push_back(fresh_probes(seed, dim, 16));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        // Each thread walks the combinations in its own order and stride.
        const auto k = static_cast<std::size_t>(i * (t + 1) + t) % want.size();
        const auto batch = probe_batch({seeds[k / 2], dims[k % 2], 16});
        if (*batch != want[k]) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace flstore::workloads
