#include "core/policy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::core {

namespace {

/// P2 request plan: prefetch all of round r+1, evict rounds that slid out
/// of the two-round window (Fig 6, example 1). r-1 stays cached — debugging
/// and incentive settlement diff the current round against it.
void plan_p2(const fed::NonTrainingRequest& req, const fed::FLJob& dir,
             RequestPlan& plan) {
  const auto next = req.round + 1;
  if (next <= dir.latest_round()) {
    for (const auto c : dir.participants(next)) {
      plan.prefetch.push_back(MetadataKey::update(c, next));
    }
    plan.prefetch.push_back(MetadataKey::aggregate(next));
  }
  if (req.round > 1) {
    for (const auto c : dir.participants(req.round - 2)) {
      plan.evict.push_back(MetadataKey::update(c, req.round - 2));
    }
  }
}

/// P3 request plan: prefetch the tracked client's next participation rounds
/// (two of them — consecutive tracking requests can skip a participation
/// when the client trains faster than it is audited), evict its older
/// entries (Fig 6, example 2).
///
/// Eviction window: of the client's last three participation rounds, the
/// one being served (req.round) and the one immediately before it
/// (r + 1 >= req.round) stay cached — across-round trackers diff the
/// current participation against the previous one. Everything older in the
/// trail (update, metrics and that round's aggregate) is dropped.
void plan_p3(const fed::NonTrainingRequest& req, const fed::FLJob& dir,
             RequestPlan& plan) {
  if (req.client == kNoClient) return;
  RoundId cursor = req.round;
  for (int ahead = 0; ahead < 2; ++ahead) {
    const auto next = dir.next_participation(req.client, cursor);
    if (!next.has_value()) break;
    plan.prefetch.push_back(MetadataKey::update(req.client, *next));
    plan.prefetch.push_back(MetadataKey::metrics(req.client, *next));
    // Alignment-style trackers (reputation) compare the client's update to
    // that round's aggregate; keep it in the track's working set.
    plan.prefetch.push_back(MetadataKey::aggregate(*next));
    cursor = *next;
  }
  // Evict this client's trail older than the previous participation.
  const auto window = dir.participation_window(req.client, req.round, 3);
  for (const auto r : window) {
    if (r + 1 < req.round) {
      plan.evict.push_back(MetadataKey::update(req.client, r));
      plan.evict.push_back(MetadataKey::metrics(req.client, r));
      plan.evict.push_back(MetadataKey::aggregate(r));
    }
  }
}

/// P1 request plan: make sure the aggregate the request used stays, nothing
/// else to do (the ingest plan keeps the newest aggregate cached).
void plan_p1(const fed::NonTrainingRequest&, const fed::FLJob&, RequestPlan&) {}

/// P4 request plan: the metadata window is maintained at ingest; nothing to
/// prefetch per request.
void plan_p4(const fed::NonTrainingRequest&, const fed::FLJob&, RequestPlan&) {}

}  // namespace

fed::PolicyClass PolicyEngine::effective_class(
    const fed::NonTrainingRequest& req) {
  switch (config_.mode) {
    case PolicyMode::kTailored:
      return fed::policy_class_for(req.type);
    case PolicyMode::kTailoredStatic:
      return config_.static_class;
    case PolicyMode::kTailoredRandom: {
      const auto pick = rng_.uniform_int(0, 3);
      return static_cast<fed::PolicyClass>(pick);
    }
    case PolicyMode::kLru:
    case PolicyMode::kLfu:
    case PolicyMode::kFifo:
      break;
  }
  throw InternalError("effective_class called for a traditional mode");
}

RequestPlan PolicyEngine::plan_request(const fed::NonTrainingRequest& req,
                                       const fed::FLJob& dir) {
  if (!is_tailored(config_.mode)) return {};
  return plan_for_class(effective_class(req), req, dir);
}

RequestPlan PolicyEngine::plan_for_class(fed::PolicyClass cls,
                                         const fed::NonTrainingRequest& req,
                                         const fed::FLJob& dir) const {
  RequestPlan plan;
  switch (cls) {
    case fed::PolicyClass::kP1: plan_p1(req, dir, plan); break;
    case fed::PolicyClass::kP2: plan_p2(req, dir, plan); break;
    case fed::PolicyClass::kP3: plan_p3(req, dir, plan); break;
    case fed::PolicyClass::kP4: plan_p4(req, dir, plan); break;
  }
  return plan;
}

IngestPlan PolicyEngine::plan_ingest(const fed::RoundRecord& record,
                                     const fed::FLJob& dir) {
  IngestPlan plan;
  if (!is_tailored(config_.mode)) return plan;

  const auto r = record.round;
  // Which policy classes are "active" decides what a new round write-
  // allocates. Full FLStore serves all classes; Static serves only one;
  // Random re-rolls per round.
  fed::PolicyClass only = fed::PolicyClass::kP1;
  bool all_classes = config_.mode == PolicyMode::kTailored;
  if (config_.mode == PolicyMode::kTailoredStatic) {
    only = config_.static_class;
  } else if (config_.mode == PolicyMode::kTailoredRandom) {
    only = static_cast<fed::PolicyClass>(rng_.uniform_int(0, 3));
  }
  const auto active = [&](fed::PolicyClass c) {
    return all_classes || c == only;
  };

  if (active(fed::PolicyClass::kP2)) {
    // "We keep the latest round cached" — newest round's updates in, the
    // round before the previous one out.
    for (const auto& u : record.updates) {
      plan.cache.push_back(
          {MetadataKey::update(u.client, r), fed::PolicyClass::kP2});
    }
    if (r >= 2) {
      for (const auto c : dir.participants(r - 2)) {
        plan.evict.push_back(MetadataKey::update(c, r - 2));
      }
    }
  }
  if (active(fed::PolicyClass::kP1)) {
    plan.cache.push_back({MetadataKey::aggregate(r), fed::PolicyClass::kP1});
    if (r >= 2) plan.evict.push_back(MetadataKey::aggregate(r - 2));
  }
  if (active(fed::PolicyClass::kP4)) {
    for (const auto& m : record.metrics) {
      plan.cache.push_back(
          {MetadataKey::metrics(m.client, r), fed::PolicyClass::kP4});
    }
    plan.cache.push_back({MetadataKey::metadata(r), fed::PolicyClass::kP4});
    const auto stale = r - config_.metadata_window;
    if (stale >= 0) {
      for (const auto c : dir.participants(stale)) {
        plan.evict.push_back(MetadataKey::metrics(c, stale));
      }
      plan.evict.push_back(MetadataKey::metadata(stale));
    }
  }
  // P3 tracks are demand/prefetch-driven; ingest adds nothing for them
  // (the newest round is already covered by the P2 write-allocate).
  return plan;
}

std::array<units::Bytes, fed::kPolicyClassCount> distribute_class_budgets(
    units::Bytes total, units::Bytes floor_bytes,
    const std::array<double, fed::kPolicyClassCount>& weights) {
  const auto floor_each =
      std::min(floor_bytes, total / fed::kPolicyClassCount);
  const units::Bytes distributable =
      total - floor_each * fed::kPolicyClassCount;
  double weight_sum = 0.0;
  for (const auto w : weights) weight_sum += w;

  std::array<units::Bytes, fed::kPolicyClassCount> budgets{};
  units::Bytes assigned = 0;
  std::size_t heaviest = 0;
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    const double frac = weight_sum > 0.0
                            ? weights[c] / weight_sum
                            : 1.0 / fed::kPolicyClassCount;
    budgets[c] = floor_each + static_cast<units::Bytes>(
                                  static_cast<double>(distributable) * frac);
    assigned += budgets[c];
    if (weights[c] > weights[heaviest]) heaviest = c;
  }
  // Rounding slack goes to the heaviest class so the budgets sum to total.
  budgets[heaviest] += total - assigned;
  return budgets;
}

std::array<units::Bytes, fed::kPolicyClassCount>
PolicyEngine::rebalance_class_budgets(
    const std::array<ClassDemand, fed::kPolicyClassCount>& demand,
    units::Bytes total, units::Bytes floor_bytes) {
  // Primary signal: hit-rate-scaled resident bytes — the space each class
  // holds, discounted by how well it converts that space into hits. A class
  // churning through misses keeps only its floor: no budget would hold its
  // working set, so the bytes serve better where they already pay off.
  std::array<double, fed::kPolicyClassCount> weight{};
  double weight_sum = 0.0;
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    const auto accesses = demand[c].hits + demand[c].misses;
    const double hit_rate =
        accesses == 0 ? 0.0
                      : static_cast<double>(demand[c].hits) /
                            static_cast<double>(accesses);
    weight[c] = static_cast<double>(demand[c].bytes) * hit_rate;
    weight_sum += weight[c];
  }
  if (weight_sum == 0.0) {
    // Cold ledger: fall back to miss pressure with a +1 prior (even split
    // when there has been no traffic at all).
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      weight[c] = static_cast<double>(demand[c].misses) + 1.0;
    }
  }
  return distribute_class_budgets(total, floor_bytes, weight);
}

}  // namespace flstore::core
