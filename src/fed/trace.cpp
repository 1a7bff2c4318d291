#include "fed/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flstore::fed {

TraceSampler::TraceSampler(std::vector<WorkloadType> workloads,
                           const FLJob& dir,
                           std::size_t tracked_clients,
                           double round_interval_s)
    : workloads_(workloads.empty() ? paper_workloads() : std::move(workloads)),
      dir_(&dir),
      round_interval_s_(round_interval_s) {
  FLSTORE_CHECK(round_interval_s_ > 0.0);
  const bool has_p3 =
      std::any_of(workloads_.begin(), workloads_.end(), [](WorkloadType w) {
        return policy_class_for(w) == PolicyClass::kP3;
      });
  if (has_p3 && tracked_clients == 0) {
    throw InvalidArgument(
        "TraceSampler: a mix with P3 workloads needs tracked_clients > 0");
  }
  if (tracked_clients > 0) {
    // Tracked clients for the P3 family, with a per-client cursor through
    // their participation rounds. Use round-0 participants as a
    // deterministic, always-valid choice.
    const auto first_round = dir.participants(0);
    FLSTORE_CHECK(!first_round.empty());
    for (std::size_t i = 0; i < tracked_clients; ++i) {
      tracked_.push_back(first_round[i % first_round.size()]);
    }
  }
  cursor_.assign(tracked_.size(), -1);
}

NonTrainingRequest TraceSampler::sample(RequestId id, double now, Rng& rng) {
  NonTrainingRequest req;
  req.id = id;
  req.arrival_s = now;
  req.type = workloads_[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(workloads_.size()) - 1))];

  const auto newest = std::min<RoundId>(
      dir_->latest_round(), static_cast<RoundId>(now / round_interval_s_));

  if (policy_class_for(req.type) == PolicyClass::kP3) {
    const auto idx = p3_rr_ % tracked_.size();
    ++p3_rr_;
    req.client = tracked_[idx];
    // Advance this client's cursor to its next participation that has
    // already happened; once the sequence is exhausted the cursor holds at
    // the last participation reached (the trajectory's newest point — a
    // stable, warm target), it does not wrap (regression-tested).
    auto next = dir_->next_participation(req.client, cursor_[idx]);
    if (next.has_value() && *next <= newest) {
      cursor_[idx] = *next;
    } else if (cursor_[idx] < 0) {
      // No participation yet; target round 0 anyway (a miss-path case).
      cursor_[idx] = 0;
    }
    req.round = cursor_[idx];
  } else {
    // P1/P2/P4 workloads run against the newest completed round — the
    // iterative per-round pattern the tailored policies exploit.
    req.round = newest;
  }
  return req;
}

std::vector<NonTrainingRequest> generate_trace(const TraceConfig& config,
                                               const FLJob& dir) {
  FLSTORE_CHECK(config.duration_s > 0.0);
  FLSTORE_CHECK(config.total_requests > 0);
  FLSTORE_CHECK(config.round_interval_s > 0.0);

  Rng rng(config.seed);
  TraceSampler sampler(config.workloads, dir, config.tracked_clients,
                       config.round_interval_s);

  // Poisson arrivals with the rate that yields ~total_requests in duration.
  const double rate =
      static_cast<double>(config.total_requests) / config.duration_s;

  std::vector<NonTrainingRequest> out;
  out.reserve(config.total_requests);
  double t = rng.exponential(rate);
  RequestId next_id = 1;
  while (out.size() < config.total_requests) {
    if (t >= config.duration_s) break;
    out.push_back(sampler.sample(next_id++, t, rng));
    t += rng.exponential(rate);
  }
  return out;
}

std::vector<NonTrainingRequest> table2_p2_trace(WorkloadType type,
                                                RoundId n_rounds) {
  FLSTORE_CHECK(policy_class_for(type) == PolicyClass::kP2);
  std::vector<NonTrainingRequest> out;
  out.reserve(static_cast<std::size_t>(n_rounds));
  for (RoundId r = 0; r < n_rounds; ++r) {
    out.push_back(NonTrainingRequest{
        static_cast<RequestId>(r + 1), type, r, kNoClient,
        static_cast<double>(r)});
  }
  return out;
}

std::vector<NonTrainingRequest> table2_p3_trace(ClientId client,
                                                std::size_t n,
                                                const FLJob& dir) {
  std::vector<NonTrainingRequest> out;
  out.reserve(n);
  RoundId r = -1;
  RequestId id = 1;
  while (out.size() < n) {
    const auto next = dir.next_participation(client, r);
    if (!next.has_value()) break;
    r = *next;
    out.push_back(NonTrainingRequest{id++, WorkloadType::kProvenance, r,
                                     client, static_cast<double>(out.size())});
  }
  return out;
}

std::vector<NonTrainingRequest> table2_p4_trace(RoundId n_rounds) {
  std::vector<NonTrainingRequest> out;
  out.reserve(static_cast<std::size_t>(n_rounds));
  for (RoundId r = 0; r < n_rounds; ++r) {
    out.push_back(NonTrainingRequest{
        static_cast<RequestId>(r + 1), WorkloadType::kSchedulingPerf, r,
        kNoClient, static_cast<double>(r)});
  }
  return out;
}

}  // namespace flstore::fed
