#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace flstore::sim {

namespace {

enum class EventType : int { kIngest = 0, kFault = 1, kRequest = 2 };

struct TimelineEvent {
  double time = 0.0;
  EventType type = EventType::kIngest;
  std::size_t index = 0;  ///< round id / fault index / request index
};

}  // namespace

double RunResult::total_latency_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.latency_s();
  return t;
}
double RunResult::total_comm_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.comm_s;
  return t;
}
double RunResult::total_comp_s() const {
  double t = 0.0;
  for (const auto& r : records) t += r.comp_s;
  return t;
}
double RunResult::total_serving_usd() const {
  double t = 0.0;
  for (const auto& r : records) t += r.cost_usd;
  return t;
}
std::uint64_t RunResult::total_hits() const {
  std::uint64_t t = 0;
  for (const auto& r : records) t += r.hits;
  return t;
}
std::uint64_t RunResult::total_misses() const {
  std::uint64_t t = 0;
  for (const auto& r : records) t += r.misses;
  return t;
}

RunResult run_trace(core::ServingSystem& system, const fed::FLJob& job,
                    const std::vector<fed::NonTrainingRequest>& trace,
                    double duration_s, double round_interval_s,
                    const RunnerOptions& options) {
  FLSTORE_CHECK(duration_s > 0.0);
  FLSTORE_CHECK(round_interval_s > 0.0);

  RunResult result;
  result.system = system.name();
  result.duration_s = duration_s;

  const auto max_round = std::min<RoundId>(
      job.latest_round(),
      static_cast<RoundId>(std::floor(duration_s / round_interval_s)));

  std::vector<TimelineEvent> events;
  events.reserve(static_cast<std::size_t>(max_round + 1) + trace.size() +
                 options.faults.size());
  for (RoundId r = 0; r <= max_round; ++r) {
    events.push_back({static_cast<double>(r) * round_interval_s,
                      EventType::kIngest, static_cast<std::size_t>(r)});
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    events.push_back({trace[i].arrival_s, EventType::kRequest, i});
  }
  for (std::size_t i = 0; i < options.faults.size(); ++i) {
    events.push_back({options.faults[i].time_s, EventType::kFault, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return static_cast<int>(a.type) < static_cast<int>(b.type);
                   });

  std::vector<double> server_free(
      options.servers > 0 ? static_cast<std::size_t>(options.servers) : 0,
      0.0);

  result.records.reserve(trace.size());
  for (const auto& ev : events) {
    switch (ev.type) {
      case EventType::kIngest: {
        const auto record = job.make_round(static_cast<RoundId>(ev.index));
        system.ingest_round(record, ev.time);
        break;
      }
      case EventType::kFault: {
        (void)system.inject_fault(options.faults[ev.index].victim_rank);
        break;
      }
      case EventType::kRequest: {
        const auto& req = trace[ev.index];
        RequestRecord rec;
        rec.request = req;
        double start = ev.time;
        std::size_t server = 0;
        if (!server_free.empty()) {
          server = static_cast<std::size_t>(
              std::min_element(server_free.begin(), server_free.end()) -
              server_free.begin());
          start = std::max(start, server_free[server]);
          rec.queue_s = start - ev.time;
        }
        const auto outcome = system.serve(req, start);
        rec.comm_s = outcome.comm_s;
        rec.comp_s = outcome.comp_s;
        rec.cost_usd = outcome.cost_usd;
        rec.hits = outcome.hits;
        rec.misses = outcome.misses;
        if (!server_free.empty()) {
          server_free[server] = start + outcome.comm_s + outcome.comp_s;
        }
        result.records.push_back(rec);
        break;
      }
    }
  }

  result.infrastructure_usd = system.infrastructure_cost(duration_s);
  return result;
}

}  // namespace flstore::sim
