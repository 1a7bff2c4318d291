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

/// Serve `req`, arriving at `arrival`, on `system`: at once in an open-loop
/// run (`server_free` empty), else on the system's earliest-free server.
RequestRecord serve_request(core::ServingSystem& system,
                            const fed::NonTrainingRequest& req, double arrival,
                            std::vector<double>& server_free) {
  RequestRecord rec;
  rec.request = req;
  double start = arrival;
  std::size_t server = 0;
  if (!server_free.empty()) {
    server = static_cast<std::size_t>(
        std::min_element(server_free.begin(), server_free.end()) -
        server_free.begin());
    start = std::max(start, server_free[server]);
    rec.queue_s = start - arrival;
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
  return rec;
}

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

std::vector<RunResult> run_trace(
    const std::vector<core::ServingSystem*>& systems, const fed::FLJob& job,
    const std::vector<fed::NonTrainingRequest>& trace, double duration_s,
    double round_interval_s, const RunnerOptions& options) {
  FLSTORE_CHECK(duration_s > 0.0);
  FLSTORE_CHECK(round_interval_s > 0.0);
  if (systems.empty()) throw InvalidArgument("run_trace: no systems to run");
  for (auto it = systems.begin(); it != systems.end(); ++it) {
    if (*it == nullptr) throw InvalidArgument("run_trace: a system is null");
    if (std::find(systems.begin(), it, *it) != it) {
      throw InvalidArgument("run_trace: " + (*it)->name() + " is listed twice");
    }
  }

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

  // Each system has its own result and its own server pool (free-at times).
  std::vector<RunResult> results;
  for (auto* system : systems) {
    results.push_back({system->name(), {}, duration_s, 0.0});
    results.back().records.reserve(trace.size());
  }
  const auto servers = static_cast<std::size_t>(std::max(options.servers, 0));
  std::vector<std::vector<double>> server_free(
      systems.size(), std::vector<double>(servers, 0.0));

  for (const auto& ev : events) {
    switch (ev.type) {
      case EventType::kIngest: {
        const auto record = job.make_round(static_cast<RoundId>(ev.index));
        for (auto* system : systems) system->ingest_round(record, ev.time);
        break;
      }
      case EventType::kFault: {
        for (auto* system : systems) {
          (void)system->inject_fault(options.faults[ev.index].victim_rank);
        }
        break;
      }
      case EventType::kRequest: {
        for (std::size_t s = 0; s < systems.size(); ++s) {
          results[s].records.push_back(serve_request(
              *systems[s], trace[ev.index], ev.time, server_free[s]));
        }
        break;
      }
    }
  }

  for (std::size_t s = 0; s < systems.size(); ++s) {
    results[s].infrastructure_usd = systems[s]->infrastructure_cost(duration_s);
  }
  return results;
}

}  // namespace flstore::sim
