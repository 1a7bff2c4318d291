// Shared scaffolding for the benchmark binaries: every bench prints a banner
// naming the paper artifact it regenerates, runs the simulation, and closes
// with paper-vs-measured headlines (one such section per artifact).
//
// Common CLI (parse_args):
//   --scale X  shrink rounds/request counts proportionally (CI smoke
//              runs; per-request quantities are unchanged)
//   --json     also write each artifact's headline metrics as
//              BENCH_<name>.json — the perf-trajectory artifact CI uploads
//   --trace    export the run's sampled spans as Chrome trace-event JSON
//              (TRACE_<name>.json) — load in Perfetto or chrome://tracing;
//              timestamps are simulated time
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/replicated_cold_store.hpp"
#include "common/table.hpp"
#include "fed/request.hpp"
#include "obs/telemetry.hpp"
#include "sim/calibration.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"

namespace flstore::bench {

inline void banner(const char* artifact, const char* title) {
  std::printf("\n========================================================\n");
  std::printf("%s — %s\n", artifact, title);
  std::printf("========================================================\n");
}

inline void note(const char* text) { std::printf("%s\n", text); }

struct Args {
  double scale = 1.0;
  bool json = false;
  bool trace = false;
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  const auto set_scale = [&args](const char* text) {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(value > 0.0)) {
      // Fail hard: a typoed scale must not turn a CI smoke run into the
      // full 50-hour-trace bench (exiting 0 would hide it completely).
      std::fprintf(stderr, "invalid --scale '%s'\n", text);
      std::exit(2);
    }
    args.scale = value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      set_scale(arg.c_str() + 8);
    } else if (arg == "--scale") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--scale needs a value\n");
        std::exit(2);
      }
      set_scale(argv[++i]);
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg == "--trace") {
      args.trace = true;
    } else {
      // Fatal for the same reason as a bad --scale value: a typoed flag
      // must not silently run the full-size bench.
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// Collects headline metrics and (with --json) writes them as the bench's
/// BENCH_*.json artifact: {"bench", "scale", "metrics": [{name,value,unit}]}.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& name, double value, std::string unit = "") {
    metrics_.push_back(Metric{name, value, std::move(unit)});
  }

  /// Embed the registry's full snapshot as a "telemetry" object in the
  /// artifact (every counter/gauge value plus histogram summaries), so one
  /// BENCH_*.json carries both the headline metrics and the raw series.
  void attach_telemetry(const obs::MetricsRegistry& metrics) {
    telemetry_json_ = metrics.snapshot_json();
  }

  /// The standard paper-vs-measured footer line, also recorded as a metric.
  void headline(const std::string& what, double paper_value,
                double measured_value, const std::string& unit) {
    sim::print_headline(what, paper_value, measured_value, unit);
    add(what, measured_value, unit);
  }

  /// Write the artifact when --json was given. Non-finite values serialize
  /// as null (JSON has no NaN).
  void write(const Args& args) const {
    if (!args.json) return;
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    out << "{\n  \"bench\": \"" << escaped(bench_) << "\",\n"
        << "  \"scale\": " << args.scale << ",\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      out << "    {\"name\": \"" << escaped(m.name) << "\", \"value\": ";
      if (std::isfinite(m.value)) {
        out << m.value;
      } else {
        out << "null";
      }
      out << ", \"unit\": \"" << escaped(m.unit) << "\"}";
      out << (i + 1 < metrics_.size() ? ",\n" : "\n");
    }
    out << "  ]";
    if (!telemetry_json_.empty()) {
      out << ",\n  \"telemetry\": " << telemetry_json_;
    }
    out << "\n}\n";
    std::printf("\nwrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  static std::string escaped(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<Metric> metrics_;
  std::string telemetry_json_;
};

/// Export the tracer's sampled spans when --trace was given. The file is
/// Chrome trace-event JSON — open it in Perfetto (ui.perfetto.dev) or
/// chrome://tracing.
inline void write_trace(const Args& args, const obs::Tracer& tracer,
                        const std::string& bench) {
  if (!args.trace) return;
  const std::string path = "TRACE_" + bench + ".json";
  if (!tracer.write_chrome_trace(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s (%zu spans, %llu dropped)\n", path.c_str(),
              tracer.span_count(),
              static_cast<unsigned long long>(tracer.dropped()));
}

/// The observability overhead guard: with telemetry being pure bookkeeping
/// in simulated time, the instrumented run's sim-time throughput must sit
/// within `tolerance` of the plain run's (the ISSUE's < 5% budget). Prints
/// and records the verdict; returns it so benches can also assert.
inline bool check_observability_overhead(JsonReport& report, double off_qps,
                                         double on_qps,
                                         double tolerance = 0.05) {
  const double base = std::max(std::fabs(off_qps), 1e-12);
  const double delta = std::fabs(on_qps - off_qps) / base;
  const bool ok = delta < tolerance;
  std::printf(
      "observability overhead: %.3f%% throughput delta "
      "(%.1f qps off vs %.1f qps on) — within %.0f%%: %s\n",
      100.0 * delta, off_qps, on_qps, 100.0 * tolerance, ok ? "yes" : "NO");
  report.add("obs/throughput_delta_fraction", delta);
  report.add("verdict/observability_overhead_lt_5pct", ok ? 1.0 : 0.0);
  return ok;
}

/// The §5.1 evaluation scenario for one model. `scale` < 1 shrinks rounds
/// and request counts proportionally (all benches default to full scale; a
/// smaller scale keeps CI runs quick without changing any per-request
/// quantity — only sample counts shrink). Both counts floor at one, so a
/// tiny scale still yields a job with a round and a one-request trace.
inline sim::ScenarioConfig paper_scenario(const std::string& model,
                                          double scale = 1.0) {
  sim::ScenarioConfig cfg;
  cfg.model = model;
  cfg.rounds = std::max<RoundId>(1, static_cast<RoundId>(1000 * scale));
  cfg.duration_s = sim::kTraceDurationS * scale;
  cfg.total_requests =
      std::max<std::size_t>(1, static_cast<std::size_t>(3000 * scale));
  cfg.round_interval_s = sim::kRoundIntervalS;
  return cfg;
}

/// Panel label used by the paper's figures for each §5.1 model.
inline std::string panel_label(const std::string& model) {
  if (model == "resnet18") return "Resnet18";
  if (model == "mobilenet_v3_small") return "MobileNetV2";  // paper's label
  if (model == "efficientnet_v2_s") return "EfficientNet";
  if (model == "swin_v2_t") return "SwinTransformer";
  return model;
}

/// A headline's percent reduction, or NaN (null in BENCH_*.json) when a
/// tiny --scale trace leaves its baseline at zero.
inline double headline_reduction(double baseline, double ours) {
  return baseline != 0.0 ? percent_reduction(baseline, ours) : std::nan("");
}

/// One workload's stats in a baseline's run and in FLStore's run.
struct WorkloadPair {
  fed::WorkloadType type;
  sim::WorkloadStats base, fl;
};

/// Both runs' stats for each workload in `types`, skipping one that either
/// run lacks (a tiny --scale trace can carry no request of it).
inline std::vector<WorkloadPair> paired_workloads(
    const sim::RunResult& base_run, const sim::RunResult& fl_run,
    const std::vector<fed::WorkloadType>& types) {
  auto base_by = sim::by_workload(base_run);
  auto fl_by = sim::by_workload(fl_run);
  std::vector<WorkloadPair> pairs;
  for (const auto type : types) {
    if (base_by.contains(type) && fl_by.contains(type)) {
      pairs.push_back({type, std::move(base_by[type]), std::move(fl_by[type])});
    }
  }
  return pairs;
}

// --- backend sweep (Figs 7/8/10/17) ---------------------------------------
// The paper's FLStore-vs-ObjStore-vs-CloudCache curves, regenerated through
// ONE code path: every row is core::FLStore::serve over a different
// backend::StorageBackend. The "direct" rows disable the serverless cache
// (capacity 1 byte: nothing fits, every request runs against the cold
// backend), so what they measure is the raw data plane — exactly the
// baselines' bottleneck, minus any code divergence.

struct BackendSweepRow {
  std::string label;
  backend::BackendKind kind = backend::BackendKind::kObjectStore;
  bool cached = false;  ///< serverless cache in front of the backend
  sim::RunResult run;
  double idle_usd_per_hour = 0.0;  ///< backend + function keep-alive
};

inline std::vector<BackendSweepRow> run_backend_sweep(
    sim::Scenario& sc, const std::vector<fed::NonTrainingRequest>& trace) {
  struct Cell {
    const char* label;
    backend::BackendKind kind;
    bool cached;
  };
  const Cell cells[] = {
      {"FLStore (cache + objstore cold)", backend::BackendKind::kObjectStore,
       true},
      {"direct object store", backend::BackendKind::kObjectStore, false},
      {"direct cloud cache", backend::BackendKind::kCloudCache, false},
      {"direct local SSD", backend::BackendKind::kLocalSsd, false},
  };
  // The four deployments serve the trace in one lock-step pass.
  std::vector<std::unique_ptr<backend::StorageBackend>> colds;
  std::vector<std::unique_ptr<core::FLStore>> stores;
  std::vector<core::ServingSystem*> systems;
  for (const auto& cell : cells) {
    colds.push_back(sc.make_cold_backend(cell.kind));
    stores.push_back(sc.make_flstore_over(
        *colds.back(),
        cell.cached ? core::PolicyMode::kTailored : core::PolicyMode::kLru,
        cell.cached ? units::Bytes{0} : units::Bytes{1}));
    systems.push_back(stores.back().get());
  }
  auto runs = sim::run_trace(systems, sc.job(), trace, sc.config().duration_s,
                             sc.config().round_interval_s);
  std::vector<BackendSweepRow> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    rows.push_back({cells[i].label, cells[i].kind, cells[i].cached,
                    std::move(runs[i]),
                    colds[i]->idle_cost(3600.0) +
                        stores[i]->infrastructure_cost(3600.0)});
  }
  return rows;
}

/// Mean serving latency / cost of a sweep row (table, JSON metrics, and
/// the benches' paper-ordering headlines all go through these). max(1, …):
/// a degenerate --scale can yield an empty trace; means of 0 beat NaN rows
/// and a bogus ordering verdict.
inline double sweep_mean_latency(const BackendSweepRow& row) {
  return row.run.total_latency_s() /
         static_cast<double>(std::max<std::size_t>(1, row.run.records.size()));
}
inline double sweep_mean_cost(const BackendSweepRow& row) {
  return row.run.total_serving_usd() /
         static_cast<double>(std::max<std::size_t>(1, row.run.records.size()));
}

/// Shared sweep table + JSON metrics over the rows run_backend_sweep
/// returned; benches call this after their own figure-specific output.
inline void print_backend_sweep(const std::vector<BackendSweepRow>& rows,
                                JsonReport& report) {
  note("\nCold-backend sweep — every row is core::FLStore::serve over a\n"
       "backend::StorageBackend; the direct rows disable the serverless\n"
       "cache, so they measure the raw data plane (the paper's baselines,\n"
       "one code path):");
  Table table({"serving path", "mean lat (s)", "mean $/req", "hits", "misses",
               "idle $/h"});
  for (const auto& row : rows) {
    table.add_row({row.label, fmt(sweep_mean_latency(row), 3),
                   fmt_usd(sweep_mean_cost(row)),
                   std::to_string(row.run.total_hits()),
                   std::to_string(row.run.total_misses()),
                   fmt_usd(row.idle_usd_per_hour)});
    const std::string prefix = "sweep/" + std::string(to_string(row.kind)) +
                               (row.cached ? "+cache" : "");
    report.add(prefix + "/mean_latency_s", sweep_mean_latency(row), "s");
    report.add(prefix + "/mean_cost_usd", sweep_mean_cost(row), "$");
    report.add(prefix + "/idle_usd_per_hour", row.idle_usd_per_hour, "$/h");
  }
  std::printf("%s", table.to_string().c_str());
}

// --- multi-region cold tier (Figs 13/14 backend-replication sections) -----
// The geo deployment the replication benches sweep: `serving_regions` warm
// NVMe regions at WAN distances 0..R-1 (all fault-prone — a Zipf outage
// schedule hits the home region hardest) plus an always-up far object-store
// origin. With R=1 a home-region outage forces every read to re-fetch from
// the origin across the WAN; with R>=3 reads fail over to a near replica
// and read-repair heals the home copy — the paper's replication-vs-refetch
// story, reproduced on the StorageBackend seam.

/// Fixed count of geographic fault domains the outage schedule is drawn
/// over, independent of how many serving regions a deployment provisions —
/// deploying fewer regions must not make the surviving ones fail more
/// often, or the replication-vs-refetch comparison would be rigged.
inline constexpr int kGeoFaultDomains = 5;

/// Region outages for a geo deployment: map the fault schedule onto the
/// fixed fault domains, then keep only the domains this deployment
/// actually hosts (the origin never fails — it is the durable tier).
/// Every deployment size sees the *same* per-region outage law; larger
/// deployments simply host (and absorb) more of the schedule.
inline std::vector<backend::OutageWindow> geo_outages(
    const std::vector<FaultEvent>& faults, int serving_regions,
    double outage_duration_s) {
  auto windows = backend::region_outages_from_faults(
      faults, static_cast<std::size_t>(kGeoFaultDomains), outage_duration_s);
  std::erase_if(windows, [&](const backend::OutageWindow& w) {
    return w.region >= static_cast<std::size_t>(serving_regions);
  });
  return windows;
}

inline std::unique_ptr<backend::ReplicatedColdStore> make_geo_cold_store(
    int serving_regions) {
  std::vector<backend::ReplicatedColdStore::Region> regions;
  regions.reserve(static_cast<std::size_t>(serving_regions) + 1);
  for (int i = 0; i < serving_regions; ++i) {
    backend::ReplicatedColdStore::Region region;
    region.name = "ssd-" + std::to_string(i);
    backend::LocalSsdBackend::Config ssd_cfg;
    ssd_cfg.link = sim::local_ssd_link();
    region.owned = std::make_unique<backend::LocalSsdBackend>(
        ssd_cfg, PricingCatalog::aws());
    region.wan = sim::interregion_link(i);
    regions.push_back(std::move(region));
  }
  backend::ReplicatedColdStore::Region origin;
  origin.name = "origin";
  origin.owned = std::make_unique<backend::ObjectStoreBackend>(
      sim::objstore_link(), PricingCatalog::aws());
  origin.wan = sim::interregion_link(std::max(3, serving_regions));
  origin.far = true;
  regions.push_back(std::move(origin));
  backend::ReplicatedColdStore::Config cfg;
  // Writes wait for two acks (home + nearest other replica); the rest of
  // the fan-out — including the far origin that guarantees durability —
  // streams in the background.
  cfg.write_quorum = 2;
  return std::make_unique<backend::ReplicatedColdStore>(
      std::move(regions), cfg, PricingCatalog::aws());
}

/// One row of a geo sweep: FLStore in direct mode (serverless cache
/// disabled) over the deployment, so every request measures the replicated
/// backend itself.
struct GeoRow {
  int serving_regions = 0;
  double mean_latency_s = 0.0;
  double mean_cost_usd = 0.0;
  double egress_usd = 0.0;
  double idle_usd_per_hour = 0.0;
  std::uint64_t failover_reads = 0;
};

/// One deployment of a geo sweep: its serving regions and their outages.
struct GeoDeployment {
  int serving_regions = 0;
  std::vector<backend::OutageWindow> outages;
};

/// One GeoRow per deployment, in order. The deployments serve the trace in
/// one lock-step pass.
inline std::vector<GeoRow> run_geo_deployments(
    sim::Scenario& sc, const std::vector<fed::NonTrainingRequest>& trace,
    const std::vector<GeoDeployment>& deployments) {
  std::vector<std::unique_ptr<backend::ReplicatedColdStore>> geos;
  std::vector<std::unique_ptr<core::FLStore>> stores;
  std::vector<core::ServingSystem*> systems;
  for (const auto& deployment : deployments) {
    geos.push_back(make_geo_cold_store(deployment.serving_regions));
    geos.back()->set_outages(deployment.outages);
    stores.push_back(sc.make_flstore_over(*geos.back(), core::PolicyMode::kLru,
                                          units::Bytes{1}));
    systems.push_back(stores.back().get());
  }
  const auto runs =
      sim::run_trace(systems, sc.job(), trace, sc.config().duration_s,
                     sc.config().round_interval_s);
  std::vector<GeoRow> rows;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& geo = *geos[i];
    const auto n = static_cast<double>(
        std::max<std::size_t>(1, runs[i].records.size()));
    rows.push_back({deployments[i].serving_regions,
                    runs[i].total_latency_s() / n,
                    runs[i].total_serving_usd() / n, geo.egress_fees_usd(),
                    geo.idle_cost(3600.0), geo.failover_reads()});
  }
  return rows;
}

}  // namespace flstore::bench
