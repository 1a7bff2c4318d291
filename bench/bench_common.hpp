// Shared scaffolding for the benchmark binaries: every bench prints a banner
// naming the paper artifact it regenerates, runs the simulation, and closes
// with paper-vs-measured headlines.
//
// Common CLI (parse_args):
//   --scale X      shrink rounds/request counts proportionally (CI smoke
//                  runs; per-request quantities are unchanged)
//   --json[=path]  also write the headline metrics as BENCH_<name>.json —
//                  the perf-trajectory artifact CI uploads per commit
//   --trace[=path] export the run's sampled spans as Chrome trace-event
//                  JSON (TRACE_<name>.json by default) — load in Perfetto
//                  or chrome://tracing; timestamps are simulated time
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
#include "obs/instrumented_backend.hpp"
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
  std::string json_path;  ///< empty = BENCH_<name>.json
  bool trace = false;
  std::string trace_path;  ///< empty = TRACE_<name>.json
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
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = arg.substr(7);
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      args.trace = true;
      args.trace_path = arg.substr(8);
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

  /// Write the artifact when --json was given; returns the path ("" if
  /// disabled). Non-finite values serialize as null (JSON has no NaN).
  std::string write(const Args& args) const {
    if (!args.json) return "";
    const std::string path =
        args.json_path.empty() ? "BENCH_" + bench_ + ".json" : args.json_path;
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
    return path;
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

/// Export the tracer's sampled spans when --trace was given; returns the
/// path ("" if disabled). The file is Chrome trace-event JSON — open it in
/// Perfetto (ui.perfetto.dev) or chrome://tracing.
inline std::string write_trace(const Args& args, const obs::Tracer& tracer,
                               const std::string& bench) {
  if (!args.trace) return "";
  const std::string path =
      args.trace_path.empty() ? "TRACE_" + bench + ".json" : args.trace_path;
  if (!tracer.write_chrome_trace(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return "";
  }
  std::printf("wrote %s (%zu spans, %llu dropped)\n", path.c_str(),
              tracer.span_count(),
              static_cast<unsigned long long>(tracer.dropped()));
  return path;
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
/// quantity — only sample counts shrink).
inline sim::ScenarioConfig paper_scenario(const std::string& model,
                                          double scale = 1.0) {
  sim::ScenarioConfig cfg;
  cfg.model = model;
  cfg.rounds = static_cast<RoundId>(1000 * scale);
  cfg.duration_s = sim::kTraceDurationS * scale;
  cfg.total_requests = static_cast<std::size_t>(3000 * scale);
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
  std::vector<BackendSweepRow> rows;
  for (const auto& cell : cells) {
    auto cold = sc.make_cold_backend(cell.kind);
    auto fl = sc.make_flstore_over(*cold,
                                   cell.cached ? core::PolicyMode::kTailored
                                               : core::PolicyMode::kLru,
                                   cell.cached ? units::Bytes{0}
                                               : units::Bytes{1});
    BackendSweepRow row;
    row.label = cell.label;
    row.kind = cell.kind;
    row.cached = cell.cached;
    row.run = sim::run_trace(*fl, sc.job(), trace, sc.config().duration_s,
                             sc.config().round_interval_s);
    row.idle_usd_per_hour =
        cold->idle_cost(3600.0) + fl->infrastructure_cost(3600.0);
    rows.push_back(std::move(row));
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

/// Shared sweep table + JSON metrics; benches call this after their own
/// figure-specific output. Returns the rows for headline checks.
inline std::vector<BackendSweepRow> print_backend_sweep(
    sim::Scenario& sc, const std::vector<fed::NonTrainingRequest>& trace,
    JsonReport& report) {
  note("\nCold-backend sweep — every row is core::FLStore::serve over a\n"
       "backend::StorageBackend; the direct rows disable the serverless\n"
       "cache, so they measure the raw data plane (the paper's baselines,\n"
       "one code path):");
  auto rows = run_backend_sweep(sc, trace);
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
  return rows;
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
    int serving_regions, obs::Telemetry* telemetry = nullptr) {
  // With telemetry, each region's backend is wrapped individually (region
  // label = region name), so backend_ops_total / latency histograms split
  // per region — failovers show up as reads booked against "ssd-1" while
  // "ssd-0" sits in an outage window.
  const auto instrumented =
      [telemetry](std::unique_ptr<backend::StorageBackend> raw,
                  const std::string& region_name) {
        if (telemetry == nullptr) return raw;
        obs::InstrumentedBackend::Options opts;
        opts.metrics = &telemetry->metrics;
        opts.tracer = &telemetry->tracer;
        opts.region = region_name;
        return std::unique_ptr<backend::StorageBackend>(
            std::make_unique<obs::InstrumentedBackend>(std::move(raw),
                                                       std::move(opts)));
      };
  std::vector<backend::ReplicatedColdStore::Region> regions;
  regions.reserve(static_cast<std::size_t>(serving_regions) + 1);
  for (int i = 0; i < serving_regions; ++i) {
    backend::ReplicatedColdStore::Region region;
    region.name = "ssd-" + std::to_string(i);
    backend::LocalSsdBackend::Config ssd_cfg;
    ssd_cfg.link = sim::local_ssd_link();
    region.owned = instrumented(std::make_unique<backend::LocalSsdBackend>(
                                    ssd_cfg, PricingCatalog::aws()),
                                region.name);
    region.wan = sim::interregion_link(i);
    regions.push_back(std::move(region));
  }
  backend::ReplicatedColdStore::Region origin;
  origin.name = "origin";
  origin.owned = instrumented(std::make_unique<backend::ObjectStoreBackend>(
                                  sim::objstore_link(), PricingCatalog::aws()),
                              origin.name);
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
  sim::RunResult run;
  double mean_latency_s = 0.0;
  double mean_cost_usd = 0.0;
  double egress_usd = 0.0;
  double idle_usd_per_hour = 0.0;
  std::uint64_t failover_reads = 0;
  std::uint64_t outage_skips = 0;
};

inline GeoRow run_geo_deployment(
    sim::Scenario& sc, const std::vector<fed::NonTrainingRequest>& trace,
    int serving_regions, const std::vector<backend::OutageWindow>& outages) {
  auto geo = make_geo_cold_store(serving_regions);
  geo->set_outages(outages);
  auto fl = sc.make_flstore_over(*geo, core::PolicyMode::kLru,
                                 units::Bytes{1});
  GeoRow row;
  row.serving_regions = serving_regions;
  row.run = sim::run_trace(*fl, sc.job(), trace, sc.config().duration_s,
                           sc.config().round_interval_s);
  const auto n = static_cast<double>(
      std::max<std::size_t>(1, row.run.records.size()));
  row.mean_latency_s = row.run.total_latency_s() / n;
  row.mean_cost_usd = row.run.total_serving_usd() / n;
  row.egress_usd = geo->egress_fees_usd();
  row.idle_usd_per_hour = geo->idle_cost(3600.0);
  row.failover_reads = geo->failover_reads();
  row.outage_skips = geo->outage_skips();
  return row;
}

}  // namespace flstore::bench
