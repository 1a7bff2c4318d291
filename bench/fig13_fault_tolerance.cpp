// Figure 13 (Appendix A.2): FLStore latency and cost per request under
// Zipfian function reclamations, for FI = 1..5 function instances (replica
// copies) per group. EfficientNet, 3000 requests / 50 hours.
//
// Paper headlines: FI=1 is worst; 3 instances cut latency by 50-150 s per
// request versus FI=1 under faults; FI=3..5 are nearly flat.
//
// Second panel (this repo's extension): the same sweep one layer down —
// the cold tier's serving-region count (backend::ReplicatedColdStore, warm
// NVMe regions + far object-store origin) swept 1..5 under a Zipf region
// outage schedule, mirroring the FI curve at the backend level.
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig13");
  bench::banner("Figure 13",
                "Latency/cost per request vs function instances (faults)");

  auto cfg = bench::paper_scenario("efficientnet_v2_s", 0.25 * args.scale);
  const std::vector<fed::WorkloadType> workloads = {
      fed::WorkloadType::kPersonalization, fed::WorkloadType::kClustering,
      fed::WorkloadType::kMaliciousFilter, fed::WorkloadType::kIncentives,
      fed::WorkloadType::kSchedulingCluster, fed::WorkloadType::kReputation,
      fed::WorkloadType::kSchedulingPerf, fed::WorkloadType::kCosineSimilarity};
  cfg.workloads = workloads;

  // One Zipf reclamation schedule shared by every FI configuration.
  Rng fault_rng(77);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 120.0;  // a reclamation storm: one per 2 min
  fic.population = 16;
  fic.zipf_exponent = 1.0;
  const auto faults =
      generate_fault_schedule(fic, cfg.duration_s, fault_rng);

  Table lat({"application", "FI=1 (s)", "FI=2 (s)", "FI=3 (s)", "FI=4 (s)",
             "FI=5 (s)"});
  Table cost({"application", "FI=1 ($)", "FI=2 ($)", "FI=3 ($)", "FI=4 ($)",
              "FI=5 ($)"});

  std::map<fed::WorkloadType, std::vector<double>> lat_cells, cost_cells;
  double fi1_mean = 0.0, fi3_mean = 0.0;

  for (int fi = 1; fi <= 5; ++fi) {
    auto run_cfg = cfg;
    run_cfg.replicas = fi;
    sim::Scenario sc(run_cfg);
    const auto trace = sc.trace();
    sim::RunnerOptions opts;
    opts.faults = faults;
    const auto run = sim::run_trace(sc.flstore(), sc.job(), trace,
                                    run_cfg.duration_s,
                                    run_cfg.round_interval_s, opts);
    const auto by = sim::by_workload(run);
    double total = 0.0;
    std::size_t n = 0;
    for (const auto type : workloads) {
      lat_cells[type].push_back(by.at(type).latency.mean());
      cost_cells[type].push_back(by.at(type).cost.mean());
      total += by.at(type).latency.sum();
      n += by.at(type).latency.size();
    }
    const auto denom = static_cast<double>(std::max<std::size_t>(1, n));
    if (fi == 1) fi1_mean = total / denom;
    if (fi == 3) fi3_mean = total / denom;
  }

  for (const auto type : workloads) {
    std::vector<std::string> lrow{fed::paper_label(type)};
    std::vector<std::string> crow{fed::paper_label(type)};
    for (int fi = 0; fi < 5; ++fi) {
      lrow.push_back(fmt(lat_cells[type][static_cast<std::size_t>(fi)], 2));
      crow.push_back(
          fmt_usd(cost_cells[type][static_cast<std::size_t>(fi)]));
    }
    lat.add_row(lrow);
    cost.add_row(crow);
  }
  std::printf("\nPer-request latency under faults:\n%s",
              lat.to_string().c_str());
  std::printf("\nPer-request cost under faults:\n%s", cost.to_string().c_str());

  // --- region-count sweep on the backend seam -----------------------------
  bench::note(
      "\nCold-tier region sweep — like FI, but for the replicated backend:\n"
      "serving regions 1..5 under a Zipf region-outage schedule (the far\n"
      "origin store never fails; read-repair heals replicas after outages):");
  sim::Scenario geo_sc(cfg);
  const auto geo_trace = geo_sc.trace();
  Rng region_rng(101);
  FaultInjectorConfig region_fic;
  region_fic.mean_interarrival_s = 3600.0;
  region_fic.population = bench::kGeoFaultDomains;
  const auto region_faults =
      generate_fault_schedule(region_fic, cfg.duration_s, region_rng);
  constexpr double kOutageDurationS = 900.0;

  Table geo({"serving regions", "mean lat (s)", "mean $/req",
             "failover reads", "egress $", "idle $/h"});
  std::vector<double> region_lat;
  for (int regions = 1; regions <= 5; ++regions) {
    const auto row = bench::run_geo_deployment(
        geo_sc, geo_trace, regions,
        bench::geo_outages(region_faults, regions, kOutageDurationS));
    geo.add_row({std::to_string(regions), fmt(row.mean_latency_s, 3),
                 fmt_usd(row.mean_cost_usd),
                 std::to_string(row.failover_reads), fmt_usd(row.egress_usd),
                 fmt_usd(row.idle_usd_per_hour)});
    region_lat.push_back(row.mean_latency_s);
    const std::string prefix =
        "backend_regions/" + std::to_string(regions);
    report.add(prefix + "/mean_latency_s", row.mean_latency_s, "s");
    report.add(prefix + "/mean_cost_usd", row.mean_cost_usd, "$");
    report.add(prefix + "/egress_usd", row.egress_usd, "$");
    report.add(prefix + "/idle_usd_per_hour", row.idle_usd_per_hour, "$/h");
  }
  std::printf("%s", geo.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("mean per-request latency FI=1", 60.0, fi1_mean, "s");
  report.headline("latency saved per request by FI=3 vs FI=1", 50.0,
                  fi1_mean - fi3_mean, "s");
  report.add("backend_regions/latency_saved_by_3_vs_1_s",
             region_lat[0] - region_lat[2], "s");
  bench::note(
      "Shape check: FI=1 pays recurring re-fetches; FI>=3 absorbs the Zipf\n"
      "fault storm with only failover timeouts, as in the paper — and the\n"
      "cold tier's region sweep mirrors the same curve one layer down.");
  report.write(args);
  return 0;
}
