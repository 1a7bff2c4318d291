// Figure 14 (Appendix A.2): replication vs re-fetching under faults —
// per-workload latency and cost overheads of losing cached state (FI=1,
// everything re-fetched from the persistent store) against keeping 5
// replicas warm, plus the headline communication-cost comparison.
//
// Paper headlines: 5 replicas over 50 h / 3000 requests cost just $0.003
// (~$0.000001 per request served), up to 3000x cheaper than the
// re-computation/communication the faults otherwise cause.
//
// Second panel (this repo's extension): the same story one layer down, on
// the StorageBackend seam. A single-region cold tier re-fetches from the
// far origin store whenever its region is dark; a 3-region quorum
// deployment fails over to a near replica and read-repairs the home copy.
// Replicated latency stays ~flat under region outages; the single region
// pays the cross-region re-fetch penalty on every affected request.
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig14");
  bench::banner("Figure 14", "Replication vs re-fetching under Zipf faults");

  auto cfg = bench::paper_scenario("efficientnet_v2_s", 0.25 * args.scale);
  const std::vector<fed::WorkloadType> workloads = {
      fed::WorkloadType::kClustering, fed::WorkloadType::kCosineSimilarity,
      fed::WorkloadType::kIncentives, fed::WorkloadType::kMaliciousFilter,
      fed::WorkloadType::kPersonalization, fed::WorkloadType::kReputation,
      fed::WorkloadType::kSchedulingCluster,
      fed::WorkloadType::kSchedulingPerf};
  cfg.workloads = workloads;

  Rng fault_rng(77);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 120.0;
  fic.population = 16;
  const auto faults =
      generate_fault_schedule(fic, cfg.duration_s, fault_rng);

  auto run_with_replicas = [&](int fi) {
    auto run_cfg = cfg;
    run_cfg.replicas = fi;
    sim::Scenario sc(run_cfg);
    sim::RunnerOptions opts;
    opts.faults = faults;
    return sim::run_trace({&sc.flstore()}, sc.job(), sc.trace(),
                          run_cfg.duration_s, run_cfg.round_interval_s, opts)
        .front();
  };

  const auto refetch_run = run_with_replicas(1);
  const auto replica_run = run_with_replicas(5);
  // The replicas' keep-alive over the run.
  const double replica_keepalive = replica_run.infrastructure_usd;

  Table table({"application", "re-fetch lat (s)", "replicated lat (s)",
               "re-fetch $/req", "replicated $/req"});
  for (const auto& [type, refetch, replica] :
       bench::paired_workloads(refetch_run, replica_run, workloads)) {
    table.add_row({fed::paper_label(type), fmt(refetch.latency.mean(), 2),
                   fmt(replica.latency.mean(), 2),
                   fmt_usd(refetch.cost.mean()),
                   fmt_usd(replica.cost.mean())});
  }
  std::printf("%s", table.to_string().c_str());

  // --- backend-level replication vs re-fetch ------------------------------
  bench::note(
      "\nBackend-replication sweep — FLStore in direct mode over a\n"
      "backend::ReplicatedColdStore (warm NVMe serving regions + far\n"
      "object-store origin). Region outages follow a Zipf schedule that\n"
      "hits the home region hardest; the origin never fails:");
  sim::Scenario geo_sc(cfg);
  const auto geo_trace = geo_sc.trace();
  Rng region_rng(101);
  FaultInjectorConfig region_fic;
  region_fic.mean_interarrival_s = 3600.0;  // one region outage per hour
  region_fic.population = bench::kGeoFaultDomains;
  const auto region_faults =
      generate_fault_schedule(region_fic, cfg.duration_s, region_rng);
  constexpr double kOutageDurationS = 900.0;
  const auto rows = bench::run_geo_deployments(
      geo_sc, geo_trace,
      {{1, {}},
       {1, bench::geo_outages(region_faults, 1, kOutageDurationS)},
       {3, {}},
       {3, bench::geo_outages(region_faults, 3, kOutageDurationS)}});
  const auto& refetch_clean = rows[0];
  const auto& refetch_dark = rows[1];
  const auto& quorum_clean = rows[2];
  const auto& quorum_dark = rows[3];

  Table geo({"cold tier", "outages", "mean lat (s)", "mean $/req",
             "failover reads", "egress $", "idle $/h"});
  const auto geo_row = [&](const char* label, const char* outages,
                           const bench::GeoRow& row) {
    geo.add_row({label, outages, fmt(row.mean_latency_s, 3),
                 fmt_usd(row.mean_cost_usd),
                 std::to_string(row.failover_reads), fmt_usd(row.egress_usd),
                 fmt_usd(row.idle_usd_per_hour)});
  };
  geo_row("1 region + origin (re-fetch)", "none", refetch_clean);
  geo_row("1 region + origin (re-fetch)", "zipf", refetch_dark);
  geo_row("3-region quorum", "none", quorum_clean);
  geo_row("3-region quorum", "zipf", quorum_dark);
  std::printf("%s", geo.to_string().c_str());

  const auto degradation = [](const bench::GeoRow& dark,
                              const bench::GeoRow& clean) {
    return dark.mean_latency_s / std::max(clean.mean_latency_s, 1e-12);
  };
  const double refetch_deg = degradation(refetch_dark, refetch_clean);
  const double quorum_deg = degradation(quorum_dark, quorum_clean);
  // "~flat": the quorum deployment absorbs the outage schedule that
  // multiplies the single-region latency — it keeps at least 80% of the
  // penalty off the request path, and the single region visibly degrades.
  const bool replicated_flat =
      (quorum_dark.mean_latency_s - quorum_clean.mean_latency_s) <
      0.2 * (refetch_dark.mean_latency_s - refetch_clean.mean_latency_s);
  const bool refetch_degrades = refetch_deg > 2.0;
  std::printf(
      "\n  backend ordering: 3-region quorum ~flat under outages (x%.2f)\n"
      "  while 1-region re-fetch degrades (x%.2f) — %s\n",
      quorum_deg, refetch_deg,
      replicated_flat && refetch_degrades ? "holds" : "VIOLATED");

  report.add("backend_repl/refetch_clean_mean_latency_s",
             refetch_clean.mean_latency_s, "s");
  report.add("backend_repl/refetch_outage_mean_latency_s",
             refetch_dark.mean_latency_s, "s");
  report.add("backend_repl/quorum3_clean_mean_latency_s",
             quorum_clean.mean_latency_s, "s");
  report.add("backend_repl/quorum3_outage_mean_latency_s",
             quorum_dark.mean_latency_s, "s");
  report.add("backend_repl/refetch_degradation_x", refetch_deg, "x");
  report.add("backend_repl/quorum3_degradation_x", quorum_deg, "x");
  report.add("backend_repl/quorum3_failover_reads",
             static_cast<double>(quorum_dark.failover_reads));
  report.add("backend_repl/quorum3_egress_usd", quorum_dark.egress_usd, "$");
  report.add("backend_repl/refetch_egress_usd", refetch_dark.egress_usd,
             "$");
  report.add("backend_repl/quorum3_idle_usd_per_hour",
             quorum_dark.idle_usd_per_hour, "$/h");
  report.add("backend_repl/replicated_latency_flat",
             replicated_flat ? 1.0 : 0.0);
  report.add("backend_repl/refetch_pays_penalty",
             refetch_degrades ? 1.0 : 0.0);

  // Communication cost of the fault-induced re-fetches: the extra serving
  // dollars FI=1 pays versus the replicated deployment.
  const double refetch_comm_cost =
      refetch_run.total_serving_usd() - replica_run.total_serving_usd();
  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("cost of keeping 5 replicas for 50 h", 0.003,
                  replica_keepalive, "$");
  report.headline(
      "replica cost per request served", 0.000001,
      replica_keepalive / static_cast<double>(
                              std::max<std::size_t>(
                                  1, replica_run.records.size())),
      "$");
  report.headline("re-fetch comm cost vs replica cost ratio", 3000.0,
                  refetch_comm_cost / std::max(replica_keepalive, 1e-12),
                  "x");
  report.write(args);
  return 0;
}
