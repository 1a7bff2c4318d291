// Figure 17 (Appendix B.2): Cache-Agg vs FLStore accumulated total time and
// total cost over 50 hours / 3000 requests, six workloads.
//
// Paper headlines: total time reduced 37.77-84.45 % (191.65 accumulated
// hours saved); total cost reduced 98.12-99.89 % ($7047.16 saved).
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig17");
  bench::banner("Figure 17",
                "Cache-Agg vs FLStore totals over 50 h / 3000 requests");

  auto cfg = bench::paper_scenario("efficientnet_v2_s", args.scale);
  cfg.workloads = fed::cacheagg_workloads();
  sim::Scenario sc(cfg);
  const auto trace = sc.trace();
  const auto fl_run = sim::run_trace(sc.flstore(), sc.job(), trace,
                                     cfg.duration_s, cfg.round_interval_s);
  const auto ca_run = sim::run_trace(sc.cache_agg(), sc.job(), trace,
                                     cfg.duration_s, cfg.round_interval_s);
  const auto fl_by = sim::by_workload(fl_run);
  const auto ca_by = sim::by_workload(ca_run);

  const double ca_infra_per_req =
      ca_run.infrastructure_usd / static_cast<double>(ca_run.records.size());
  const double fl_infra_per_req =
      fl_run.infrastructure_usd / static_cast<double>(fl_run.records.size());

  Table table({"application", "Cache-Agg time (h)", "FLStore time (h)",
               "Cache-Agg cost ($)", "FLStore cost ($)"});
  for (const auto type : fed::cacheagg_workloads()) {
    const auto& c = ca_by.at(type);
    const auto& f = fl_by.at(type);
    table.add_row(
        {fed::paper_label(type), fmt(c.latency.sum() / 3600.0, 2),
         fmt(f.latency.sum() / 3600.0, 3),
         fmt(c.cost.sum() + ca_infra_per_req * c.cost.size(), 2),
         fmt(f.cost.sum() + fl_infra_per_req * f.cost.size(), 4)});
  }
  std::printf("%s", table.to_string().c_str());

  // Backend sweep over the same cache-workload trace: accumulated time and
  // cost (idle fees included — the cloud cache's node-hours are its story).
  const auto rows = bench::print_backend_sweep(sc, trace, report);
  Table totals({"cold backend", "total time (h)",
                "serving + idle cost ($, whole window)"});
  for (const auto& row : rows) {
    const double idle_usd = row.idle_usd_per_hour * cfg.duration_s / 3600.0;
    totals.add_row({row.label, fmt(row.run.total_latency_s() / 3600.0, 3),
                    fmt(row.run.total_serving_usd() + idle_usd, 2)});
    report.add("totals/" + row.label + "/cost_usd",
               row.run.total_serving_usd() + idle_usd, "$");
  }
  std::printf("\n%s", totals.to_string().c_str());

  const double hours_saved =
      (ca_run.total_latency_s() - fl_run.total_latency_s()) / 3600.0;
  const double ca_total =
      ca_run.total_serving_usd() + ca_run.infrastructure_usd;
  const double fl_total =
      fl_run.total_serving_usd() + fl_run.infrastructure_usd;
  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("accumulated hours saved", 191.65, hours_saved, "h");
  report.headline("total cost reduction", 99.0,
                  percent_reduction(ca_total, fl_total), "%");
  report.headline("accumulated dollars saved", 7047.16, ca_total - fl_total,
                  "$");
  report.write(args);
  return 0;
}
