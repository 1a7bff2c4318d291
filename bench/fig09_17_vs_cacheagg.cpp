// Figures 9 and 17: one FLStore-vs-Cache-Agg comparison, read two ways. The
// pair and the backend sweep run once, in lock-step passes; each figure then
// prints its section and writes its BENCH_figNN.json.
#include "bench_common.hpp"

using namespace flstore;

namespace {

/// A run's provisioned services amortized over the trace's requests, as
/// the paper's per-request cost view does.
double infra_per_request(const sim::RunResult& run) {
  return run.infrastructure_usd / static_cast<double>(run.records.size());
}

// Figure 9: FLStore vs Cache-Agg (SageMaker + ElastiCache) per-request
// latency (top) and cost (bottom) over 50 hours, six workloads,
// EfficientNet.
//
// Paper headlines: 64.66 % average / 84.41 % max latency reduction;
// 98.83 % average / 99.65 % max cost reduction. Cache-Agg per-request cost
// includes its share of the provisioned cache node-hours (that is what the
// paper's log-scale $ axis shows).
void print_fig09(const bench::Args& args, const sim::RunResult& fl_run,
                 const sim::RunResult& ca_run) {
  bench::JsonReport report("fig09");
  bench::banner("Figure 9",
                "FLStore vs Cache-Agg per-request latency and cost, 50 h");
  const double ca_infra_per_req = infra_per_request(ca_run);
  const double fl_infra_per_req = infra_per_request(fl_run);

  Table table({"application", "Cache-Agg lat med [q1,q3]",
               "FLStore lat med [q1,q3]", "Cache-Agg $/req", "FLStore $/req"});
  double ca_lat = 0.0, fl_lat = 0.0, ca_cost = 0.0, fl_cost = 0.0;
  double max_lat_red = 0.0, max_cost_red = 0.0;
  std::size_t n = 0;
  for (const auto& [type, c, f] :
       bench::paired_workloads(ca_run, fl_run, fed::cacheagg_workloads())) {
    const double c_cost = c.cost.mean() + ca_infra_per_req;
    const double f_cost = f.cost.mean() + fl_infra_per_req;
    table.add_row({fed::paper_label(type), sim::quartile_cell(c.latency),
                   sim::quartile_cell(f.latency), fmt_usd(c_cost),
                   fmt_usd(f_cost)});
    ca_lat += c.latency.sum();
    fl_lat += f.latency.sum();
    ca_cost += c.cost.sum() + ca_infra_per_req * c.cost.size();
    fl_cost += f.cost.sum() + fl_infra_per_req * f.cost.size();
    n += c.latency.size();
    max_lat_red = std::max(
        max_lat_red, percent_reduction(c.latency.mean(), f.latency.mean()));
    max_cost_red = std::max(max_cost_red, percent_reduction(c_cost, f_cost));
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("avg latency reduction vs Cache-Agg", 64.66,
                  bench::headline_reduction(ca_lat / n, fl_lat / n), "%");
  report.headline("max latency reduction vs Cache-Agg", 84.41, max_lat_red,
                  "%");
  report.headline("avg cost reduction vs Cache-Agg", 98.83,
                  bench::headline_reduction(ca_cost / n, fl_cost / n), "%");
  report.headline("max cost reduction vs Cache-Agg", 99.65, max_cost_red, "%");
  report.write(args);
}

// Figure 17 (Appendix B.2): Cache-Agg vs FLStore accumulated total time and
// total cost over 50 hours / 3000 requests, six workloads.
//
// Paper headlines: total time reduced 37.77-84.45 % (191.65 accumulated
// hours saved); total cost reduced 98.12-99.89 % ($7047.16 saved).
void print_fig17(const bench::Args& args, double duration_s,
                 const sim::RunResult& fl_run, const sim::RunResult& ca_run,
                 const std::vector<bench::BackendSweepRow>& sweep) {
  bench::JsonReport report("fig17");
  bench::banner("Figure 17",
                "Cache-Agg vs FLStore totals over 50 h / 3000 requests");
  const double ca_infra_per_req = infra_per_request(ca_run);
  const double fl_infra_per_req = infra_per_request(fl_run);

  Table table({"application", "Cache-Agg time (h)", "FLStore time (h)",
               "Cache-Agg cost ($)", "FLStore cost ($)"});
  for (const auto& [type, c, f] :
       bench::paired_workloads(ca_run, fl_run, fed::cacheagg_workloads())) {
    table.add_row(
        {fed::paper_label(type), fmt(c.latency.sum() / 3600.0, 2),
         fmt(f.latency.sum() / 3600.0, 3),
         fmt(c.cost.sum() + ca_infra_per_req * c.cost.size(), 2),
         fmt(f.cost.sum() + fl_infra_per_req * f.cost.size(), 4)});
  }
  std::printf("%s", table.to_string().c_str());

  // Backend sweep over the same cache-workload trace: accumulated time and
  // cost (idle fees included — the cloud cache's node-hours are its story).
  bench::print_backend_sweep(sweep, report);
  Table totals({"cold backend", "total time (h)",
                "serving + idle cost ($, whole window)"});
  for (const auto& row : sweep) {
    const double idle_usd = row.idle_usd_per_hour * duration_s / 3600.0;
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
                  bench::headline_reduction(ca_total, fl_total), "%");
  report.headline("accumulated dollars saved", 7047.16, ca_total - fl_total,
                  "$");
  report.write(args);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  auto cfg = bench::paper_scenario("efficientnet_v2_s", args.scale);
  cfg.workloads = fed::cacheagg_workloads();
  std::vector<sim::RunResult> runs;  // FLStore, Cache-Agg
  std::vector<bench::BackendSweepRow> sweep;
  {
    sim::Scenario sc(cfg);
    const auto trace = sc.trace();
    runs = sim::run_trace({&sc.flstore(), &sc.cache_agg()}, sc.job(), trace,
                          cfg.duration_s, cfg.round_interval_s);
    sweep = bench::run_backend_sweep(sc, trace);
  }

  print_fig09(args, runs[0], runs[1]);
  print_fig17(args, cfg.duration_s, runs[0], runs[1], sweep);
  return 0;
}
