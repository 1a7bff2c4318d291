// Figure 9: FLStore vs Cache-Agg (SageMaker + ElastiCache) per-request
// latency (top) and cost (bottom) over 50 hours, six workloads,
// EfficientNet.
//
// Paper headlines: 64.66 % average / 84.41 % max latency reduction;
// 98.83 % average / 99.65 % max cost reduction. Cache-Agg per-request cost
// includes its share of the provisioned cache node-hours (that is what the
// paper's log-scale $ axis shows).
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig09");
  bench::banner("Figure 9",
                "FLStore vs Cache-Agg per-request latency and cost, 50 h");

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

  // Amortize the provisioned services over the trace's requests, as the
  // paper's per-request cost view does.
  const double ca_infra_per_req =
      ca_run.infrastructure_usd / static_cast<double>(ca_run.records.size());
  const double fl_infra_per_req =
      fl_run.infrastructure_usd / static_cast<double>(fl_run.records.size());

  Table table({"application", "Cache-Agg lat med [q1,q3]",
               "FLStore lat med [q1,q3]", "Cache-Agg $/req", "FLStore $/req"});
  double ca_lat = 0.0, fl_lat = 0.0, ca_cost = 0.0, fl_cost = 0.0;
  double max_lat_red = 0.0, max_cost_red = 0.0;
  std::size_t n = 0;
  for (const auto type : fed::cacheagg_workloads()) {
    const auto& c = ca_by.at(type);
    const auto& f = fl_by.at(type);
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
                  percent_reduction(ca_lat / n, fl_lat / n), "%");
  report.headline("max latency reduction vs Cache-Agg", 84.41, max_lat_red,
                  "%");
  report.headline("avg cost reduction vs Cache-Agg", 98.83,
                  percent_reduction(ca_cost / n, fl_cost / n), "%");
  report.headline("max cost reduction vs Cache-Agg", 99.65, max_cost_red, "%");
  report.write(args);
  return 0;
}
