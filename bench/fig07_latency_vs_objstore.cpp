// Figure 7: FLStore vs ObjStore-Agg per-request latency over the 50-hour
// trace — ten workloads, four models, boxplot quartiles per cell.
//
// Paper headlines: average per-request latency reduction 50.75 % (55.14 s),
// maximum 99.94 % (363.5 s).
#include "bench_common.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig07");
  bench::banner("Figure 7",
                "FLStore vs ObjStore-Agg per-request latency (s), 50 h trace");

  double base_sum = 0.0, fl_sum = 0.0;
  std::size_t n = 0;
  double max_abs = 0.0, max_pct = 0.0;

  for (const auto& model : ModelZoo::evaluation_models()) {
    sim::Scenario sc(bench::paper_scenario(model, args.scale));
    const auto trace = sc.trace();
    const auto fl_run = sim::run_trace(sc.flstore(), sc.job(), trace,
                                       sc.config().duration_s,
                                       sc.config().round_interval_s);
    const auto base_run = sim::run_trace(sc.objstore_agg(), sc.job(), trace,
                                         sc.config().duration_s,
                                         sc.config().round_interval_s);
    const auto fl_by = sim::by_workload(fl_run);
    const auto base_by = sim::by_workload(base_run);

    Table table({"application", "ObjStore-Agg  med [q1,q3]",
                 "FLStore  med [q1,q3]", "mean reduction"});
    for (const auto type : fed::paper_workloads()) {
      const auto& b = base_by.at(type);
      const auto& f = fl_by.at(type);
      table.add_row({fed::paper_label(type), sim::quartile_cell(b.latency),
                     sim::quartile_cell(f.latency),
                     fmt_pct(percent_reduction(b.latency.mean(),
                                               f.latency.mean()))});
      base_sum += b.latency.sum();
      fl_sum += f.latency.sum();
      n += b.latency.size();
      for (std::size_t i = 0; i < b.latency.size(); ++i) {
        const double d = b.latency.values()[i] - f.latency.values()[i];
        max_abs = std::max(max_abs, d);
        if (b.latency.values()[i] > 0) {
          max_pct = std::max(max_pct, d / b.latency.values()[i] * 100.0);
        }
      }
    }
    std::printf("\n-- %s --\n%s", bench::panel_label(model).c_str(),
                table.to_string().c_str());
  }

  // Backend sweep on the EfficientNet panel (means are scale-invariant, so
  // a 0.2x trace keeps the full-scale run quick).
  sim::Scenario sweep_sc(
      bench::paper_scenario("efficientnet_v2_s", 0.2 * args.scale));
  const auto sweep_trace = sweep_sc.trace();
  const auto rows = bench::print_backend_sweep(sweep_sc, sweep_trace, report);
  // The paper's ordering is over its three systems; the local-SSD row is
  // this repo's extension (NVMe can undercut even warm serving on raw
  // latency — at ~300x FLStore's idle bill, see the idle column).
  const bool latency_ordering =
      bench::sweep_mean_latency(rows[0]) < bench::sweep_mean_latency(rows[2]) &&
      bench::sweep_mean_latency(rows[2]) < bench::sweep_mean_latency(rows[1]);
  std::printf(
      "\n  paper ordering (latency): FLStore cache < cloud cache < object "
      "store — %s\n",
      latency_ordering ? "holds" : "VIOLATED");

  const double avg_base = base_sum / static_cast<double>(n);
  const double avg_fl = fl_sum / static_cast<double>(n);
  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("avg per-request latency reduction", 50.75,
                  percent_reduction(avg_base, avg_fl), "%");
  report.headline("avg absolute reduction per request", 55.14,
                  avg_base - avg_fl, "s");
  report.headline("max absolute reduction per request", 363.5, max_abs, "s");
  report.headline("max relative reduction per request", 99.94, max_pct, "%");
  report.add("backend_latency_ordering_holds", latency_ordering ? 1.0 : 0.0);
  report.write(args);
  return 0;
}
