// Figure 10: overall per-round FL cost with and without FLStore (training
// cost is untouched; the non-training share collapses).
//
// Paper examples: debugging $0.099 -> $0.004 (96.4 % reduction of the
// workload share), inference $0.097 -> $0.004 (96 %); per-application total
// reductions annotated between 42 % and 96 %.
#include "bench_common.hpp"
#include "sim/training_model.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig10");
  bench::banner("Figure 10",
                "Overall per-round FL cost with and without FLStore");

  sim::ScenarioConfig cfg =
      bench::paper_scenario("efficientnet_v2_s", 0.2 * args.scale);
  cfg.pool_size = 200;
  sim::Scenario sc(cfg);
  const auto trace = sc.trace();
  const auto base_run = sim::run_trace(sc.objstore_agg(), sc.job(), trace,
                                       cfg.duration_s, cfg.round_interval_s);
  const auto fl_run = sim::run_trace(sc.flstore(), sc.job(), trace,
                                     cfg.duration_s, cfg.round_interval_s);
  const auto base_by = sim::by_workload(base_run);
  const auto fl_by = sim::by_workload(fl_run);

  double train_cost = 0.0;
  constexpr int kSampleRounds = 20;
  for (RoundId r = 0; r < kSampleRounds; ++r) {
    train_cost += sim::training_profile(sc.job(), r * 5).vm_cost_usd;
  }
  train_cost /= kSampleRounds;

  Table table({"application", "without FLStore ($/round)",
               "with FLStore ($/round)", "reduction"});
  double debugging_before = 0.0, debugging_after = 0.0;
  for (const auto type : fed::paper_workloads()) {
    const double before = train_cost + base_by.at(type).cost.mean();
    const double after = train_cost + fl_by.at(type).cost.mean();
    if (type == fed::WorkloadType::kDebugging) {
      debugging_before = base_by.at(type).cost.mean();
      debugging_after = fl_by.at(type).cost.mean();
    }
    table.add_row({fed::paper_label(type), fmt_usd(before), fmt_usd(after),
                   fmt_pct(percent_reduction(before, after))});
  }
  std::printf("%s", table.to_string().c_str());

  // Backend sweep: the non-training cost share per round for each cold
  // backend, one code path. Requests-per-round converts $/request into the
  // figure's $/round share.
  const auto rows = bench::print_backend_sweep(sc, trace, report);
  const double req_per_round =
      static_cast<double>(cfg.total_requests) /
      static_cast<double>(cfg.rounds > 0 ? cfg.rounds : 1);
  Table round_share({"cold backend", "non-training $/round",
                     "total $/round (with training)"});
  for (const auto& row : rows) {
    const double share = bench::sweep_mean_cost(row) * req_per_round;
    round_share.add_row({row.label, fmt_usd(share),
                         fmt_usd(train_cost + share)});
    report.add("round_share/" + row.label, share, "$");
  }
  std::printf("\n%s", round_share.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("debugging workload cost before", 0.099, debugging_before,
                  "$");
  report.headline("debugging workload cost after", 0.004, debugging_after,
                  "$");
  report.headline("debugging workload cost reduction", 96.4,
                  percent_reduction(debugging_before, debugging_after), "%");
  report.write(args);
  return 0;
}
