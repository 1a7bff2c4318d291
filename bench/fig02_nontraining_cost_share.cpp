// Figure 2: the non-training portion of total per-round FL cost for ten
// applications (200-client pool, EfficientNet, conventional ObjStore-Agg
// serving).
//
// Paper annotations: shares range 73 % to 97 %; "the non-training overhead
// can reach up to 97 %".
#include "bench_common.hpp"
#include "sim/training_model.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig02");
  bench::banner("Figure 2",
                "Non-training share of per-round FL cost (EfficientNet)");

  sim::ScenarioConfig cfg =
      bench::paper_scenario("efficientnet_v2_s", 0.2 * args.scale);
  cfg.pool_size = 200;
  sim::Scenario sc(cfg);
  const auto trace = sc.trace();
  const auto run = sim::run_trace(sc.objstore_agg(), sc.job(), trace,
                                  cfg.duration_s, cfg.round_interval_s);
  const auto by = sim::by_workload(run);

  // Stride adapts so a small --scale never indexes past the job's rounds.
  double train_cost = 0.0;
  const auto stride = std::max<RoundId>(1, cfg.rounds / 20);
  int samples = 0;
  for (RoundId r = 0; r < cfg.rounds && samples < 20; r += stride, ++samples) {
    train_cost += sim::training_profile(sc.job(), r).vm_cost_usd;
  }
  train_cost /= std::max(1, samples);

  Table table({"application", "non-training ($)", "training ($)",
               "total ($)", "non-training share"});
  double max_share = 0.0, min_share = 100.0;
  for (const auto type : fed::paper_workloads()) {
    const auto it = by.find(type);
    if (it == by.end()) continue;  // tiny --scale traces can skip a workload
    const double nt = it->second.cost.mean();
    const double total = nt + train_cost;
    const double share = nt / total * 100.0;
    max_share = std::max(max_share, share);
    min_share = std::min(min_share, share);
    table.add_row({fed::paper_label(type), fmt_usd(nt), fmt_usd(train_cost),
                   fmt_usd(total), fmt_pct(share)});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("max non-training cost share", 97.0, max_share, "%");
  report.headline("min non-training cost share", 73.0, min_share, "%");
  report.add("mean_training_cost_usd", train_cost, "$");
  report.write(args);
  return 0;
}
