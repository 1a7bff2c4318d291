// Figure 1: the non-training portion of total per-round FL latency, for ten
// applications (200-client pool, EfficientNet, conventional ObjStore-Agg
// serving).
//
// Paper annotations: shares range 11 % (Sched. Cluster) to 60 % (Debugging);
// "a single non-training application can comprise up to 60 % of the total
// latency of the FL job".
#include "bench_common.hpp"
#include "sim/training_model.hpp"

using namespace flstore;

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("fig01");
  bench::banner("Figure 1",
                "Non-training share of per-round FL latency (EfficientNet)");

  sim::ScenarioConfig cfg =
      bench::paper_scenario("efficientnet_v2_s", 0.2 * args.scale);
  cfg.pool_size = 200;
  sim::Scenario sc(cfg);
  const auto trace = sc.trace();
  const auto run = sim::run_trace(sc.objstore_agg(), sc.job(), trace,
                                  cfg.duration_s, cfg.round_interval_s);
  const auto by = sim::by_workload(run);

  // Average training latency per round over a spread of sample rounds
  // (stride adapts so a small --scale never indexes past the job's rounds).
  double train_latency = 0.0;
  const auto stride = std::max<RoundId>(1, cfg.rounds / 20);
  int samples = 0;
  for (RoundId r = 0; r < cfg.rounds && samples < 20; r += stride, ++samples) {
    train_latency += sim::training_profile(sc.job(), r).latency_s;
  }
  train_latency /= std::max(1, samples);

  Table table({"application", "non-training (s)", "training (s)",
               "total (s)", "non-training share"});
  double max_share = 0.0;
  for (const auto type : fed::paper_workloads()) {
    const auto it = by.find(type);
    if (it == by.end()) continue;  // tiny --scale traces can skip a workload
    const double nt = it->second.latency.mean();
    const double total = nt + train_latency;
    const double share = nt / total * 100.0;
    max_share = std::max(max_share, share);
    table.add_row({fed::paper_label(type), fmt(nt, 1), fmt(train_latency, 1),
                   fmt(total, 1), fmt_pct(share)});
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nHeadlines (paper vs measured):\n");
  report.headline("max single-workload latency share", 60.0, max_share, "%");
  report.add("mean_training_latency_s", train_latency, "s");
  bench::note(
      "Shape check: debugging/incentives are the heaviest shares; metadata\n"
      "workloads (Sched. Perf.) are the lightest, as in the paper's bars.");
  report.write(args);
  return 0;
}
