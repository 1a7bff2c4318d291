// Figures 1, 2 and 10: one 200-client-pool EfficientNet scenario, read three
// ways. Its pair of runs and backend sweep happen once, in lock-step passes;
// each figure then prints its section and writes its BENCH_figNN.json.
#include "bench_common.hpp"
#include "sim/training_model.hpp"

using namespace flstore;

namespace {

/// A round's mean training latency and cost over rounds 0, stride,
/// 2 * stride, ...: at most 20 of them, and only rounds the job has, so a
/// small --scale never indexes past the job's rounds.
sim::RoundTrainingProfile mean_training(const fed::FLJob& job, RoundId rounds,
                                        RoundId stride) {
  sim::RoundTrainingProfile mean;
  int samples = 0;
  for (RoundId r = 0; r < rounds && samples < 20; r += stride, ++samples) {
    const auto profile = sim::training_profile(job, r);
    mean.latency_s += profile.latency_s;
    mean.vm_cost_usd += profile.vm_cost_usd;
  }
  mean.latency_s /= std::max(1, samples);
  mean.vm_cost_usd /= std::max(1, samples);
  return mean;
}

// Figure 1: the non-training portion of total per-round FL latency, for ten
// applications (200-client pool, EfficientNet, conventional ObjStore-Agg
// serving).
//
// Paper annotations: shares range 11 % (Sched. Cluster) to 60 % (Debugging);
// "a single non-training application can comprise up to 60 % of the total
// latency of the FL job".
void print_fig01(const bench::Args& args, const sim::RunResult& base_run,
                 double train_latency) {
  bench::JsonReport report("fig01");
  bench::banner("Figure 1",
                "Non-training share of per-round FL latency (EfficientNet)");
  Table table({"application", "non-training (s)", "training (s)",
               "total (s)", "non-training share"});
  double max_share = 0.0;
  const auto by = sim::by_workload(base_run);
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
}

// Figure 2: the non-training portion of total per-round FL cost for ten
// applications (200-client pool, EfficientNet, conventional ObjStore-Agg
// serving).
//
// Paper annotations: shares range 73 % to 97 %; "the non-training overhead
// can reach up to 97 %".
void print_fig02(const bench::Args& args, const sim::RunResult& base_run,
                 double train_cost) {
  bench::JsonReport report("fig02");
  bench::banner("Figure 2",
                "Non-training share of per-round FL cost (EfficientNet)");
  Table table({"application", "non-training ($)", "training ($)",
               "total ($)", "non-training share"});
  double max_share = 0.0, min_share = 100.0;
  const auto by = sim::by_workload(base_run);
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
}

// Figure 10: overall per-round FL cost with and without FLStore (training
// cost is untouched; the non-training share collapses).
//
// Paper examples: debugging $0.099 -> $0.004 (96.4 % reduction of the
// workload share), inference $0.097 -> $0.004 (96 %); per-application total
// reductions annotated between 42 % and 96 %.
void print_fig10(const bench::Args& args, const sim::ScenarioConfig& cfg,
                 const sim::RunResult& base_run, const sim::RunResult& fl_run,
                 const std::vector<bench::BackendSweepRow>& sweep,
                 double train_cost) {
  bench::JsonReport report("fig10");
  bench::banner("Figure 10",
                "Overall per-round FL cost with and without FLStore");
  Table table({"application", "without FLStore ($/round)",
               "with FLStore ($/round)", "reduction"});
  double debugging_before = 0.0, debugging_after = 0.0;
  for (const auto& [type, b, f] :
       bench::paired_workloads(base_run, fl_run, fed::paper_workloads())) {
    const double before = train_cost + b.cost.mean();
    const double after = train_cost + f.cost.mean();
    if (type == fed::WorkloadType::kDebugging) {
      debugging_before = b.cost.mean();
      debugging_after = f.cost.mean();
    }
    table.add_row({fed::paper_label(type), fmt_usd(before), fmt_usd(after),
                   fmt_pct(percent_reduction(before, after))});
  }
  std::printf("%s", table.to_string().c_str());

  // Backend sweep: the non-training cost share per round for each cold
  // backend, one code path. Requests-per-round converts $/request into the
  // figure's $/round share.
  bench::print_backend_sweep(sweep, report);
  const double req_per_round =
      static_cast<double>(cfg.total_requests) /
      static_cast<double>(cfg.rounds > 0 ? cfg.rounds : 1);
  Table round_share({"cold backend", "non-training $/round",
                     "total $/round (with training)"});
  for (const auto& row : sweep) {
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
  report.headline(
      "debugging workload cost reduction", 96.4,
      bench::headline_reduction(debugging_before, debugging_after), "%");
  report.write(args);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  sim::ScenarioConfig cfg =
      bench::paper_scenario("efficientnet_v2_s", 0.2 * args.scale);
  cfg.pool_size = 200;
  std::vector<sim::RunResult> runs;  // ObjStore-Agg, FLStore
  std::vector<bench::BackendSweepRow> sweep;
  sim::RoundTrainingProfile spread;  // Figs 1 and 2: rounds spread evenly
  double fig10_train_cost = 0.0;     // Fig 10: rounds 0, 5, ..., 95
  {
    sim::Scenario sc(cfg);
    const auto trace = sc.trace();
    runs = sim::run_trace({&sc.objstore_agg(), &sc.flstore()}, sc.job(),
                          trace, cfg.duration_s, cfg.round_interval_s);
    sweep = bench::run_backend_sweep(sc, trace);
    spread = mean_training(sc.job(), cfg.rounds,
                           std::max<RoundId>(1, cfg.rounds / 20));
    fig10_train_cost = mean_training(sc.job(), cfg.rounds, 5).vm_cost_usd;
  }

  print_fig01(args, runs[0], spread.latency_s);
  print_fig02(args, runs[0], spread.vm_cost_usd);
  print_fig10(args, cfg, runs[0], runs[1], sweep, fig10_train_cost);
  return 0;
}
